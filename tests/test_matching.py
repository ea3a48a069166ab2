"""Matching block: reduction, the softmax_match op, the full block."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmca import ops
from npmca.autodiff import Tape
from npmca.errors import ConfigError, NumericError, ShapeError
from npmca.matching import (
    FeatureMap,
    NlpmmParams,
    flatten_grid,
    init_nlpmm_params,
    nlpmm_forward,
    reduce_channels,
)
from npmca.rng import make_rng
from npmca.tensor import ParamTensor, Tensor

from npmca import oracles


def random_params(rng, channels) -> NlpmmParams:
    """Params with non-zero biases so oracle comparisons exercise them."""
    c4 = channels // 4
    return NlpmmParams(
        ParamTensor("t/reduce_ref/w", rng.normal(size=(3, 3, channels, c4)) * 0.3),
        ParamTensor("t/reduce_ref/b", rng.normal(size=c4) * 0.1),
        ParamTensor("t/reduce_tar/w", rng.normal(size=(3, 3, channels, c4)) * 0.3),
        ParamTensor("t/reduce_tar/b", rng.normal(size=c4) * 0.1),
    )


class TestReduceChannels:
    def test_selector_kernel_extracts_channel(self):
        rng = make_rng(0)
        x = rng.normal(size=(5, 6, 4))
        w = np.zeros((3, 3, 4, 1))
        w[1, 1, 0, 0] = 1.0  # center tap on channel 0
        out = reduce_channels(FeatureMap(Tensor(x)), Tensor(w), Tensor(np.zeros(1)))
        assert_allclose(out.tensor.array[:, :, 0], x[:, :, 0])

    def test_zero_input_gives_bias(self):
        w = np.zeros((3, 3, 4, 1))
        b = np.array([0.75])
        out = reduce_channels(FeatureMap(Tensor(np.zeros((4, 4, 4)))), Tensor(w), Tensor(b))
        assert_allclose(out.tensor.array, 0.75)

    def test_matches_conv_oracle(self):
        rng = make_rng(1)
        x = rng.normal(size=(4, 5, 8))
        p = random_params(rng, 8)
        out = reduce_channels(FeatureMap(Tensor(x)), p.reduce_ref_w, p.reduce_ref_b)
        want = oracles.conv2d_loops(x, p.reduce_ref_w.value.array, p.reduce_ref_b.value.array, pad=1)
        assert_allclose(out.tensor.array, want, atol=1e-12, rtol=0)

    def test_rejects_channels_not_divisible_by_four(self):
        with pytest.raises(ConfigError):
            reduce_channels(FeatureMap(Tensor(np.zeros((4, 4, 6)))), Tensor(np.zeros((3, 3, 6, 1))), Tensor(np.zeros(1)))


def composed_match(ref, tar):
    """The match as a chain of tape primitives: refᵀ · softmax_columns(ref · tarᵀ)."""
    return ops.matmul(ops.transpose(ref), ops.softmax_columns(ops.matmul(ref, ops.transpose(tar))))


class TestSimilarity:
    """The similarity and its column softmax, seen through ``softmax_match``."""

    def test_orthogonal_rows_give_diagonal(self):
        # S = diag(1, 4), so each column's weights are a two-way softmax
        f = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = ops.softmax_match(Tensor(f), Tensor(f)).array
        e, e4 = np.exp(1.0), np.exp(4.0)
        want = np.array([[e / (e + 1.0), 1.0 / (1.0 + e4)], [2.0 / (e + 1.0), 2.0 * e4 / (1.0 + e4)]])
        assert_allclose(out, want, atol=1e-14, rtol=0)

    def test_matches_loop_oracle(self):
        rng = make_rng(2)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(6, 3))
        weights = oracles.softmax_columns_loops(oracles.matmul_loops(a, b.T))
        want = oracles.matmul_loops(a.T, weights)
        assert_allclose(ops.softmax_match(Tensor(a), Tensor(b)).array, want, atol=1e-12, rtol=0)

    def test_shape_mismatch_rejected(self):
        for ref, tar in (((4, 2), (5, 2)), ((4, 2), (4, 3)), ((4, 2, 1), (4, 2, 1))):
            with pytest.raises(ShapeError):
                ops.softmax_match(Tensor(np.zeros(ref)), Tensor(np.zeros(tar)))

    def test_normalize_columns_sum_to_one(self):
        # a constant reference channel comes out as the column sums of the weights
        rng = make_rng(3)
        ref = rng.normal(size=(8, 2)) * 5.0
        ref[:, 1] = 1.0
        out = ops.softmax_match(Tensor(ref), Tensor(rng.normal(size=(8, 2)) * 5.0)).array
        assert_allclose(out[1], np.ones(8), atol=1e-9, rtol=0)


class TestMatch:
    """The blend of reference rows, seen through ``softmax_match``."""

    def test_one_hot_column_selects_reference_row(self):
        # off-peak weights are exp(-1600), which underflows to exactly zero
        ref = np.eye(3) * 40.0
        tar = ref[[2, 0, 1]]
        out = ops.softmax_match(Tensor(ref), Tensor(tar)).array
        assert np.array_equal(out[:, 0], ref[2])
        assert np.array_equal(out[:, 1], ref[0])
        assert np.array_equal(out[:, 2], ref[1])

    def test_uniform_columns_give_mean_reference(self):
        rng = make_rng(4)
        ref = rng.normal(size=(5, 3))
        out = ops.softmax_match(Tensor(ref), Tensor(np.zeros((5, 3)))).array
        for j in range(5):
            assert_allclose(out[:, j], ref.mean(axis=0), atol=1e-12)


class TestSoftmaxMatchBitwise:
    @pytest.mark.parametrize("c4", [2, 16])
    @pytest.mark.parametrize("grid", [(3, 4), (4, 5), (8, 12), (12, 18), (16, 24), (20, 30), (32, 48)])
    def test_forward_and_adjoints_equal_composition(self, grid, c4):
        rng = make_rng(14)
        n = grid[0] * grid[1]
        ref0 = rng.normal(size=(n, c4))
        tar0 = rng.normal(size=(n, c4))
        probe = Tensor(rng.normal(size=(c4, n)))

        def run(match_fn):
            tape = Tape()
            ref, tar = tape.watch(ref0), tape.watch(tar0)
            out = match_fn(ref, tar)
            grads = tape.backward(ops.total_sum(ops.mul(out, probe)))
            return out.array, grads.of(ref), grads.of(tar)

        for got, want in zip(run(ops.softmax_match), run(composed_match)):
            assert got.tobytes() == want.tobytes()


class TestNlpmmForward:
    def test_matches_monolithic_oracle(self):
        rng = make_rng(5)
        for trial in range(10):
            f_ref = rng.normal(size=(4, 5, 8))
            f_tar = rng.normal(size=(4, 5, 8))
            p = random_params(rng, 8)
            got = nlpmm_forward(FeatureMap(Tensor(f_ref)), FeatureMap(Tensor(f_tar)), p)
            want = oracles.nlpmm_loops(
                f_ref,
                f_tar,
                p.reduce_ref_w.value.array,
                p.reduce_ref_b.value.array,
                p.reduce_tar_w.value.array,
                p.reduce_tar_b.value.array,
            )
            assert_allclose(got.tensor.array, want, atol=1e-10, rtol=0)

    def test_identical_maps_self_match(self):
        # with equal inputs and equal branch weights, similarity is a Gram
        # matrix and the diagonal is the largest entry of each column under
        # strong feature separation, so matching roughly returns the input
        rng = make_rng(6)
        f = rng.normal(size=(3, 4, 8)) * 4.0
        p = random_params(rng, 8)
        p2 = NlpmmParams(p.reduce_ref_w, p.reduce_ref_b, p.reduce_ref_w, p.reduce_ref_b)
        out = nlpmm_forward(FeatureMap(Tensor(f)), FeatureMap(Tensor(f)), p2)
        reduced = reduce_channels(FeatureMap(Tensor(f)), p.reduce_ref_w, p.reduce_ref_b)
        # convexity keeps the output inside the reduced range regardless
        assert out.tensor.array.min() >= reduced.tensor.array.min() - 1e-9
        assert out.tensor.array.max() <= reduced.tensor.array.max() + 1e-9

    def test_convex_hull_bound_per_channel(self):
        rng = make_rng(7)
        for _ in range(25):
            f_ref = rng.normal(size=(3, 5, 4)) * rng.uniform(0.5, 5.0)
            f_tar = rng.normal(size=(3, 5, 4))
            p = random_params(rng, 4)
            reduced_ref = reduce_channels(FeatureMap(Tensor(f_ref)), p.reduce_ref_w, p.reduce_ref_b)
            out = nlpmm_forward(FeatureMap(Tensor(f_ref)), FeatureMap(Tensor(f_tar)), p)
            lo = reduced_ref.tensor.array.reshape(15, -1).min(axis=0)
            hi = reduced_ref.tensor.array.reshape(15, -1).max(axis=0)
            got = out.tensor.array.reshape(15, -1)
            assert np.all(got >= lo - 1e-9), "matched features fell below the reference hull"
            assert np.all(got <= hi + 1e-9), "matched features rose above the reference hull"

    def test_reference_permutation_leaves_output_unchanged(self):
        rng = make_rng(8)
        ref_flat = rng.normal(size=(12, 3))
        tar_flat = rng.normal(size=(12, 3))
        out = ops.softmax_match(Tensor(ref_flat), Tensor(tar_flat))
        perm = rng.permutation(12)
        out_p = ops.softmax_match(Tensor(ref_flat[perm]), Tensor(tar_flat))
        assert_allclose(out.array, out_p.array, atol=1e-12, rtol=0)

    def test_target_permutation_permutes_output_columns(self):
        rng = make_rng(9)
        ref_flat = rng.normal(size=(10, 2))
        tar_flat = rng.normal(size=(10, 2))
        base = ops.softmax_match(Tensor(ref_flat), Tensor(tar_flat)).array
        perm = rng.permutation(10)
        permuted = ops.softmax_match(Tensor(ref_flat), Tensor(tar_flat[perm])).array
        assert_allclose(permuted, base[:, perm], atol=1e-12, rtol=0)

    @pytest.mark.parametrize("grid", [(12, 18), (16, 24), (20, 30), (32, 48)])
    def test_untaped_path_equals_composition_bitwise(self, grid):
        # the feature grids of both benchmark inference workloads, at C = 64
        rng = make_rng(12)
        f_ref = FeatureMap(Tensor(rng.normal(size=(*grid, 64))))
        f_tar = FeatureMap(Tensor(rng.normal(size=(*grid, 64))))
        p = random_params(rng, 64)
        got = nlpmm_forward(f_ref, f_tar, p).tensor.array
        ref_flat = flatten_grid(reduce_channels(f_ref, p.reduce_ref_w, p.reduce_ref_b))
        tar_flat = flatten_grid(reduce_channels(f_tar, p.reduce_tar_w, p.reduce_tar_b))
        want = composed_match(ref_flat, tar_flat).array
        assert got.tobytes() == want.T.reshape(got.shape).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_untaped_path_rejects_non_finite_features(self):
        rng = make_rng(13)
        f_ref = rng.normal(size=(4, 5, 8))
        f_tar = rng.normal(size=(4, 5, 8))
        f_tar[2, 3, 1] = np.inf
        p = random_params(rng, 8)
        with pytest.raises(NumericError, match="non-finite"):
            nlpmm_forward(FeatureMap(Tensor(f_ref)), FeatureMap(Tensor(f_tar)), p)
        tape = Tape()
        with pytest.raises(NumericError, match="non-finite"):
            nlpmm_forward(FeatureMap(tape.watch(f_ref)), FeatureMap(tape.watch(f_tar)), p, tape)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_one_negative_infinite_similarity_is_rejected(self, taped):
        # reference row 2 meets every target row at -inf, while each
        # similarity column keeps a finite max
        rng = make_rng(15)
        ref = rng.normal(size=(6, 3))
        ref[2, 1] = -np.inf
        tar = rng.normal(size=(6, 3))
        tar[:, 1] = np.abs(tar[:, 1]) + 0.5
        tape = Tape() if taped else None
        args = (tape.watch(ref), tape.watch(tar)) if taped else (Tensor(ref), Tensor(tar))
        with pytest.raises(NumericError, match="non-finite"):
            ops.softmax_match(*args)

    def test_shape_mismatch_rejected(self):
        rng = make_rng(10)
        p = random_params(rng, 4)
        with pytest.raises(ShapeError):
            nlpmm_forward(
                FeatureMap(Tensor(np.zeros((4, 4, 4)))),
                FeatureMap(Tensor(np.zeros((4, 5, 4)))),
                p,
            )


class TestNlpmmGradients:
    def test_gradients_match_finite_differences(self):
        rng = make_rng(11)
        f_ref0 = rng.normal(size=(3, 4, 4))
        f_tar0 = rng.normal(size=(3, 4, 4))
        p = random_params(rng, 4)
        probe = rng.normal(size=(3, 4, 1))

        def run(f_ref_arr, f_tar_arr, tape=None):
            fr = FeatureMap(tape.watch(f_ref_arr) if tape else Tensor(f_ref_arr))
            ft = FeatureMap(tape.watch(f_tar_arr) if tape else Tensor(f_tar_arr))
            out = nlpmm_forward(fr, ft, p, tape)
            return ops.total_sum(ops.mul(out.tensor, Tensor(probe))), fr, ft

        tape = Tape()
        loss, fr, ft = run(f_ref0, f_tar0, tape)
        grads = tape.backward(loss)
        g_ref = grads.of(fr.tensor).reshape(-1)
        g_tar = grads.of(ft.tensor).reshape(-1)
        g_w_ref = p.reduce_ref_w.gradient.array.reshape(-1).copy()
        g_w_tar = p.reduce_tar_w.gradient.array.reshape(-1).copy()

        probe_rng = np.random.default_rng(0)
        for values, grad in ((f_ref0, g_ref), (f_tar0, g_tar)):
            idx = probe_rng.choice(values.size, size=6, replace=False)
            fd = oracles.finite_difference(lambda: run(f_ref0, f_tar0)[0].item(), values, idx)
            for i, which in enumerate(idx):
                err = oracles.relative_error(grad[which], fd[i])
                assert err < 1e-5, f"input gradient off by {err}"

        for param, grad in ((p.reduce_ref_w, g_w_ref), (p.reduce_tar_w, g_w_tar)):
            values = param.value.array
            idx = probe_rng.choice(values.size, size=6, replace=False)
            fd = oracles.finite_difference(lambda: run(f_ref0, f_tar0)[0].item(), values, idx)
            for i, which in enumerate(idx):
                err = oracles.relative_error(grad[which], fd[i])
                assert err < 1e-5, f"weight gradient off by {err}"


def test_init_rejects_bad_channel_count():
    with pytest.raises(ConfigError):
        init_nlpmm_params(make_rng(0), 6, "x")
