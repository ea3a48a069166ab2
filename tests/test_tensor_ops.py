"""Forward behaviour of the tensor engine's primitive operations."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from npmca import blas, ops
from npmca.autodiff import Tape
from npmca.errors import NumericError, ShapeError
from npmca.model import ModelConfig, forward_single_object, init_model_params
from npmca.tensor import Tensor

from npmca import oracles


rng = np.random.default_rng(42)


class TestTensor:
    def test_reshape_is_metadata_only(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        r = ops.reshape(t, (2, 6))
        assert r.array.base is t.array or r.array.base is t.array.base
        assert_allclose(r.array.ravel(), t.array.ravel())

    def test_reshape_rejects_wrong_size(self):
        with pytest.raises(ShapeError):
            ops.reshape(Tensor(np.ones((2, 3))), (4, 2))


class TestMatmul:
    def test_identity(self):
        a = Tensor(rng.normal(size=(4, 4)))
        out = ops.matmul(a, Tensor(np.eye(4)))
        assert_allclose(out.array, a.array)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert_allclose(ops.matmul(a, b).array, [[19.0, 22.0], [43.0, 50.0]])

    def test_against_loop_oracle(self):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(3, 5))
        got = ops.matmul(Tensor(a), Tensor(b)).array
        assert_allclose(got, oracles.matmul_loops(a, b), atol=1e-12, rtol=0)

    def test_loop_oracle_16x16(self):
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        got = ops.matmul(Tensor(a), Tensor(b)).array
        assert_allclose(got, oracles.matmul_loops(a, b), atol=1e-10, rtol=0)

    def test_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 5\)"):
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 5))))


class TestSoftmaxColumns:
    def test_zeros_give_uniform(self):
        out = ops.softmax_columns(Tensor(np.zeros((4, 3)))).array
        assert_allclose(out, np.full((4, 3), 0.25))

    def test_log_odds_hand_case(self):
        out = ops.softmax_columns(Tensor([[0.0], [np.log(3.0)]])).array
        assert_allclose(out, [[0.25], [0.75]], atol=1e-12)

    def test_shift_invariance_per_column(self):
        m = rng.normal(size=(6, 5))
        shifted = m + rng.normal(size=(1, 5))  # one constant per column
        a = ops.softmax_columns(Tensor(m)).array
        b = ops.softmax_columns(Tensor(shifted)).array
        assert_allclose(a, b, atol=1e-12, rtol=0)

    def test_matches_loop_oracle(self):
        m = rng.normal(size=(9, 7)) * 3.0
        got = ops.softmax_columns(Tensor(m)).array
        assert_allclose(got, oracles.softmax_columns_loops(m), atol=1e-12, rtol=0)

    def test_huge_magnitudes_stay_finite(self):
        m = rng.normal(size=(5, 4)) * 1000.0
        out = ops.softmax_columns(Tensor(m)).array
        assert np.all(np.isfinite(out))
        assert_allclose(out.sum(axis=0), np.ones(4), atol=1e-9, rtol=0)

    def test_nan_input_rejected(self):
        m = np.zeros((3, 3))
        m[1, 1] = np.nan
        with pytest.raises(NumericError):
            ops.softmax_columns(Tensor(m))

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_rejected(self, value, taped):
        # a -inf leaves its column's max finite; only the column min shows it
        m = rng.normal(size=(5, 4))
        m[3, 2] = value
        x = Tape().watch(m) if taped else Tensor(m)
        with pytest.raises(NumericError, match="non-finite"):
            ops.softmax_columns(x)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(2, 12),
        cols=st.integers(1, 12),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1.0, 10.0, 500.0]),
    )
    def test_columns_always_stochastic(self, rows, cols, seed, scale):
        m = np.random.default_rng(seed).normal(size=(rows, cols)) * scale
        out = ops.softmax_columns(Tensor(m)).array
        assert np.all(out >= 0.0)
        assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= 1e-9


def helper_halves(monkeypatch):
    """The (start, stop) row ranges handed to ``ops.row_halves``'s helper."""
    given = []

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            given.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(ops, "ThreadPoolExecutor", Recording)
    return given


def use_cpus(monkeypatch, cpus):
    """Make ``blas.workers`` see ``cpus`` usable CPUs, with BLAS pinned."""
    monkeypatch.setattr(blas, "PINNED", True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def halves_with_and_without_helper(monkeypatch, call):
    """``call()``'s array inside ``row_halves`` with one usable CPU (the
    caller computes both halves) and with two (a helper computes the lower
    ones); asserts they are equal bit for bit and returns the second."""
    results = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        with ops.row_halves():
            results.append(call().array)
    assert results[0].tobytes() == results[1].tobytes()
    return results[1]


def npmca_threads():
    return [t for t in threading.enumerate() if t.name.startswith("npmca")]


class TestRowHalves:
    """Inside ``ops.row_halves`` untaped products with at least 1024 rows
    are computed as two row halves, those with fewer rows but at least 1024
    columns as two column halves. The halves are the same with and without
    the helper thread, so the results are equal bit for bit."""

    @pytest.mark.parametrize("n", [1024, 1037, 1536, 2047, 2400])
    def test_softmax_match_is_bitwise(self, monkeypatch, n):
        given = helper_halves(monkeypatch)
        r = np.random.default_rng(n)
        ref, tar = r.normal(size=(n, 16)), r.normal(size=(n, 16))
        whole = ops.softmax_match(ref, tar).array
        halves = halves_with_and_without_helper(monkeypatch, lambda: ops.softmax_match(ref, tar))
        # the similarity's row halves, the column extremes, the shifted exp,
        # the divide, and the (16, n) blend's column halves
        assert given == [(n // 2, n)] * 5
        assert_allclose(halves, whole, rtol=1e-12, atol=0)
        assert npmca_threads() == []

    @pytest.mark.parametrize("half", ["top", "bottom"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_raises_the_same_error(self, monkeypatch, half, value):
        use_cpus(monkeypatch, 2)
        given = helper_halves(monkeypatch)
        n = 1100
        r = np.random.default_rng(7)
        ref, tar = r.normal(size=(n, 8)), r.normal(size=(n, 8))
        tar[:, 0] = np.abs(tar[:, 0]) + 0.5
        # similarity row i is then all ``value``: a -inf shows only in the column min
        ref[5 if half == "top" else n - 5, 0] = value
        errors = []
        for lend in (False, True):
            with ops.row_halves() if lend else nullcontext():
                with pytest.raises(NumericError) as exc:
                    ops.softmax_match(ref, tar)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == "softmax_columns: input contains non-finite values"
        assert given == [(n // 2, n)] * 2  # the similarity and the column extremes
        assert npmca_threads() == []

    @pytest.mark.parametrize("size", [(128, 192), (100, 100), (96, 144)], ids=["128x192", "100x100", "96x144"])
    @pytest.mark.parametrize("plan", [(16, 32, 64), (4, 6, 8)], ids=["default-plan", "small-plan"])
    def test_conv2d_is_bitwise_for_every_shape_the_model_makes(self, monkeypatch, size, plan):
        shapes = set()
        conv = ops.conv2d

        def recording(x, w, b, stride=1, pad=0):
            shapes.add((x.shape, w.shape, stride, pad))
            return conv(x, w, b, stride, pad)

        r = np.random.default_rng(3)
        params = init_model_params(3, ModelConfig(stage_channels=plan))
        images = [r.uniform(size=(*size, 3)) for _ in range(3)]
        with monkeypatch.context() as patch:
            patch.setattr(ops, "conv2d", recording)
            forward_single_object(params, images[0], images[1], images[2], r.uniform(size=size))
        assert len(shapes) >= 8

        given = helper_halves(monkeypatch)
        split = 0
        for x_shape, w_shape, stride, pad in sorted(shapes):
            x, w, b = r.normal(size=x_shape), r.normal(size=w_shape), r.normal(size=w_shape[-1])
            whole = ops.conv2d(x, w, b, stride, pad).array
            halves = halves_with_and_without_helper(monkeypatch, lambda: ops.conv2d(x, w, b, stride, pad))
            assert_allclose(halves, whole, rtol=1e-12, atol=1e-12)
            split += x_shape[0] * x_shape[1] >= ops.HALVES_MIN_ROWS  # every conv of the model keeps its size
        assert len(given) == split
        assert split >= 4

    def test_a_narrow_conv_splits(self, monkeypatch):
        # a width of 4 at 24576 rows: on OpenBLAS's SkylakeX kernels these
        # halves differ in bits from the whole product, but not from each other
        given = helper_halves(monkeypatch)
        x, w, b = rng.normal(size=(128, 192, 2)), rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4)
        whole = ops.conv2d(x, w, b, 1, 1).array
        halves = halves_with_and_without_helper(monkeypatch, lambda: ops.conv2d(x, w, b, 1, 1))
        assert given == [(64, 128)]
        assert_allclose(halves, whole, rtol=1e-12, atol=1e-12)

    def test_products_of_fewer_rows_and_columns_stay_whole(self, monkeypatch):
        given = helper_halves(monkeypatch)
        x, w, b = rng.normal(size=(16, 24, 64)), rng.normal(size=(3, 3, 64, 8)), rng.normal(size=8)  # 384 rows
        ref, tar, wide = rng.normal(size=(384, 16)), rng.normal(size=(384, 16)), rng.normal(size=(384, 1000))
        calls = [lambda: ops.conv2d(x, w, b, 1, 1), lambda: ops.softmax_match(ref, tar),
                 lambda: ops.matmul(ref, tar.T), lambda: ops.matmul(ref.T, wide)]
        wholes = [call().array for call in calls]
        for call, whole in zip(calls, wholes):
            assert halves_with_and_without_helper(monkeypatch, call).tobytes() == whole.tobytes()
        assert given == []

    def test_matmul_takes_row_or_column_halves(self, monkeypatch):
        given = helper_halves(monkeypatch)
        tall = rng.normal(size=(1500, 16)), rng.normal(size=(16, 8))  # (1500, 8): row halves
        wide = rng.normal(size=(8, 16)), rng.normal(size=(16, 1100))  # (8, 1100): column halves
        for x, y in (tall, wide):
            halves = halves_with_and_without_helper(monkeypatch, lambda: ops.matmul(x, y))
            assert_allclose(halves, x @ y, rtol=1e-12, atol=1e-12)
        assert given == [(750, 1500), (550, 1100)]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_halves_run_on_the_caller_or_on_one_helper(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        ran = []
        matmul = np.matmul

        def recording(*args, **kwargs):
            ran.append((threading.current_thread().name.split("_")[0], len(kwargs["out"])))
            return matmul(*args, **kwargs)

        x, w, b = rng.normal(size=(48, 64, 4)), rng.normal(size=(3, 3, 4, 16)), rng.normal(size=16)
        with ops.row_halves(), monkeypatch.context() as patch:
            patch.setattr(np, "matmul", recording)
            ops.conv2d(x, w, b, 1, 1)
        # 48 map rows of 64 pixels: the upper 24 rows on the caller, the lower 24 on the helper if any
        assert sorted(ran) == sorted([("MainThread", 24 * 64), ("MainThread" if cpus == 1 else "npmca-rows", 24 * 64)])
        assert npmca_threads() == []

    def test_taped_calls_and_other_threads_take_no_half(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        given = helper_halves(monkeypatch)
        x, w, b = rng.normal(size=(48, 64, 4)), rng.normal(size=(3, 3, 4, 16)), rng.normal(size=16)
        ref, tar = rng.normal(size=(1200, 4)), rng.normal(size=(1200, 4))
        with ops.row_halves():
            tape = Tape()
            ops.conv2d(tape.watch(x), w, b, 1, 1)
            ops.softmax_match(tape.watch(ref), tar)
            ops.matmul(tape.watch(ref), tar.T)
            other = threading.Thread(target=lambda: (ops.conv2d(x, w, b, 1, 1), ops.softmax_match(ref, tar)))
            other.start()
            other.join(timeout=60)
            assert not other.is_alive()
        assert given == []
        with ops.row_halves():
            ops.conv2d(x, w, b, 1, 1)
        assert given == [(24, 48)]


class TestConv2d:
    def test_1x1_identity_kernel(self):
        x = rng.normal(size=(5, 6, 1))
        w = np.ones((1, 1, 1, 1))
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert_allclose(out.array, x)

    def test_all_ones_kernel_on_constant_map(self):
        x = np.full((4, 4, 1), 5.0)
        w = np.ones((3, 3, 1, 1))
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), stride=1, pad=1).array
        # interior taps see the full 3x3 window, corners only a 2x2 one
        assert out[1, 1, 0] == 45.0
        assert out[2, 2, 0] == 45.0
        for cy, cx in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert out[cy, cx, 0] == 20.0

    def test_matches_loop_oracle(self):
        x = rng.normal(size=(8, 8, 3))
        w = rng.normal(size=(3, 3, 3, 4))
        b = rng.normal(size=4)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=1).array
        assert_allclose(got, oracles.conv2d_loops(x, w, b, stride=1, pad=1), atol=1e-12, rtol=0)

    def test_loop_oracle_with_stride_two(self):
        # stride 2 needs an odd padded extent, e.g. 7 + 2 - 3 = 6
        x = rng.normal(size=(7, 9, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        b = rng.normal(size=3)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1).array
        assert got.shape == (4, 5, 3)
        assert_allclose(got, oracles.conv2d_loops(x, w, b, stride=2, pad=1), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_same_padding_preserves_size(self, k):
        x = rng.normal(size=(10, 12, 2))
        w = rng.normal(size=(k, k, 2, 2))
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(2)), stride=1, pad=(k - 1) // 2)
        assert out.shape == (10, 12, 2)

    def test_non_integral_output_rejected(self):
        x = Tensor(np.zeros((8, 8, 1)))
        w = Tensor(np.zeros((3, 3, 1, 1)))
        with pytest.raises(ShapeError, match="non-integral"):
            ops.conv2d(x, w, Tensor(np.zeros(1)), stride=2, pad=1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            ops.conv2d(Tensor(np.zeros((4, 4, 1))), Tensor(np.zeros((2, 2, 1, 1))), Tensor(np.zeros(1)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))), Tensor(np.zeros(1)), pad=1)


class TestBilinearResize:
    def test_identity(self):
        x = rng.normal(size=(5, 7, 2))
        out = ops.bilinear_resize(Tensor(x), 5, 7).array
        assert np.array_equal(out, x)

    def test_constant_stays_constant(self):
        x = np.full((4, 6, 1), 3.25)
        out = ops.bilinear_resize(Tensor(x), 9, 5).array
        assert_allclose(out, 3.25, atol=1e-12)

    def test_half_pixel_hand_case(self):
        # a 1x2 row [0, 1] widened to four samples
        x = np.array([[[0.0], [1.0]]])
        out = ops.bilinear_resize(Tensor(x), 1, 4).array[0, :, 0]
        assert_allclose(out, [0.0, 0.25, 0.75, 1.0], atol=0, rtol=0)

    def test_matches_gather_oracle(self):
        # 6x8 -> 3x5 halves the height only, so it stays on the matrix path
        for shape, out_h, out_w in [((6, 9, 3), 11, 4), ((6, 8, 3), 3, 5)]:
            x = rng.normal(size=shape)
            got = ops.bilinear_resize(Tensor(x), out_h, out_w).array
            assert_allclose(got, oracles.bilinear_gather(x, out_h, out_w), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("shape", [(64, 96, 16), (6, 8, 3)])
    def test_halving_equals_interpolation_matrices_bitwise(self, shape):
        h, w, _ = shape
        x = np.maximum(rng.normal(size=shape), 0.0)  # ReLU-like, with exact zeros
        mh = ops._interp_matrix(h, h // 2)
        mw = ops._interp_matrix(w, w // 2)
        tape = Tape()
        xt = tape.watch(x)
        y = ops.bilinear_resize(xt, h // 2, w // 2)
        assert np.array_equal(y.array, ops._apply_separable(x, mh, mw))
        g = rng.normal(size=y.shape)
        grads = tape.backward(ops.total_sum(ops.mul(y, Tensor(g))))
        assert np.array_equal(grads.of(xt), ops._apply_separable(g, mh.T, mw.T))

    def test_downsample_by_two_is_window_mean(self):
        x = rng.normal(size=(6, 8, 1))
        out = ops.bilinear_resize(Tensor(x), 3, 4).array
        pooled = x.reshape(3, 2, 4, 2, 1).mean(axis=(1, 3))
        assert_allclose(out, pooled, atol=1e-12, rtol=0)


class TestElementwise:
    def test_add_zero_identity(self):
        x = rng.normal(size=(3, 4))
        out = ops.add(Tensor(x), Tensor(np.zeros((3, 4))))
        assert_allclose(out.array, x)

    def test_scalar_broadcast(self):
        x = rng.normal(size=(2, 3))
        assert_allclose(ops.add(Tensor(x), 2.0).array, x + 2.0)
        assert_allclose(ops.mul(Tensor(x), 3.0).array, x * 3.0)
        assert_allclose(ops.sub(1.0, Tensor(x)).array, 1.0 - x)
        assert_allclose(ops.div(Tensor(x), 2.0).array, x / 2.0)

    def test_general_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_relu(self):
        out = ops.relu(Tensor([-2.0, 0.0, 1.5])).array
        assert_allclose(out, [0.0, 0.0, 1.5])

    def test_sigmoid_midpoint_and_saturation(self):
        out = ops.sigmoid(Tensor([0.0, 800.0, -800.0])).array
        assert_allclose(out[0], 0.5)
        assert np.all(np.isfinite(out))
        assert out[1] == 1.0 and out[2] == 0.0

    def test_scale(self):
        x = rng.normal(size=(4,))
        assert_allclose(ops.scale(Tensor(x), -0.5).array, -0.5 * x)

    def test_softplus_matches_reference(self):
        x = np.array([-800.0, -1.0, 0.0, 1.0, 700.0])
        out = ops.softplus(Tensor(x)).array
        assert_allclose(out[1:4], np.log1p(np.exp(x[1:4])), rtol=1e-12)
        assert out[0] == 0.0  # exp(-800) underflows, so the result is an exact zero
        assert_allclose(out[4], 700.0)

    def test_total_sum(self):
        x = rng.normal(size=(3, 5))
        s = ops.total_sum(Tensor(x))
        assert s.shape == ()
        assert_allclose(s.item(), x.sum())

    def test_concat_channels(self):
        a = rng.normal(size=(2, 3, 2))
        b = rng.normal(size=(2, 3, 1))
        out = ops.concat_channels([Tensor(a), Tensor(b)])
        assert out.shape == (2, 3, 3)
        assert_allclose(out.array[:, :, :2], a)
        assert_allclose(out.array[:, :, 2], b[:, :, 0])

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            ops.concat_channels([Tensor(np.zeros((2, 3, 1))), Tensor(np.zeros((3, 3, 1)))])

    def test_transpose(self):
        x = rng.normal(size=(3, 4))
        assert_allclose(ops.transpose(Tensor(x)).array, x.T)


class TestFiniteness:
    """Forward results stay finite whenever the inputs are finite."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), magnitude=st.sampled_from([1.0, 1e3, 1e6]))
    def test_pipeline_of_ops_is_finite(self, seed, magnitude):
        r = np.random.default_rng(seed)
        x = Tensor(r.normal(size=(4, 6)) * magnitude)
        y = ops.softmax_columns(x)
        z = ops.sigmoid(ops.matmul(y, Tensor(r.normal(size=(6, 3)) * magnitude)))
        s = ops.total_sum(ops.relu(z))
        assert np.all(np.isfinite(y.array))
        assert np.all(np.isfinite(z.array))
        assert np.isfinite(s.item())
