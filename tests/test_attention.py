"""Channel attention block: affinity map, reweighting, residual blend."""

import numpy as np
from numpy.testing import assert_allclose

from npmca import ops
from npmca.attention import (
    RAW_GAMMA_ZERO,
    CmState,
    channel_attention_map,
    cm_forward,
    init_cm_state,
)
from npmca.autodiff import Tape
from npmca.matching import FeatureMap
from npmca.rng import make_rng
from npmca.tensor import ParamTensor, Tensor

from npmca import oracles


class TestChannelAttentionMap:
    def test_orthonormal_channels_give_softmaxed_identity(self):
        # columns of flat are orthonormal, so the Gram matrix is I and each
        # attention column is softmax of a one-hot vector
        flat = np.zeros((4, 3))
        flat[0, 0] = 1.0
        flat[1, 1] = 1.0
        flat[2, 2] = 1.0
        a = channel_attention_map(Tensor(flat)).array
        e = np.e
        on = e / (e + 2.0)
        off = 1.0 / (e + 2.0)
        want = np.full((3, 3), off)
        np.fill_diagonal(want, on)
        assert_allclose(a, want, atol=1e-12)

    def test_constant_gram_gives_uniform_columns(self):
        flat = np.ones((5, 4))
        a = channel_attention_map(Tensor(flat)).array
        assert_allclose(a, 0.25, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = make_rng(20)
        flat = rng.normal(size=(10, 4))
        a = channel_attention_map(Tensor(flat)).array
        want = oracles.softmax_columns_loops(oracles.matmul_loops(flat.T, flat))
        assert_allclose(a, want, atol=1e-12, rtol=0)

    def test_columns_are_stochastic(self):
        rng = make_rng(21)
        for _ in range(20):
            flat = rng.normal(size=(rng.integers(2, 30), 4)) * rng.uniform(0.1, 30.0)
            a = channel_attention_map(Tensor(flat)).array
            assert np.all(a >= 0.0)
            assert_allclose(a.sum(axis=0), np.ones(4), atol=1e-9, rtol=0)

    def test_gram_matrix_is_symmetric_psd(self):
        rng = make_rng(22)
        flat = rng.normal(size=(12, 5))
        gram = ops.matmul(ops.transpose(Tensor(flat)), Tensor(flat)).array
        assert_allclose(gram, gram.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-9


class TestCmForward:
    def test_gamma_zero_is_exact_identity(self):
        rng = make_rng(25)
        f = rng.normal(size=(4, 5, 4))
        state = CmState(ParamTensor("cm/raw_gamma", np.asarray(RAW_GAMMA_ZERO)))
        assert state.gamma() == 0.0
        out = cm_forward(FeatureMap(Tensor(f)), state)
        assert np.array_equal(out.tensor.array, f)

    def test_zero_input_maps_to_zero(self):
        state = init_cm_state("cm")
        out = cm_forward(FeatureMap(Tensor(np.zeros((3, 4, 4)))), state)
        assert np.array_equal(out.tensor.array, np.zeros((3, 4, 4)))

    def test_matches_monolithic_oracle(self):
        rng = make_rng(26)
        for _ in range(10):
            f = rng.normal(size=(5, 2, 4))
            raw = float(rng.normal())
            state = CmState(ParamTensor("cm/raw_gamma", np.asarray(raw)))
            got = cm_forward(FeatureMap(Tensor(f)), state)
            want = oracles.cm_loops(f, state.gamma())
            assert_allclose(got.tensor.array, want, atol=1e-10, rtol=0)

    def test_gamma_one_equals_composed_oracle(self):
        rng = make_rng(27)
        f = rng.normal(size=(3, 3, 4))
        # raw chosen so softplus(raw) == 1
        raw = float(np.log(np.e - 1.0))
        state = CmState(ParamTensor("cm/raw_gamma", np.asarray(raw)))
        got = cm_forward(FeatureMap(Tensor(f)), state).tensor.array
        flat = f.reshape(9, 4)
        a = oracles.softmax_columns_loops(oracles.matmul_loops(flat.T, flat))
        want = (oracles.matmul_loops(flat, a) * 1.0 + flat).reshape(3, 3, 4)
        assert_allclose(got, want, atol=1e-10, rtol=0)

    def test_default_init_is_near_identity(self):
        rng = make_rng(28)
        f = rng.normal(size=(4, 4, 4))
        state = init_cm_state("cm")
        out = cm_forward(FeatureMap(Tensor(f)), state).tensor.array
        assert np.max(np.abs(out - f)) < 1e-3
        assert not np.array_equal(out, f)  # near, not exact


class TestCmGradients:
    def test_gradients_match_finite_differences(self):
        rng = make_rng(29)
        f0 = rng.normal(size=(3, 4, 4))
        state = CmState(ParamTensor("cm/raw_gamma", np.asarray(0.3)))
        probe = rng.normal(size=(3, 4, 4))

        def run(tape=None):
            fm = FeatureMap(tape.watch(f0) if tape else Tensor(f0))
            out = cm_forward(fm, state, tape)
            return ops.total_sum(ops.mul(out.tensor, Tensor(probe))), fm

        tape = Tape()
        loss, fm = run(tape)
        grads = tape.backward(loss)
        g_in = grads.of(fm.tensor).reshape(-1)
        g_raw = float(state.raw_gamma.gradient.array)

        idx = np.random.default_rng(1).choice(f0.size, size=8, replace=False)
        fd = oracles.finite_difference(lambda: run()[0].item(), f0, idx)
        for i, which in enumerate(idx):
            err = oracles.relative_error(g_in[which], fd[i])
            assert err < 1e-5, f"input gradient off by {err}"

        fd_raw = oracles.finite_difference(lambda: run()[0].item(), state.raw_gamma.value.array, [0])
        assert oracles.relative_error(g_raw, fd_raw[0]) < 1e-5
