"""Reverse-mode differentiation against finite-difference oracles."""

import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmca import ops
from npmca.autodiff import Tape
from npmca.errors import GraphStateError, ShapeError
from npmca.metrics import iou_loss
from npmca.model import ModelConfig, forward_single_object, init_model_params
from npmca.tensor import ParamTensor, Tensor

from npmca import oracles


def test_sum_of_squares_gradient():
    tape = Tape()
    x = tape.watch(np.array([1.0, 2.0]))
    loss = ops.total_sum(ops.mul(x, x))
    grads = tape.backward(loss)
    assert_allclose(grads.of(x), [2.0, 4.0])


def test_matmul_adjoint_hand_case():
    # loss = sum(A @ B) gives dA = ones @ B^T
    tape = Tape()
    a = tape.watch(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    loss = ops.total_sum(ops.matmul(a, Tensor(b)))
    grads = tape.backward(loss)
    assert_allclose(grads.of(a), np.ones((2, 2)) @ b.T)


def test_param_gradients_accumulate_until_cleared():
    p = ParamTensor("p", np.array([3.0]))
    for _ in range(2):
        tape = Tape()
        v = tape.param(p)
        tape.backward(ops.total_sum(ops.mul(v, v)))
    assert_allclose(p.gradient.array, [12.0])  # two passes of 2x each
    p.zero_grad()
    assert_allclose(p.gradient.array, [0.0])


def test_shared_param_used_twice_sums_contributions():
    p = ParamTensor("p", np.array([2.0]))
    tape = Tape()
    v = tape.param(p)
    w = tape.param(p)  # same leaf comes back
    assert v is w
    loss = ops.total_sum(ops.mul(v, w))  # p^2
    tape.backward(loss)
    assert_allclose(p.gradient.array, [4.0])


def test_training_tape_is_freed_by_reference_counting():
    """A sample's tape and its saved activations go as soon as the caller
    drops them, without waiting for the cycle collector."""
    params = init_model_params(0, ModelConfig(stage_channels=(4, 6, 8)))
    rng = np.random.default_rng(0)
    first, prev, cur = (rng.uniform(size=(8, 8, 3)) for _ in range(3))
    guidance = rng.uniform(size=(8, 8))
    gc.disable()
    try:
        tape = Tape()
        prob = forward_single_object(params, first, prev, cur, guidance, tape=tape)
        tape.backward(iou_loss(prob, (guidance > 0.5).astype(float)))
        alive = weakref.ref(tape)
        del tape, prob
        assert alive() is None
    finally:
        gc.enable()


def test_param_gradients_equal_backward_deposit_and_write_nothing():
    """The pure step returns what ``backward`` would add, leaves every
    gradient accumulator alone, and lets its tape go like ``backward``."""
    params = init_model_params(0, ModelConfig(stage_channels=(4, 6, 8)))
    named = params.named_parameters()
    rng = np.random.default_rng(1)
    first, prev, cur = (rng.uniform(size=(8, 12, 3)) for _ in range(3))
    guidance = rng.uniform(size=(8, 12))
    target = (guidance > 0.5).astype(float)

    def sample_loss(tape):
        return iou_loss(forward_single_object(params, first, prev, cur, guidance, tape=tape), target)

    tape = Tape()
    tape.backward(sample_loss(tape))
    deposited = {name: p.gradient.array.copy() for name, p in named.items()}
    for p in named.values():
        p.zero_grad()

    gc.disable()
    try:
        tape = Tape()
        loss = sample_loss(tape)
        alive = weakref.ref(tape)
        pairs = tape.param_gradients(loss)
        del tape, loss
        assert alive() is None
    finally:
        gc.enable()

    assert all(not p.gradient.array.any() for p in named.values())
    assert [p.name for p, _ in pairs] == list(named)
    for p, g in pairs:
        assert g.shape == p.value.shape
        assert (np.zeros(g.shape) + g).tobytes() == deposited[p.name].tobytes(), p.name


def test_backward_before_forward_is_state_error():
    tape = Tape()
    x = tape.watch(np.array(1.0))
    with pytest.raises(GraphStateError):
        tape.backward(x)


def test_backward_rejects_non_scalar_loss():
    tape = Tape()
    x = tape.watch(np.ones(3))
    y = ops.mul(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_mixing_two_tapes_is_state_error():
    t1, t2 = Tape(), Tape()
    a = t1.watch(np.ones(2))
    b = t2.watch(np.ones(2))
    with pytest.raises(GraphStateError):
        ops.add(a, b)


def test_backward_is_deterministic():
    r = np.random.default_rng(3)
    x0 = r.normal(size=(5, 4))
    outs = []
    for _ in range(2):
        tape = Tape()
        x = tape.watch(x0)
        loss = ops.total_sum(ops.sigmoid(ops.matmul(x, Tensor(r.standard_normal((4, 2)) * 0 + 1.0))))
        outs.append(tape.backward(loss).of(x).copy())
    assert np.array_equal(outs[0], outs[1])


def _fd_check(build, x0, atol=1e-8, rtol=1e-5, n_probe=10, seed=0):
    """Compare tape gradients to central differences at sampled entries."""
    x0 = np.array(x0, dtype=np.float64)
    tape = Tape()
    x = tape.watch(x0)
    loss = build(x)
    got = tape.backward(loss).of(x).reshape(-1)

    work = x0.copy()
    idx = np.random.default_rng(seed).choice(work.size, size=min(n_probe, work.size), replace=False)
    fd = oracles.finite_difference(lambda: build(Tensor(work)).item(), work, idx)
    assert_allclose(got[idx], fd, atol=atol, rtol=rtol)


class TestPerOpGradients:
    r = np.random.default_rng(7)

    def test_relu(self):
        # keep entries away from the kink
        x = self.r.normal(size=(4, 5))
        x[np.abs(x) < 1e-3] += 0.1
        _fd_check(lambda v: ops.total_sum(ops.relu(v)), x)

    def test_sigmoid(self):
        _fd_check(lambda v: ops.total_sum(ops.sigmoid(v)), self.r.normal(size=(3, 4)))

    def test_softplus(self):
        _fd_check(lambda v: ops.total_sum(ops.softplus(v)), self.r.normal(size=(6,)))

    def test_mul_div_chain(self):
        x = self.r.normal(size=(3, 3)) + 3.0
        _fd_check(lambda v: ops.total_sum(ops.div(ops.mul(v, v), ops.add(v, 10.0))), x)

    def test_scale_and_sub(self):
        _fd_check(lambda v: ops.total_sum(ops.sub(ops.scale(v, 2.5), 1.0)), self.r.normal(size=(5,)))

    def test_matmul_both_sides(self):
        b = self.r.normal(size=(4, 3))
        _fd_check(lambda v: ops.total_sum(ops.matmul(v, Tensor(b))), self.r.normal(size=(5, 4)))
        a = self.r.normal(size=(5, 4))
        _fd_check(lambda v: ops.total_sum(ops.matmul(Tensor(a), v)), self.r.normal(size=(4, 3)))

    def test_softmax_columns(self):
        w = self.r.normal(size=(5, 4))

        def build(v):
            return ops.total_sum(ops.mul(ops.softmax_columns(v), Tensor(w)))

        _fd_check(build, self.r.normal(size=(5, 4)))

    def test_conv2d_input_weights_bias(self):
        x0 = self.r.normal(size=(6, 7, 2))
        w0 = self.r.normal(size=(3, 3, 2, 3))
        b0 = self.r.normal(size=3)
        probe = self.r.normal(size=(6, 7, 3))

        def loss_from(x, w, b):
            return ops.total_sum(ops.mul(ops.conv2d(x, w, b, stride=1, pad=1), Tensor(probe)))

        _fd_check(lambda v: loss_from(v, Tensor(w0), Tensor(b0)), x0)
        _fd_check(lambda v: loss_from(Tensor(x0), v, Tensor(b0)), w0)
        _fd_check(lambda v: loss_from(Tensor(x0), Tensor(w0), v), b0, n_probe=3)

    def test_conv2d_stride_two(self):
        x0 = self.r.normal(size=(7, 7, 1))
        w0 = self.r.normal(size=(3, 3, 1, 2))
        probe = self.r.normal(size=(4, 4, 2))

        def build(v):
            return ops.total_sum(ops.mul(ops.conv2d(v, Tensor(w0), Tensor(np.zeros(2)), stride=2, pad=1), Tensor(probe)))

        _fd_check(build, x0)

    def test_bilinear_resize_up_and_down(self):
        probe_up = self.r.normal(size=(9, 10, 2))
        probe_down = self.r.normal(size=(3, 4, 2))
        x0 = self.r.normal(size=(6, 8, 2))
        _fd_check(lambda v: ops.total_sum(ops.mul(ops.bilinear_resize(v, 9, 10), Tensor(probe_up))), x0)
        _fd_check(lambda v: ops.total_sum(ops.mul(ops.bilinear_resize(v, 3, 4), Tensor(probe_down))), x0)

    def test_concat_and_reshape(self):
        x0 = self.r.normal(size=(3, 4, 2))
        other = Tensor(self.r.normal(size=(3, 4, 1)))
        probe = self.r.normal(size=(3, 4, 3))

        def build(v):
            joined = ops.concat_channels([v, other])
            return ops.total_sum(ops.mul(joined, Tensor(probe)))

        _fd_check(build, x0)

    def test_transpose_gradient(self):
        probe = self.r.normal(size=(4, 3))
        _fd_check(lambda v: ops.total_sum(ops.mul(ops.transpose(v), Tensor(probe))), self.r.normal(size=(3, 4)))

    def test_softmax_match(self):
        # the (C, N) output of a 6-pixel grid with 3 channels, through both operands
        probe = Tensor(self.r.normal(size=(3, 6)))
        tar = self.r.normal(size=(6, 3))
        _fd_check(lambda v: ops.total_sum(ops.mul(ops.softmax_match(v, Tensor(tar)), probe)), self.r.normal(size=(6, 3)))
        ref = self.r.normal(size=(6, 3))
        _fd_check(lambda v: ops.total_sum(ops.mul(ops.softmax_match(Tensor(ref), v), probe)), self.r.normal(size=(6, 3)))


@pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (3, 1, 0), (1, 1, 0), (1, 1, 1), (5, 2, 2)])
def test_conv2d_adjoints_match_loop_oracle(k, stride, pad):
    # conv2d is linear in x and in w, so the adjoint of <conv2d, probe> at
    # each entry is the oracle's response to a unit input at that entry
    local = np.random.default_rng(k * 100 + stride * 10 + pad)
    x = local.normal(size=(5, 7, 2))
    w = local.normal(size=(k, k, 2, 3))
    b = local.normal(size=3)
    tape = Tape()
    xv, wv, bv = tape.watch(x), tape.watch(w), tape.watch(b)
    out = ops.conv2d(xv, wv, bv, stride=stride, pad=pad)
    probe = local.normal(size=out.shape)
    grads = tape.backward(ops.total_sum(ops.mul(out, Tensor(probe))))

    def unit_responses(shape, conv_of_unit):
        ref = np.zeros(shape)
        for idx in np.ndindex(*shape):
            unit = np.zeros(shape)
            unit[idx] = 1.0
            ref[idx] = np.sum(conv_of_unit(unit) * probe)
        return ref

    zero_b = np.zeros(3)
    dx = unit_responses(x.shape, lambda u: oracles.conv2d_loops(u, w, zero_b, stride=stride, pad=pad))
    dw = unit_responses(w.shape, lambda u: oracles.conv2d_loops(x, u, zero_b, stride=stride, pad=pad))
    assert_allclose(grads.of(xv), dx, atol=1e-12, rtol=0)
    assert_allclose(grads.of(wv), dw, atol=1e-12, rtol=0)
    assert_allclose(grads.of(bv), probe.sum(axis=(0, 1)), atol=1e-12, rtol=0)
