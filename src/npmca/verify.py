"""Self-contained invariant suite behind ``npmca verify``.

Checks compare the vectorized code against the loop reference
implementations in ``npmca.oracles`` (the same ones the tests use) or
against hand-derived values, so the suite stays meaningful without the
development test tree. Checks call the public modules through their
namespaces, so a regression anywhere in the package is caught here rather
than papered over by stale local aliases.
"""

import io
import os
import tempfile

import numpy as np

from . import attention, matching, ops, oracles, propagation
from .autodiff import Tape
from .datagen import sample_triplet_indices
from .matching import FeatureMap
from .metrics import contour_f, iou_loss, region_j
from .model import ModelConfig, forward_single_object, init_model_params, load_checkpoint, save_checkpoint
from .netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from .rng import make_rng
from .tensor import Tensor


class CheckResult:
    def __init__(self, name: str, ok: bool, measured: str, threshold: str):
        self.name = name
        self.ok = ok
        self.measured = measured
        self.threshold = threshold

    def line(self) -> str:
        flag = "ok  " if self.ok else "FAIL"
        return f"[{flag}] {self.name:<34} measured {self.measured} vs {self.threshold}"


# --- checks --------------------------------------------------------------------


def check_matmul_oracle() -> CheckResult:
    rng = make_rng(101)
    a, b = rng.standard_normal((12, 9)), rng.standard_normal((9, 7))
    diff = float(np.abs(ops.matmul(Tensor(a), Tensor(b)).array - oracles.matmul_loops(a, b)).max())
    return CheckResult("matmul_loop_oracle", diff < 1e-10, f"{diff:.2e}", "< 1e-10")


def check_softmax_stochastic() -> CheckResult:
    rng = make_rng(102)
    worst = 0.0
    for scale in (1.0, 50.0, 500.0):
        block = rng.standard_normal((8, 350)) * scale
        out = ops.softmax_columns(Tensor(block)).array
        if not np.isfinite(out).all():
            return CheckResult("softmax_column_stochastic", False, "non-finite output", "sums within 1e-9 of 1")
        worst = max(worst, float(np.abs(out.sum(axis=0) - 1.0).max()))
    return CheckResult("softmax_column_stochastic", worst <= 1e-9, f"{worst:.2e}", "<= 1e-9")


def check_softmax_shift_invariance() -> CheckResult:
    rng = make_rng(103)
    x = rng.standard_normal((6, 10))
    a = ops.softmax_columns(Tensor(x)).array
    b = ops.softmax_columns(Tensor(x + 37.5)).array
    diff = float(np.abs(a - b).max())
    return CheckResult("softmax_shift_invariance", diff < 1e-12, f"{diff:.2e}", "< 1e-12")


def check_conv2d_oracle() -> CheckResult:
    rng = make_rng(104)
    x = rng.standard_normal((7, 9, 3))
    w = rng.standard_normal((3, 3, 3, 4))
    b = rng.standard_normal(4)
    got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1).array
    diff = float(np.abs(got - oracles.conv2d_loops(x, w, b, 2, 1)).max())
    return CheckResult("conv2d_loop_oracle", diff < 1e-10, f"{diff:.2e}", "< 1e-10")


def check_conv2d_same_padding() -> CheckResult:
    rng = make_rng(105)
    x = Tensor(rng.standard_normal((10, 12, 2)))
    ok = True
    for k in (1, 3, 5):
        w = Tensor(rng.standard_normal((k, k, 2, 2)))
        out = ops.conv2d(x, w, Tensor(np.zeros(2)), stride=1, pad=(k - 1) // 2)
        ok = ok and out.shape[:2] == (10, 12)
    return CheckResult("conv2d_same_padding_shape", ok, "sizes preserved" if ok else "size drifted", "k in {1,3,5}")


def check_bilinear_identity_and_hand_case() -> CheckResult:
    rng = make_rng(106)
    x = rng.standard_normal((5, 7, 2))
    same = ops.bilinear_resize(Tensor(x), 5, 7).array
    hand = ops.bilinear_resize(Tensor(np.array([[[0.0], [1.0]]])), 1, 4).array[0, :, 0]
    diff = max(
        float(np.abs(same - x).max()),
        float(np.abs(hand - np.array([0.0, 0.25, 0.75, 1.0])).max()),
    )
    return CheckResult("bilinear_identity_and_hand_case", diff < 1e-12, f"{diff:.2e}", "< 1e-12")


def check_backward_sum_of_squares() -> CheckResult:
    tape = Tape()
    x = tape.watch(np.array([1.0, 2.0]))
    grads = tape.backward(ops.total_sum(ops.mul(x, x)))
    diff = float(np.abs(grads.of(x) - np.array([2.0, 4.0])).max())
    return CheckResult("backward_sum_of_squares", diff < 1e-12, f"{diff:.2e}", "< 1e-12")


def check_backward_matmul_adjoint() -> CheckResult:
    rng = make_rng(107)
    a_val, b_val = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
    tape = Tape()
    a = tape.watch(a_val)
    grads = tape.backward(ops.total_sum(ops.matmul(a, Tensor(b_val))))
    diff = float(np.abs(grads.of(a) - np.ones((4, 3)) @ b_val.T).max())
    return CheckResult("backward_matmul_adjoint", diff < 1e-12, f"{diff:.2e}", "< 1e-12")


def check_model_gradient_audit() -> CheckResult:
    rng = make_rng(108)
    params = init_model_params(11, ModelConfig(stage_channels=(4, 6, 8)))
    params.cm_first.raw_gamma.value = Tensor(np.asarray(0.5))
    params.cm_prev.raw_gamma.value = Tensor(np.asarray(0.5))
    first, prev, cur = (rng.uniform(size=(8, 8, 3)) for _ in range(3))
    guid = rng.uniform(size=(8, 8))
    n_px = 64.0

    def run_loss():
        p = forward_single_object(params, first, prev, cur, guid)
        return float(np.sum(p.array**2)) / n_px

    tape = Tape()
    prob = forward_single_object(params, first, prev, cur, guid, tape=tape)
    tape.backward(ops.scale(ops.total_sum(ops.mul(prob, prob)), 1.0 / n_px))
    worst = 0.0
    for p in params.named_parameters().values():
        flat = p.gradient.array.reshape(-1)
        idx = int(np.abs(flat).argmax())
        fd = oracles.finite_difference(run_loss, p.value.array, [idx])[0]
        worst = max(worst, oracles.relative_error(flat[idx], fd))
    return CheckResult("model_gradient_audit_small", worst < 1e-5, f"{worst:.2e}", "< 1e-5")


def _random_nlpmm(rng, channels=8):
    f_ref = FeatureMap(Tensor(rng.standard_normal((4, 5, channels))))
    f_tar = FeatureMap(Tensor(rng.standard_normal((4, 5, channels))))
    params = matching.init_nlpmm_params(rng, channels, "check")
    return f_ref, f_tar, params


def check_nlpmm_oracle() -> CheckResult:
    rng = make_rng(109)
    f_ref, f_tar, params = _random_nlpmm(rng)
    got = matching.nlpmm_forward(f_ref, f_tar, params).tensor.array
    want = oracles.nlpmm_loops(
        f_ref.tensor.array, f_tar.tensor.array,
        params.reduce_ref_w.value.array, params.reduce_ref_b.value.array,
        params.reduce_tar_w.value.array, params.reduce_tar_b.value.array,
    )
    diff = float(np.abs(got - want).max())
    return CheckResult("nlpmm_monolithic_oracle", diff < 1e-10, f"{diff:.2e}", "< 1e-10")


def check_nlpmm_convex_hull() -> CheckResult:
    rng = make_rng(110)
    worst = 0.0
    for _ in range(20):
        f_ref, f_tar, params = _random_nlpmm(rng)
        reduced = matching.reduce_channels(f_ref, params.reduce_ref_w.value, params.reduce_ref_b.value)
        flat = reduced.tensor.array.reshape(20, 2)
        out = matching.nlpmm_forward(f_ref, f_tar, params).tensor.array.reshape(20, 2)
        over = float((out - flat.max(axis=0)).max())
        under = float((flat.min(axis=0) - out).max())
        worst = max(worst, over, under)
    return CheckResult("nlpmm_convex_hull", worst <= 1e-9, f"{worst:.2e}", "<= 1e-9")


def check_similarity_permutation() -> CheckResult:
    rng = make_rng(111)
    ref = Tensor(rng.standard_normal((12, 3)))
    tar = Tensor(rng.standard_normal((12, 3)))
    perm = rng.permutation(12)
    base = ops.softmax_match(ref, tar).array
    diff = float(np.abs(ops.softmax_match(Tensor(ref.array[perm]), tar).array - base).max())
    return CheckResult("similarity_permutation_invariance", diff < 1e-12, f"{diff:.2e}", "< 1e-12")


def check_cm_oracle() -> CheckResult:
    rng = make_rng(112)
    f_in = FeatureMap(Tensor(rng.standard_normal((4, 5, 4))))
    state = attention.init_cm_state("check", raw=0.3)
    got = attention.cm_forward(f_in, state).tensor.array
    want = oracles.cm_loops(f_in.tensor.array, state.gamma())
    diff = float(np.abs(got - want).max())
    return CheckResult("cm_monolithic_oracle", diff < 1e-10, f"{diff:.2e}", "< 1e-10")


def check_cm_gamma_zero_identity() -> CheckResult:
    rng = make_rng(113)
    f_in = FeatureMap(Tensor(rng.standard_normal((3, 6, 4))))
    state = attention.init_cm_state("check", raw=attention.RAW_GAMMA_ZERO)
    out = attention.cm_forward(f_in, state).tensor.array
    exact = bool(np.array_equal(out, f_in.tensor.array)) and state.gamma() == 0.0
    return CheckResult("cm_gamma_zero_identity", exact, "bitwise identical" if exact else "differs", "exact")


def check_gram_psd() -> CheckResult:
    rng = make_rng(114)
    flat = Tensor(rng.standard_normal((30, 6)))
    gram = ops.matmul(ops.transpose(flat), flat).array
    sym = float(np.abs(gram - gram.T).max())
    eig = float(np.linalg.eigvalsh(gram).min())
    ok = sym < 1e-12 and eig >= -1e-9
    return CheckResult("gram_symmetry_psd", ok, f"asym {sym:.1e}, min eig {eig:.1e}", "sym < 1e-12, eig >= -1e-9")


def check_aggregation_distribution() -> CheckResult:
    rng = make_rng(115)
    worst = 0.0
    argmax_ok = True
    for m in (1, 2, 3):
        stack = rng.uniform(0.01, 0.99, size=(m, 6, 5))
        out = propagation.aggregate_multi_object(stack)
        worst = max(worst, float(np.abs(out.probabilities.sum(axis=0) - 1.0).max()))
        argmax_ok = argmax_ok and np.array_equal(out.probabilities[1:].argmax(axis=0), stack.argmax(axis=0))
    ok = worst <= 1e-9 and argmax_ok
    return CheckResult("aggregation_distribution", ok, f"sum dev {worst:.2e}, argmax {'kept' if argmax_ok else 'broken'}", "<= 1e-9, kept")


def check_aggregation_hand_case() -> CheckResult:
    out = propagation.aggregate_multi_object(np.array([[[0.2]], [[0.8]]]))
    want = np.array([0.042896, 0.056300, 0.900804])
    diff = float(np.abs(out.probabilities[:, 0, 0] - want).max())
    return CheckResult("aggregation_hand_case", diff < 1e-6, f"{diff:.2e}", "< 1e-6")


def check_metrics_identities() -> CheckResult:
    a = np.zeros((10, 10), dtype=int)
    a[2:6, 2:6] = 1
    half = np.zeros((10, 10), dtype=int)
    half[2:6, 2:4] = 1
    disjoint = np.zeros((10, 10), dtype=int)
    disjoint[7:9, 7:9] = 1
    ok = (
        region_j(a, a, 1) == 1.0
        and contour_f(a, a, 1) == 1.0
        and region_j(a, disjoint, 1) == 0.0
        and contour_f(np.zeros_like(a), a, 1) == 0.0
        and region_j(half, a, 1) == 0.5
    )
    return CheckResult("metrics_identities", ok, "all identities hold" if ok else "an identity broke", "exact")


def check_iou_loss_gradient() -> CheckResult:
    rng = make_rng(116)
    gt = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
    values = rng.uniform(0.1, 0.9, size=(8, 8))

    def run():
        return iou_loss(Tensor(values), gt).item()

    tape = Tape()
    pred = tape.watch(values)
    grads = tape.backward(iou_loss(pred, gt))
    flat = grads.of(pred).reshape(-1)
    idx = range(0, 64, 9)
    fd = oracles.finite_difference(run, values, idx)
    worst = max(oracles.relative_error(flat[i], d) for i, d in zip(idx, fd))
    return CheckResult("iou_loss_gradient", worst < 1e-6, f"{worst:.2e}", "< 1e-6")


def check_checkpoint_roundtrip() -> CheckResult:
    params = init_model_params(3, ModelConfig(stage_channels=(4, 4, 8)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(path, params)
        other = init_model_params(4, ModelConfig(stage_channels=(4, 4, 8)))
        load_checkpoint(path, other)
    diff = 0.0
    for name, p in params.named_parameters().items():
        q = other.named_parameters()[name]
        if not np.array_equal(p.value.array, q.value.array):
            diff = max(diff, float(np.abs(p.value.array - q.value.array).max()))
    return CheckResult("checkpoint_roundtrip", diff == 0.0, f"{diff:.2e}", "bit-exact")


def check_netpbm_roundtrip() -> CheckResult:
    rng = make_rng(117)
    mask = rng.integers(0, 5, size=(9, 11)).astype(np.uint8)
    rgb = np.round(rng.uniform(size=(6, 7, 3)) * 255.0) / 255.0
    with tempfile.TemporaryDirectory() as tmp:
        write_pgm(os.path.join(tmp, "m.pgm"), mask)
        write_ppm(os.path.join(tmp, "i.ppm"), rgb)
        mask_back = read_pgm(os.path.join(tmp, "m.pgm"))
        rgb_back = read_ppm(os.path.join(tmp, "i.ppm"))
    ok = np.array_equal(mask_back, mask) and np.allclose(rgb_back, rgb, atol=1e-12)
    return CheckResult("netpbm_roundtrip", ok, "round trip exact" if ok else "round trip drifted", "exact")


def check_triplet_sampling_bounds() -> CheckResult:
    rng = make_rng(118)
    violations = 0
    for _ in range(2000):
        frames = int(rng.integers(3, 12))
        skip = int(rng.integers(1, 7))
        first, middle, last = sample_triplet_indices(frames, skip, rng)
        if not (first == 0 < middle < last <= frames - 1 and last - middle <= skip):
            violations += 1
    return CheckResult("triplet_sampling_bounds", violations == 0, f"{violations} violations", "0 violations")


ALL_CHECKS = (
    check_matmul_oracle,
    check_softmax_stochastic,
    check_softmax_shift_invariance,
    check_conv2d_oracle,
    check_conv2d_same_padding,
    check_bilinear_identity_and_hand_case,
    check_backward_sum_of_squares,
    check_backward_matmul_adjoint,
    check_model_gradient_audit,
    check_nlpmm_oracle,
    check_nlpmm_convex_hull,
    check_similarity_permutation,
    check_cm_oracle,
    check_cm_gamma_zero_identity,
    check_gram_psd,
    check_aggregation_distribution,
    check_aggregation_hand_case,
    check_metrics_identities,
    check_iou_loss_gradient,
    check_checkpoint_roundtrip,
    check_netpbm_roundtrip,
    check_triplet_sampling_bounds,
)


def run_suite(stream=None) -> bool:
    stream = stream if stream is not None else io.StringIO()
    results = []
    for check in ALL_CHECKS:
        try:
            result = check()
        except Exception as exc:  # a crash is a failure, not a skip
            result = CheckResult(check.__name__.removeprefix("check_"), False, f"raised {exc!r}", "no exception")
        results.append(result)
        stream.write(result.line() + "\n")
    passed = sum(r.ok for r in results)
    stream.write(f"{passed}/{len(results)} checks passed\n")
    return passed == len(results)
