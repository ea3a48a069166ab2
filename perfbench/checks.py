"""Correctness checks the benchmark runs outside its timed region.

The reference implementations here are written from the formulas the
package documents, not from its code: a tap-by-tap cross-correlation, a
gather-based half-pixel bilinear resize, a column softmax, the matching and
channel-attention blocks built from those, and the odds-ratio merge. Every
check returns ``(ok, detail)``; ``selftest.py`` shows that each one fails on
a deliberately perturbed output.
"""

import numpy as np

# Reference agreement: max |program - reference| <= REF_TOL * max(1, max |reference|).
# The two sides sum in different orders, so exact equality is not expected.
REF_TOL = 1e-9
# Per-pixel distributions must sum to one within the tolerance of criteria 3 and 6.
SUM_TOL = 1e-9
# Gradient audit: the relative error and step of criterion 5.
FD_TOL = 1e-5
FD_STEP = 1e-6


def array_of(x) -> np.ndarray:
    """The numpy array behind a Tensor, a FeatureMap, or an array."""
    x = getattr(x, "tensor", x)
    return np.asarray(getattr(x, "array", x), dtype=np.float64)


def _agree(name: str, got, want) -> tuple[bool, str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False, f"{name}: shape {got.shape} vs reference {want.shape}"
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    diff = float(np.max(np.abs(got - want))) if want.size else 0.0
    ok = bool(np.isfinite(diff)) and diff <= REF_TOL * scale
    return ok, f"{name}: max abs diff {diff:.3e} (tol {REF_TOL * scale:.3e})"


# -- reference implementations -------------------------------------------------


def ref_conv2d(x, w, b, stride=1, pad=0) -> np.ndarray:
    """out[y, x, o] = b[o] + sum_{i, j, c} xpad[y*s + i, x*s + j, c] * w[i, j, c, o]."""
    x, w, b = array_of(x), array_of(w), array_of(b)
    h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    xp = np.zeros((h + 2 * pad, wd + 2 * pad, cin))
    xp[pad : pad + h, pad : pad + wd] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.tile(b, (oh, ow, 1))
    for i in range(kh):
        for j in range(kw):
            window = xp[i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride]
            out += np.einsum("yxc,co->yxo", window, w[i, j])
    return out


def _half_pixel_taps(n_in: int, n_out: int):
    src = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, src - lo


def ref_bilinear_resize(x, out_h: int, out_w: int) -> np.ndarray:
    """Output pixel i samples source position (i + 0.5) * n_in / n_out - 0.5, clamped."""
    x = array_of(x)
    y0, y1, fy = _half_pixel_taps(x.shape[0], int(out_h))
    x0, x1, fx = _half_pixel_taps(x.shape[1], int(out_w))
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = x[y0][:, x0] * (1 - fx) + x[y0][:, x1] * fx
    bottom = x[y1][:, x0] * (1 - fx) + x[y1][:, x1] * fx
    return top * (1 - fy) + bottom * fy


def ref_softmax_columns(m) -> np.ndarray:
    m = array_of(m)
    e = np.exp(m - m.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def ref_nlpmm(f_ref, f_tar, params) -> np.ndarray:
    """Reduce both maps to C/4, S = ref @ tar^T, column softmax, blend reference rows."""
    r = ref_conv2d(f_ref, params.reduce_ref_w.value, params.reduce_ref_b.value, 1, 1)
    t = ref_conv2d(f_tar, params.reduce_tar_w.value, params.reduce_tar_b.value, 1, 1)
    h, w, c4 = t.shape
    ref_flat = r.reshape(h * w, c4)
    weights = ref_softmax_columns(ref_flat @ t.reshape(h * w, c4).T)
    return (ref_flat.T @ weights).T.reshape(h, w, c4)


def ref_cm(f_in, state) -> np.ndarray:
    """out = gamma * (flat @ softmax_columns(flat^T flat)) + flat."""
    x = array_of(f_in)
    h, w, c = x.shape
    flat = x.reshape(h * w, c)
    attention = ref_softmax_columns(flat.T @ flat)
    return (state.gamma() * (flat @ attention) + flat).reshape(h, w, c)


def ref_aggregate(per_object, eps: float):
    """Background = product of complements; odds of every clamped map, normalized."""
    p = np.clip(array_of(per_object), eps, 1.0 - eps)
    background = np.clip(np.prod(1.0 - p, axis=0), eps, 1.0 - eps)
    stacked = np.concatenate([background[None], p], axis=0)
    odds = stacked / (1.0 - stacked)
    probs = odds / odds.sum(axis=0, keepdims=True)
    return probs, probs.argmax(axis=0)


# -- checks against the references ----------------------------------------------


def check_conv2d(args, kwargs, out):
    call = dict(zip(("x", "w", "b", "stride", "pad"), args), **kwargs)
    return _agree("ops.conv2d", array_of(out), ref_conv2d(**call))


def check_bilinear_resize(args, kwargs, out):
    call = dict(zip(("x", "out_h", "out_w"), args), **kwargs)
    return _agree("ops.bilinear_resize", array_of(out), ref_bilinear_resize(**call))


def check_softmax_columns(args, kwargs, out):
    return _agree("ops.softmax_columns", array_of(out), ref_softmax_columns(args[0]))


def check_nlpmm(args, kwargs, out):
    return _agree("matching.nlpmm_forward", array_of(out), ref_nlpmm(args[0], args[1], args[2]))


def check_cm(args, kwargs, out):
    return _agree("attention.cm_forward", array_of(out), ref_cm(args[0], args[1]))


def check_aggregate(args, kwargs, out, default_eps):
    eps = args[1] if len(args) > 1 else kwargs.get("eps", default_eps)
    probs, labels = ref_aggregate(args[0], eps)
    ok, detail = _agree("propagation.aggregate_multi_object", out.probabilities, probs)
    same = bool(np.array_equal(out.labels, labels))
    return ok and same, detail + ("" if same else "; labels differ from the reference argmax")


REFERENCE_CHECKS = {
    "conv2d": check_conv2d,
    "bilinear_resize": check_bilinear_resize,
    "softmax_columns": check_softmax_columns,
    "nlpmm_forward": check_nlpmm,
    "cm_forward": check_cm,
}


# -- checks on inference outputs ---------------------------------------------------


def check_echo(masks, first_mask):
    ok = bool(np.array_equal(masks[0], first_mask))
    return ok, "frame 0 echoes the given mask" if ok else "frame 0 differs from the given mask"


def check_stacks(stacks):
    worst_sum = 0.0
    low, high = np.inf, -np.inf
    for stack in stacks:
        worst_sum = max(worst_sum, float(np.max(np.abs(stack.sum(axis=0) - 1.0))))
        low = min(low, float(stack.min()))
        high = max(high, float(stack.max()))
    ok = worst_sum <= SUM_TOL and low >= 0.0 and high <= 1.0 and np.isfinite(worst_sum)
    return bool(ok), f"stacks in [{low:.3g}, {high:.3g}], pixel sums off by {worst_sum:.3e} (tol {SUM_TOL})"


def check_labels(masks, stacks, object_ids):
    ids = np.asarray([0] + list(object_ids))
    for t, (mask, stack) in enumerate(zip(masks, stacks)):
        if not np.array_equal(mask, ids[stack.argmax(axis=0)]):
            return False, f"frame {t}: labels differ from the argmax mapped to ids {ids.tolist()}"
        extra = set(np.unique(mask).tolist()) - set(ids.tolist())
        if extra:
            return False, f"frame {t}: unexpected labels {sorted(extra)}"
    return True, f"labels equal the argmax over {len(masks)} frames"


# -- checks on training outputs ----------------------------------------------------


def check_losses(losses):
    arr = np.asarray(losses, dtype=np.float64)
    ok = arr.size > 0 and bool(np.all(np.isfinite(arr))) and bool(np.all((arr >= 0.0) & (arr <= 1.0)))
    return ok, f"{arr.size} batch losses in [{arr.min():.4f}, {arr.max():.4f}]" if arr.size else "no losses"


def check_loss_falls(losses, part: int):
    first = float(np.mean(losses[:part]))
    last = float(np.mean(losses[-part:]))
    return last < first, f"mean loss of the first {part} steps {first:.4f}, of the last {part} {last:.4f}"


def relative_error(a: float, b: float, floor: float = 1e-4) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def relu_region_loss(npmca, compute):
    """Wrap a scalar loss so it also reports which ReLU inputs were positive.

    ReLU is the only kink on the training path, so two points with the same
    pattern lie on one smooth piece of the loss.
    """

    def evaluate():
        pattern = []
        relu = npmca.ops.relu

        def watched(x):
            pattern.append(np.packbits(array_of(x) > 0.0).tobytes())
            return relu(x)

        npmca.ops.relu = watched
        try:
            value = compute()
        finally:
            npmca.ops.relu = relu
        return value, tuple(pattern)

    return evaluate


def check_gradients(groups, loss_fn, coords: int = 2, candidates: int = 64):
    """Central differences at each group's largest-magnitude gradient entries.

    ``groups`` maps a name to (values, gradient); ``values`` is perturbed in
    place around each evaluation and restored afterwards. ``loss_fn``
    returns (loss, region). A coordinate whose +-step leaves the region of
    the unperturbed point straddles a kink, where the one-sided adjoint and
    central differences disagree by definition; it is passed over for the
    next largest, among the first ``candidates``.
    """
    _, region = loss_fn()
    worst, worst_name, skipped = 0.0, "", 0
    for name, (values, gradient) in groups.items():
        flat = values.reshape(-1)
        grad = gradient.reshape(-1)
        needed = min(coords, grad.size)
        probed = 0
        for idx in np.argsort(-np.abs(grad), kind="stable")[:candidates]:
            keep = flat[idx]
            flat[idx] = keep + FD_STEP
            up, up_region = loss_fn()
            flat[idx] = keep - FD_STEP
            down, down_region = loss_fn()
            flat[idx] = keep
            if up_region != region or down_region != region:
                skipped += 1
                continue
            err = relative_error(grad[idx], (up - down) / (2.0 * FD_STEP))
            if not err <= worst:
                worst, worst_name = err, name
            probed += 1
            if probed == needed:
                break
        if probed < needed:
            return False, f"{name}: only {probed} of its {candidates} largest coordinates are clear of a kink"
    ok = worst <= FD_TOL
    return ok, (f"{len(groups)} parameter groups, up to {coords} coordinates each ({skipped} passed over at a kink), "
                f"worst rel err {worst:.2e} at {worst_name} (tol {FD_TOL})")


def check_repeat(name: str, runs):
    """Every run's arrays equal the first run's, bit for bit."""
    first = runs[0]
    for k, other in enumerate(runs[1:], start=2):
        if len(other) != len(first) or not all(
            np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(first, other)
        ):
            return False, f"{name}: run {k} differs from run 1"
    return len(runs) >= 2, f"{name}: {len(runs)} runs identical bit for bit"
