"""Differentiable array operations.

Every function computes a plain numpy forward result and, when an operand
is bound to a recording tape, registers the matching adjoint rule. Scalars
and unbound tensors act as constants. Elementwise arithmetic supports two
operand layouts only: identical shapes, or one operand with a single
element broadcast against the other.

``softmax_match`` is the model's non-local match as one primitive: bit for
bit the composition of ``matmul``, ``transpose`` and ``softmax_columns``,
in one N x N buffer and one tape node instead of five.

Inside ``row_halves``, each untaped product of the thread that entered it
(the ``conv2d`` forward GEMM, ``matmul`` and both GEMMs of
``softmax_match``) is computed by one partition rule that reads only its
shape: an output of at least ``HALVES_MIN_ROWS`` rows as two fixed row
halves, one with fewer rows but at least that many columns as two fixed
column halves, any other whole. The softmax steps of ``softmax_match``
follow the same row rule. The halves do not depend on whether a helper
thread was lent, so no bit depends on the CPU count: a helper computes
the lower half while the caller computes the upper one; without one,
the caller computes both in order. Each half is written into the one
output buffer the caller allocated.
"""

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from functools import lru_cache, reduce

import numpy as np

from . import blas
from .autodiff import resolve_tape
from .errors import NumericError, ShapeError
from .tensor import Tensor


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    return np.asarray(grad.sum()).reshape(shape)


def _binary(name, a, b, forward, vjp_a, vjp_b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    A, B = a.array, b.array
    if A.shape != B.shape and A.size != 1 and B.size != 1:
        raise ShapeError(f"{name}: incompatible shapes {A.shape} and {B.shape}")
    out = forward(A, B)
    tape = resolve_tape(a, b)
    if tape is None:
        return Tensor(out)

    def vjp(g):
        return (
            _unbroadcast(vjp_a(g, A, B), A.shape),
            _unbroadcast(vjp_b(g, A, B), B.shape),
        )

    return tape.record(name, (a, b), out, vjp)


def add(a, b) -> Tensor:
    return _binary("add", a, b, lambda A, B: A + B, lambda g, A, B: g, lambda g, A, B: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, lambda A, B: A - B, lambda g, A, B: g, lambda g, A, B: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, lambda A, B: A * B, lambda g, A, B: g * B, lambda g, A, B: g * A)


def div(a, b) -> Tensor:
    """Elementwise quotient; the caller keeps the denominator away from zero."""
    return _binary(
        "div",
        a,
        b,
        lambda A, B: A / B,
        lambda g, A, B: g / B,
        lambda g, A, B: -g * A / (B * B),
    )


def scale(x, factor: float) -> Tensor:
    """Multiply by a constant scalar (the constant is not differentiated)."""
    x = _as_tensor(x)
    c = float(factor)
    out = x.array * c
    tape = resolve_tape(x)
    if tape is None:
        return Tensor(out)
    return tape.record("scale", (x,), out, lambda g: (g * c,))


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.array, 0.0)
    tape = resolve_tape(x)
    if tape is None:
        return Tensor(out)
    mask = x.array > 0.0
    return tape.record("relu", (x,), out, lambda g: (g * mask,))


def _sigmoid(arr: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so no overflow for any input
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    out = _sigmoid(x.array)
    tape = resolve_tape(x)
    if tape is None:
        return Tensor(out)
    return tape.record("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def softplus(x) -> Tensor:
    """log(1 + exp(x)), evaluated without overflow."""
    x = _as_tensor(x)
    out = np.logaddexp(0.0, x.array)
    tape = resolve_tape(x)
    if tape is None:
        return Tensor(out)
    x_arr = x.array  # not x: a closure over a taped input would tie its tape into a cycle
    return tape.record("softplus", (x,), out, lambda g: (g * _sigmoid(x_arr),))


def total_sum(x) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    x = _as_tensor(x)
    out = np.asarray(x.array.sum())
    tape = resolve_tape(x)
    if tape is None:
        return Tensor(out)
    shape = x.shape
    return tape.record("total_sum", (x,), out, lambda g: (np.broadcast_to(g, shape),))


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    n = int(np.prod(shape)) if shape else 1
    if n != x.size:
        raise ShapeError(f"cannot reshape {x.shape} into {shape}")
    out = x.array.reshape(shape)
    tape = resolve_tape(x)
    if tape is None:
        return Tensor(out)
    old = x.shape
    return tape.record("reshape", (x,), out, lambda g: (g.reshape(old),))


def transpose(x) -> Tensor:
    """Swap the two axes of a matrix."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {x.shape}")
    out = x.array.T
    tape = resolve_tape(x)
    if tape is None:
        return Tensor(out)
    return tape.record("transpose", (x,), out, lambda g: (g.T,))


def concat_channels(parts) -> Tensor:
    """Concatenate rank-3 tensors along the channel (last) axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_channels needs at least one operand")
    hw = None
    for p in parts:
        if p.ndim != 3:
            raise ShapeError(f"concat_channels expects rank-3 operands, got shape {p.shape}")
        if hw is None:
            hw = p.shape[:2]
        elif p.shape[:2] != hw:
            raise ShapeError(f"concat_channels: spatial mismatch {hw} vs {p.shape[:2]}")
    out = np.concatenate([p.array for p in parts], axis=2)
    tape = resolve_tape(*parts)
    if tape is None:
        return Tensor(out)
    sizes = [p.shape[2] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, :, bounds[i] : bounds[i + 1]] for i in range(len(sizes)))

    return tape.record("concat_channels", tuple(parts), out, vjp)


# The partition rule of row_halves: an output of at least HALVES_MIN_ROWS rows
# is computed as two row halves, else one of at least HALVES_MIN_ROWS columns
# as two column halves. OpenBLAS picks its kernels by size, so a half's bits
# can differ from the whole product's; they never depend on the helper.
HALVES_MIN_ROWS = 1024


class _Halves(threading.local):
    open = False  # whether a row_halves context is open on this thread
    helper = None  # the helper thread it lent, if any


_halves = _Halves()


def lends_helper() -> bool:
    """Whether ``row_halves`` lends a helper thread: where two CPUs are
    usable (``blas.workers``)."""
    return blas.workers(2) >= 2


@contextmanager
def row_halves():
    """Compute this thread's untaped products and match softmaxes by the
    partition rule until the context closes.

    Where ``lends_helper()``, one helper thread computes each lower half,
    else this thread computes both halves in order; the bits are the same.
    Other threads never see the context. The helper is shut down on the
    way out, error or not.
    """
    outer = _halves.open, _halves.helper
    with ThreadPoolExecutor(1, thread_name_prefix="npmca-rows") if lends_helper() else nullcontext() as helper:
        _halves.open, _halves.helper = True, helper
        try:
            yield
        finally:
            _halves.open, _halves.helper = outer


def _run_halves(part, n: int, split: bool) -> None:
    """``part(start, stop)`` over [0, n): once when not ``split``, else
    over the two fixed halves [0, n // 2) and [n // 2, n). A helper lent by
    ``row_halves`` runs the lower half while this thread runs the upper
    one; this thread's error, else the helper's, reaches the caller."""
    if not split:
        part(0, n)
        return
    helper = _halves.helper
    if helper is None:
        part(0, n // 2)
        part(n // 2, n)
        return
    lower = helper.submit(part, n // 2, n)
    try:
        part(0, n // 2)
    finally:
        wait((lower,))
    lower.result()


def _product(a, b, out: np.ndarray, taped: bool = False, bias=None, step: int = 1) -> np.ndarray:
    """``a @ b`` (plus ``bias`` on every row) written into ``out``, by the
    partition rule inside ``row_halves`` unless ``taped``, else whole.

    ``a`` is a matrix, or a function ``a(lo, hi)`` giving the rows of ``a``
    for output rows [lo * step, hi * step): conv2d lays out its patch rows
    that way, in the thread that multiplies them, and splits its rows at a
    row of its output map (``step`` pixels).
    """
    rows, cols = out.shape
    split = _halves.open and not taped
    if not (split and max(rows, cols) >= HALVES_MIN_ROWS):
        np.matmul(a(0, rows // step) if callable(a) else a, b, out=out)
        if bias is not None:
            out += bias
        return out
    rows_of = a if callable(a) else (lambda lo, hi: a[lo * step : hi * step])
    if rows >= HALVES_MIN_ROWS:
        def part(lo, hi):
            rows_out = out[lo * step : hi * step]
            np.matmul(rows_of(lo, hi), b, out=rows_out)
            if bias is not None:
                rows_out += bias

        _run_halves(part, rows // step, True)
        return out
    whole = rows_of(0, rows // step)

    def part(lo, hi):
        cols_out = out[:, lo:hi]
        np.matmul(whole, b[:, lo:hi], out=cols_out)
        if bias is not None:
            cols_out += bias[lo:hi]

    _run_halves(part, cols, True)
    return out


def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} and {b.shape}")
    A, B = a.array, b.array
    tape = resolve_tape(a, b)
    out = _product(A, B, np.empty((A.shape[0], B.shape[1])), taped=tape is not None)
    if tape is None:
        return Tensor(out)
    return tape.record("matmul", (a, b), out, lambda g: (g @ B.T, A.T @ g))


def _softmax_columns_inplace(m: np.ndarray, out=None, split: bool = False) -> np.ndarray:
    """Column softmax of a finite matrix, written into ``out`` (which may be
    ``m`` itself) or into a fresh array when ``out`` is None. Raises
    ``NumericError`` on any non-finite entry: a NaN or a +inf makes its
    column's max non-finite, a -inf its column's min.

    With ``split``, each row-independent step runs over two row halves
    (``_run_halves``); the column sum is one pass over all rows, so no
    bit depends on it.
    """
    if out is None:
        out = np.empty_like(m)
    extremes = {}

    def column_extremes(lo, hi):
        extremes[lo] = (m[lo:hi].max(axis=0), m[lo:hi].min(axis=0))

    _run_halves(column_extremes, len(m), split)
    col_max = reduce(np.maximum, (top for top, _ in extremes.values()))
    col_min = reduce(np.minimum, (bottom for _, bottom in extremes.values()))
    if not (np.isfinite(col_max).all() and np.isfinite(col_min).all()):
        raise NumericError("softmax_columns: input contains non-finite values")

    def shifted_exp(lo, hi):
        np.exp(np.subtract(m[lo:hi], col_max, out=out[lo:hi]), out=out[lo:hi])

    _run_halves(shifted_exp, len(m), split)
    col_sum = out.sum(axis=0)

    def normalised(lo, hi):
        np.divide(out[lo:hi], col_sum, out=out[lo:hi])

    _run_halves(normalised, len(m), split)
    return out


def softmax_columns(m) -> Tensor:
    """Softmax over the first axis, so every column sums to one.

    The column maximum is subtracted before exponentiation, which keeps the
    result finite for inputs of any magnitude.
    """
    m = _as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"softmax_columns expects a matrix, got shape {m.shape}")
    out = _softmax_columns_inplace(m.array)
    tape = resolve_tape(m)
    if tape is None:
        return Tensor(out)

    def vjp(g):
        return (out * (g - (out * g).sum(axis=0, keepdims=True)),)

    return tape.record("softmax_columns", (m,), out, vjp)


def softmax_match(ref, tar) -> Tensor:
    """``ref^T @ softmax_columns(ref @ tar^T)`` for (N, C) pixel rows of one
    grid: column j of the (C, N) result blends the reference rows by their
    similarity to target row j. The (N, N) similarity is one buffer,
    softmaxed in place; the adjoint closes over it."""
    ref = _as_tensor(ref)
    tar = _as_tensor(tar)
    if ref.ndim != 2 or tar.ndim != 2:
        raise ShapeError(f"softmax_match expects matrices, got shapes {ref.shape} and {tar.shape}")
    if ref.shape != tar.shape:
        raise ShapeError(f"softmax_match: reference {ref.shape} and target {tar.shape} grids differ")
    R = ref.array
    tape = resolve_tape(ref, tar)
    if tape is None:  # the faster layout at inference, each step by the partition rule inside row_halves
        n, c = R.shape
        s = _product(R, tar.array.T, np.empty((n, n)))
        _softmax_columns_inplace(s, out=s, split=_halves.open and n >= HALVES_MIN_ROWS)
        return Tensor(_product(R.T, s, np.empty((c, n))))
    # contiguous transposes, as transpose nodes hand them to matmul: the composed tape's products and bits
    ref_t = np.ascontiguousarray(R.T)
    tar_t = np.ascontiguousarray(tar.array.T)
    s = R @ tar_t
    _softmax_columns_inplace(s, out=s)
    out = ref_t @ s

    def vjp(g):
        d_s = ref_t.T @ g
        d_ref = (g @ s.T).T
        d_s = s * (d_s - (s * d_s).sum(axis=0, keepdims=True))
        return (d_ref + d_s @ tar_t.T, (R.T @ d_s).T)

    return tape.record("softmax_match", (ref, tar), out, vjp)


def _pad_spatial(arr: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes; always returns a fresh C-contiguous array."""
    h, w, c = arr.shape
    out = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=np.float64)
    out[pad : pad + h, pad : pad + w, :] = arr
    return out


def _patch_view(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    # For a C-contiguous (H, W, C) map, the kw taps of one kernel row are kw*C
    # consecutive values, so the patches are an (oh, ow, kh, kw*C) strided
    # view of the map, and one copy lays them out as rows of (kh, kw, C).
    _, wp, c = xp.shape
    s = xp.itemsize
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(oh, ow, kh, kw * c),
        strides=(stride * wp * c * s, stride * c * s, wp * c * s, s),
        writeable=False,
    )


def _conv_forward(xp: np.ndarray, taps: np.ndarray, bias: np.ndarray, kh: int, kw: int, stride: int,
                  oh: int, ow: int, taped: bool) -> np.ndarray:
    """The conv2d forward: one ``_product`` of the patch matrix and the
    taps, whose row halves (inside ``row_halves``) each lay out their own
    patch rows. The patch matrix and the output are allocated here, on the
    calling thread: buffers a helper allocated would stay in its own
    malloc arena and raise peak memory."""
    view = _patch_view(xp, kh, kw, stride, oh, ow)
    direct = kh == kw == stride == 1  # the patches of a 1x1 kernel at stride 1 are the map as it lies
    cols = xp.reshape(view.shape) if direct else np.empty(view.shape)

    def patch_rows(lo, hi):
        if not direct:
            cols[lo:hi] = view[lo:hi]
        return cols[lo:hi].reshape((hi - lo) * ow, len(taps))

    out = _product(patch_rows, taps, np.empty((oh * ow, taps.shape[1])), taped=taped, bias=bias, step=ow)
    return out.reshape(oh, ow, -1)


def conv2d(x, w, b, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation over a (H, W, Cin) map with zero padding.

    ``w`` has shape (kh, kw, Cin, Cout) with odd kh, kw; ``b`` has shape
    (Cout,). The padded extent must be consumed exactly: (H + 2*pad - kh)
    must be divisible by the stride, otherwise the call is a shape error.

    The forward pass is one GEMM over the (OH*OW, kh*kw*Cin) patch matrix,
    split by the partition rule inside ``row_halves``.
    On a tape, the adjoint keeps the input map, not that kh*kw times wider
    matrix, and lays the patches out again for the weight adjoint: the same
    copy gives the same bits, and a training sample's tape holds about a
    fifth of the memory.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    b = _as_tensor(b)
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d expects (H,W,Cin) and (kh,kw,Cin,Cout), got {x.shape} and {w.shape}")
    h, wd, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d kernel dims must be odd, got {kh}x{kw}")
    if wcin != cin:
        raise ShapeError(f"conv2d: input has {cin} channels but kernel expects {wcin}")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match {cout} output channels")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv2d: invalid stride {stride} or pad {pad}")
    if (h + 2 * pad - kh) % stride or (wd + 2 * pad - kw) % stride:
        raise ShapeError(
            f"conv2d: input {x.shape} with kernel {kh}x{kw}, stride {stride}, pad {pad} "
            "yields a non-integral output size"
        )
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1

    x_arr = x.array
    taps = w.array.reshape(kh * kw * cin, cout)

    def padded():
        return _pad_spatial(x_arr, pad) if pad else x_arr

    tape = resolve_tape(x, w, b)
    out = _conv_forward(padded(), taps, b.array, kh, kw, stride, oh, ow, taped=tape is not None)
    if tape is None:
        return Tensor(out)

    def patches():
        return _patch_view(padded(), kh, kw, stride, oh, ow).reshape(oh * ow, -1)

    # an image fed to the first layer is a constant: its adjoint is never read
    needs_dx = x.tape is tape
    wtaps = w.array

    def vjp(g):
        g2 = g.reshape(oh * ow, cout)
        dw = (patches().T @ g2).reshape(kh, kw, cin, cout)
        db = g2.sum(axis=0)
        if not needs_dx:
            return (None, dw, db)
        # one tap at a time, so each product is contiguous and lands in the
        # padded map with a single strided add
        dxp = np.zeros((h + 2 * pad, wd + 2 * pad, cin), dtype=np.float64)
        for i in range(kh):
            for j in range(kw):
                tap = (g2 @ wtaps[i, j].T).reshape(oh, ow, cin)
                dxp[i : i + stride * oh : stride, j : j + stride * ow : stride, :] += tap
        dx = dxp[pad : pad + h, pad : pad + wd, :] if pad else dxp
        return (dx, dw, db)

    return tape.record("conv2d", (x, w, b), out, vjp)


@lru_cache(maxsize=64)
def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Rows hold the two-tap blend producing each output sample.

    Sample positions follow the half-pixel-center convention: output pixel
    i reads from source position (i + 0.5) * n_in / n_out - 0.5, clamped to
    the valid range. The matrix is cached per size pair and read-only.
    """
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = src - i0
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1.0 - frac)
    np.add.at(m, (rows, i1), frac)
    m.flags.writeable = False
    return m


def _apply_separable(arr: np.ndarray, mh: np.ndarray, mw: np.ndarray) -> np.ndarray:
    h, w, c = arr.shape
    oh, ow = mh.shape[0], mw.shape[0]
    tmp = (mh @ arr.reshape(h, w * c)).reshape(oh, w, c)
    tmp = tmp.transpose(0, 2, 1).reshape(oh * c, w)
    out = (tmp @ mw.T).reshape(oh, c, ow)
    return np.ascontiguousarray(out.transpose(0, 2, 1))


def _halve(arr: np.ndarray) -> np.ndarray:
    # The mean of each 2x2 window, summed in the order the two interpolation
    # GEMMs sum it, so the result equals theirs bit for bit.
    rows = arr[0::2] + arr[1::2]
    out = rows[:, 0::2] + rows[:, 1::2]
    out *= 0.25
    return out


def _halve_adjoint(g: np.ndarray) -> np.ndarray:
    oh, ow, c = g.shape
    quarter = np.broadcast_to((0.25 * g)[:, None, :, None, :], (oh, 2, ow, 2, c))
    return quarter.reshape(2 * oh, 2 * ow, c)


def bilinear_resize(x, out_h: int, out_w: int) -> Tensor:
    """Resample a (H, W, C) map to (out_h, out_w, C) bilinearly.

    Uses half-pixel source centers and clamps at the borders, so resizing
    to the same size is the identity and constants stay constant. Halving
    both sides reads every source pixel at weight 1/4, so that case is the
    2x2 window mean, computed without the interpolation matrices.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"bilinear_resize expects a rank-3 map, got shape {x.shape}")
    out_h = int(out_h)
    out_w = int(out_w)
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize: output size {out_h}x{out_w} must be positive")
    h, w, _ = x.shape
    if (h, w) == (2 * out_h, 2 * out_w):
        out, adjoint = _halve(x.array), _halve_adjoint
    else:
        mh = _interp_matrix(h, out_h)
        mw = _interp_matrix(w, out_w)
        out = _apply_separable(x.array, mh, mw)

        def adjoint(g):
            return _apply_separable(np.ascontiguousarray(g), mh.T, mw.T)

    tape = resolve_tape(x)
    if tape is None:
        return Tensor(out)
    return tape.record("bilinear_resize", (x,), out, lambda g: (adjoint(g),))

