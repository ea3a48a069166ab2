"""Differentiable array operations.

Every function computes a plain numpy forward result and, when an operand
is bound to a recording tape, registers the matching adjoint rule. Scalars
and unbound tensors act as constants. Elementwise arithmetic supports two
operand layouts only: identical shapes, or one operand with a single
element broadcast against the other.

``softmax_match`` is the model's non-local match as one primitive: bit for
bit the composition of ``matmul``, ``transpose`` and ``softmax_columns``,
in one similarity buffer and one tape node instead of five.

Inside ``row_halves``, each untaped product of the thread that entered it
(the ``conv2d`` forward GEMM, ``matmul`` and both GEMMs of
``softmax_match``) is computed by one partition rule that reads only its
shape: an output of at least ``HALVES_MIN_ROWS`` rows as two fixed row
halves, one with fewer rows but at least that many columns as two fixed
column halves, any other whole. The softmax steps of ``softmax_match``
follow the same row rule, and its column sum runs as two column halves.
The untaped per-pixel steps run as two fixed row halves of their output
from a measured size on (``HALVES_MIN_ENTRIES`` entries read,
``HALVES_MIN_MADDS`` multiply-adds for the interpolation): ``relu``,
``concat_channels`` and both paths of ``bilinear_resize`` (the 2x2
window mean and the separable interpolation, by output rows). ``relu``,
``concat_channels``, the window mean and the column sum compute each
entry exactly as the whole step does, so their halves are bitwise equal
to it by construction. A product's halves, the separable
interpolation's two among them, can round differently, since OpenBLAS
picks its kernels by size. The halves do not depend on whether a helper
thread was lent, so no bit depends on the CPU count: a helper computes
the lower half while the caller computes the upper one; without one,
the caller computes both in order. Each half is written into the output
the caller allocated. On a tape every step runs the same body once over
all rows, and so does it outside the context, save the blocks below.

Outside ``row_halves``, an untaped pass bounds its largest temporaries by
rules that read only shapes, so that passes of several objects can run at
once in bounded memory. ``conv2d`` lays out a patch matrix of more than
``CONV_BLOCK_BYTES`` in near-equal blocks of output-map rows, each at most
that size, in one reused buffer: the same ``_product`` that takes the
row halves inside the context multiplies the blocks one after another
into their rows of the output. ``softmax_match`` with a similarity of
at least ``MATCH_BLOCK_BYTES`` runs in blocks of ``MATCH_BLOCK_COLUMNS``
target columns: each block's similarity, column softmax and blend, in
one reused (N, block) buffer. A column's softmax reads only that column, and for the
model's shapes each block's products equal the whole products' rows or
columns bit for bit; the blocks are the only way these calls run, so no
bit depends on the pass count or the CPU count either.
"""

import math
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
    tape = resolve_tape(x)
    out = np.empty_like(x.array)
    rows, out_rows = (x.array, out) if out.ndim else (x.array.reshape(1), out.reshape(1))  # a scalar is one row
    _run_halves(lambda lo, hi: np.maximum(rows[lo:hi], 0.0, out=out_rows[lo:hi]), len(out_rows),
                _map_halves(out.size, HALVES_MIN_ENTRIES, tape))
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
    if math.prod(shape) != x.size:
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
    tape = resolve_tape(*parts)
    out = np.empty((*hw, sum(p.shape[2] for p in parts)))
    _run_halves(lambda lo, hi: np.concatenate([p.array[lo:hi] for p in parts], axis=2, out=out[lo:hi]),
                len(out), _map_halves(out.size, HALVES_MIN_ENTRIES, tape))
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


# The per-pixel steps split inside row_halves by their size alone too, from
# the measured size where the helper's hand-off (about 45 us) costs less
# than the half it takes. A step that reads each entry once or a few times
# (ReLU, channel concat, 2x2 window mean) splits from HALVES_MIN_ENTRIES
# entries read, the separable interpolation (two GEMMs) from
# HALVES_MIN_MADDS multiply-adds. On a 2-vCPU Xeon VM, halves against the
# whole step read +8 to +18% at 147456 entries (ReLU), -3% at 172032 and
# -9 to -37% at 196608; the interpolation +46% at 1.6e6 multiply-adds,
# -2% at 3.1e6 and -32% at 6.3e6.
HALVES_MIN_ENTRIES = 160 * 1024
HALVES_MIN_MADDS = 3 << 20

# Outside row_halves an untaped pass bounds its two largest temporaries by
# shape alone, so that two passes can run at once: conv2d lays out a patch
# matrix of more than CONV_BLOCK_BYTES in row blocks, and softmax_match runs
# a similarity of at least MATCH_BLOCK_BYTES (from 1024 pixels) in blocks of
# MATCH_BLOCK_COLUMNS target columns. On a 2-vCPU Xeon VM (one 12 s perfbench
# run each), infer-128x192-occl with two objects' passes at once read a peak
# RSS of 144.9 MB with neither block, 142.7 MB with the conv blocks alone,
# 140.3 MB with the similarity blocks alone and 125.2 MB with both (one pass
# at a time: 120.8 MB), at 72.3, 71.6, 70.0 and 67.9 ms per frame-object;
# 1 and 4 MiB conv blocks read 124.2 and 126.1 MB. With the default plan's 16
# matching channels, 128-, 256- and 512-column blocks of a 600-pixel match
# differ in bits from the whole match on OpenBLAS's SkylakeX kernels, and 384
# columns do not, nor at 216, 384, 864, 1024, 1037, 1350, 1536 or 2400
# pixels. The matches of 3-scale inference at 64x96 (216, 384 and 600
# pixels) stay whole.
CONV_BLOCK_BYTES = 2 << 20
MATCH_BLOCK_BYTES = 8 << 20
MATCH_BLOCK_COLUMNS = 384


def _map_halves(work: int, cut: int, tape) -> bool:
    """Whether a per-pixel step of ``work`` (entries read or multiply-adds,
    against its ``cut``) runs as two fixed row halves of its output map:
    inside ``row_halves``, when not on a ``tape``."""
    return _halves.open and tape is None and work >= cut


def _product(a, b, out: np.ndarray, taped: bool = False, bias=None, step: int = 1, blocks: int = 1) -> np.ndarray:
    """``a @ b`` (plus ``bias`` on every row) written into ``out``, by the
    partition rule inside ``row_halves`` unless ``taped``, else in
    ``blocks`` near-equal row blocks one after another (the last one
    possibly shorter; one block is the whole product).

    ``a`` is a matrix, or a function ``a(lo, hi)`` giving the rows of ``a``
    for output rows [lo * step, hi * step): conv2d lays out its patch rows
    that way, in the thread that multiplies them, and splits its rows at a
    row of its output map (``step`` pixels).
    """
    rows, cols = out.shape
    rows_of = a if callable(a) else (lambda lo, hi: a[lo * step : hi * step])
    split = _halves.open and not taped and max(rows, cols) >= HALVES_MIN_ROWS

    def part(lo, hi):
        rows_out = out[lo * step : hi * step]
        np.matmul(rows_of(lo, hi), b, out=rows_out)
        if bias is not None:
            rows_out += bias

    if split and rows >= HALVES_MIN_ROWS:
        _run_halves(part, rows // step, True)
        return out
    if not split:
        n = rows // step
        size = max(1, -(-n // blocks))
        for lo in range(0, n, size):
            part(lo, min(n, lo + size))
        return out
    whole = rows_of(0, rows // step)

    def column_part(lo, hi):
        cols_out = out[:, lo:hi]
        np.matmul(whole, b[:, lo:hi], out=cols_out)
        if bias is not None:
            cols_out += bias[lo:hi]

    _run_halves(column_part, cols, True)
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
    (``_run_halves``) and the column sum over two column halves; numpy
    sums every column over the rows in order, so a column's sum is the
    same in either half.
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
    col_sum = np.empty(m.shape[1])
    _run_halves(lambda lo, hi: out[:, lo:hi].sum(axis=0, out=col_sum[lo:hi]), len(col_sum), split)

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


def _match_blocks(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The untaped ``softmax_match`` outside ``row_halves``, by blocks of
    ``MATCH_BLOCK_COLUMNS`` target columns (the last one possibly
    shorter): each block's similarity, column softmax and blend, in one
    reused (N, block) buffer. A column's softmax reads only that column."""
    n, c = R.shape
    out = np.empty((c, n))
    buf = np.empty(n * min(n, MATCH_BLOCK_COLUMNS))
    for lo in range(0, n, MATCH_BLOCK_COLUMNS):
        hi = min(n, lo + MATCH_BLOCK_COLUMNS)
        s = buf[: n * (hi - lo)].reshape(n, hi - lo)
        np.matmul(R, T[lo:hi].T, out=s)
        _softmax_columns_inplace(s, out=s)
        np.matmul(R.T, s, out=out[:, lo:hi])
    return out


def softmax_match(ref, tar) -> Tensor:
    """``ref^T @ softmax_columns(ref @ tar^T)`` for (N, C) pixel rows of one
    grid: column j of the (C, N) result blends the reference rows by their
    similarity to target row j. The (N, N) similarity is one buffer,
    softmaxed in place; the adjoint closes over it. Untaped and outside
    ``row_halves``, a similarity of at least ``MATCH_BLOCK_BYTES`` is made
    and blended by column blocks instead (``_match_blocks``)."""
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
        if not _halves.open and 8 * n * n >= MATCH_BLOCK_BYTES:
            return Tensor(_match_blocks(R, tar.array))
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
    # The ndarray constructor makes the view without as_strided's Python-level
    # work, and checks that it stays inside the map.
    _, wp, c = xp.shape
    s = xp.itemsize
    view = np.ndarray((oh, ow, kh, kw * c), np.float64, xp, 0, (stride * wp * c * s, stride * c * s, wp * c * s, s))
    view.flags.writeable = False
    return view


def _tap_windows(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    # The (kh, kw, oh, ow, C) writeable view of a C-contiguous (H, W, C) map
    # whose [i, j] block is the window that kernel tap (i, j) reads
    _, wp, c = xp.shape
    s = xp.itemsize
    return np.ndarray((kh, kw, oh, ow, c), np.float64, xp, 0, (wp * c * s, c * s, stride * wp * c * s, stride * c * s, s))


def _conv_forward(xp: np.ndarray, taps: np.ndarray, bias: np.ndarray, kh: int, kw: int, stride: int,
                  oh: int, ow: int, taped: bool) -> np.ndarray:
    """The conv2d forward: one ``_product`` of the patch matrix and the
    taps, whose row halves (inside ``row_halves``) each lay out their own
    patch rows. The patch buffer and the output are allocated here, on the
    calling thread: buffers a helper allocated would stay in its own
    malloc arena and raise peak memory. Untaped and outside ``row_halves``,
    a patch matrix of more than ``CONV_BLOCK_BYTES`` is laid out and
    multiplied in near-equal blocks of output-map rows, each at most that
    size (one map row at least), one block at a time in one reused buffer."""
    view = _patch_view(xp, kh, kw, stride, oh, ow)
    width = len(taps)
    direct = kh == kw == stride == 1  # the patches of a 1x1 kernel at stride 1 are the map as it lies
    blocks = 1
    if not (direct or taped or _halves.open):
        blocks = -(-oh // max(1, CONV_BLOCK_BYTES // (8 * ow * width)))
    rows = -(-oh // blocks)
    cols = xp.reshape(view.shape) if direct else np.empty((rows, *view.shape[1:]))

    def patch_rows(lo, hi):
        at = lo if blocks == 1 else 0  # a block reuses the buffer from its start
        if not direct:
            cols[at : at + hi - lo] = view[lo:hi]
        return cols[at : at + hi - lo].reshape((hi - lo) * ow, width)

    out = _product(patch_rows, taps, np.empty((oh * ow, taps.shape[1])), taped=taped, bias=bias, step=ow,
                   blocks=blocks)
    return out.reshape(oh, ow, -1)


def conv2d(x, w, b, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation over a (H, W, Cin) map with zero padding.

    ``w`` has shape (kh, kw, Cin, Cout) with odd kh, kw; ``b`` has shape
    (Cout,). The padded extent must be consumed exactly: (H + 2*pad - kh)
    must be divisible by the stride, otherwise the call is a shape error.

    The forward pass is one GEMM over the (OH*OW, kh*kw*Cin) patch matrix,
    split by the partition rule inside ``row_halves``, and untaped outside
    it in row blocks of at most ``CONV_BLOCK_BYTES``.
    The input is padded once. On a tape, the adjoint keeps that padded
    map, not the input and not the kh*kw times wider patch matrix, and lays
    the patches out again from it for the weight adjoint: the same copy
    gives the same bits, and a training sample's tape holds about a fifth
    of the memory.
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

    xp = _pad_spatial(x.array, pad) if pad else x.array
    taps = w.array.reshape(kh * kw * cin, cout)
    tape = resolve_tape(x, w, b)
    out = _conv_forward(xp, taps, b.array, kh, kw, stride, oh, ow, taped=tape is not None)
    if tape is None:
        return Tensor(out)

    # an image fed to the first layer is a constant: its adjoint is never read
    needs_dx = x.tape is tape
    taps_t = w.array.transpose(0, 1, 3, 2)  # taps_t[i, j] is tap (i, j) as a (Cout, Cin) matrix

    def vjp(g):
        g2 = g.reshape(oh * ow, cout)
        dw = (_patch_view(xp, kh, kw, stride, oh, ow).reshape(oh * ow, -1).T @ g2).reshape(kh, kw, cin, cout)
        db = g2.sum(axis=0)
        if not needs_dx:
            return (None, dw, db)
        # one tap at a time, so each product is contiguous and lands in its
        # window of the padded map with a single strided add
        dxp = np.zeros(xp.shape)
        windows = _tap_windows(dxp, kh, kw, stride, oh, ow)
        for i in range(kh):
            for j in range(kw):
                window = windows[i, j]
                np.add(window, (g2 @ taps_t[i, j]).reshape(oh, ow, cin), out=window)
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


def _apply_separable(arr: np.ndarray, mh: np.ndarray, mw: np.ndarray, split: bool = False) -> np.ndarray:
    # mh @ arr @ mw.T over each channel, by output rows (two fixed halves
    # with ``split``). The output and the second product, the largest
    # intermediate, are allocated on the calling thread (see _conv_forward)
    h, w, c = arr.shape
    oh, ow = len(mh), len(mw)
    flat = arr.reshape(h, w * c)
    out = np.empty((oh, ow, c))
    wide = np.empty((oh * c, ow))

    def part(lo, hi):
        tall = (mh[lo:hi] @ flat).reshape(hi - lo, w, c).transpose(0, 2, 1).reshape((hi - lo) * c, w)
        np.matmul(tall, mw.T, out=wide[lo * c : hi * c])
        out[lo:hi] = wide[lo * c : hi * c].reshape(hi - lo, c, ow).transpose(0, 2, 1)

    _run_halves(part, oh, split)
    return out


def _halve(arr: np.ndarray, split: bool = False) -> np.ndarray:
    # The mean of each 2x2 window, summed in the order the two interpolation
    # GEMMs sum it, so the result equals theirs bit for bit; by output rows
    # (two fixed halves with ``split``), each entry summed the same way
    oh = len(arr) // 2
    out = np.empty((oh, arr.shape[1] // 2, arr.shape[2]))

    def part(lo, hi):
        rows = arr[2 * lo : 2 * hi : 2] + arr[2 * lo + 1 : 2 * hi : 2]
        np.add(rows[:, 0::2], rows[:, 1::2], out=out[lo:hi])
        out[lo:hi] *= 0.25

    _run_halves(part, oh, split)
    return out


def _halve_adjoint(g: np.ndarray) -> np.ndarray:
    oh, ow, c = g.shape
    out = np.empty((oh, 2, ow, 2, c))
    out[...] = (0.25 * g)[:, None, :, None, :]
    return out.reshape(2 * oh, 2 * ow, c)


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
    h, w, c = x.shape
    tape = resolve_tape(x)
    if (h, w) == (2 * out_h, 2 * out_w):
        out, adjoint = _halve(x.array, _map_halves(x.array.size, HALVES_MIN_ENTRIES, tape)), _halve_adjoint
    else:
        mh = _interp_matrix(h, out_h)
        mw = _interp_matrix(w, out_w)
        out = _apply_separable(x.array, mh, mw, _map_halves(out_h * w * c * (h + out_w), HALVES_MIN_MADDS, tape))

        def adjoint(g):
            return _apply_separable(np.ascontiguousarray(g), mh.T, mw.T)

    if tape is None:
        return Tensor(out)
    return tape.record("bilinear_resize", (x,), out, lambda g: (adjoint(g),))

