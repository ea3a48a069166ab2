"""Differentiable array operations.

Every function computes a plain numpy forward result and, when an operand
is bound to a recording tape, registers the matching adjoint rule. Scalars
and unbound tensors act as constants. Elementwise arithmetic supports two
operand layouts only: identical shapes, or one operand with a single
element broadcast against the other.

``softmax_match`` is the model's non-local match as one primitive: bit for
bit the composition of ``matmul``, ``transpose`` and ``softmax_columns``,
in one similarity buffer and one tape node instead of five.

Each op lays out its work by shapes alone, so that passes of several
objects can run at once in bounded memory. ``conv2d``, taped or not, lays
out a patch matrix of more than ``CONV_BLOCK_BYTES`` in near-equal blocks
of output-map rows, each at most that size, in one reused buffer, and
multiplies them one after another into their rows of the output. An
untaped ``softmax_match`` runs in blocks of ``MATCH_BLOCK_COLUMNS`` target
columns (one block up to that many pixels): each block's similarity,
column softmax and blend, in one reused (N, block) buffer. A column's
softmax reads only that column, and at the model's default channel plan
each block's products equal the whole products' rows or columns bit for
bit, so the taped match, whole for its adjoint, gives the untaped bits.
The (4, 6, 8) plan's 2-channel matches round differently in blocks at
some sizes (864 and 1024 pixels: 96x144 and 128x128 frames), where a
taped forward's last bits then differ. No op starts a thread or reads
the thread it runs on, so no bit depends on the pass count or CPU count.
"""

import math
from functools import lru_cache

import numpy as np

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
    out = np.concatenate([p.array for p in parts], axis=2)
    tape = resolve_tape(*parts)
    if tape is None:
        return Tensor(out)
    sizes = [p.shape[2] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, :, bounds[i] : bounds[i + 1]] for i in range(len(sizes)))

    return tape.record("concat_channels", tuple(parts), out, vjp)


# An untaped pass bounds its two largest temporaries by shape alone, so that
# two passes can run at once: conv2d, taped or not, lays out a patch matrix of
# more than CONV_BLOCK_BYTES in row blocks, and an untaped softmax_match runs
# in blocks of MATCH_BLOCK_COLUMNS target columns. On a 2-vCPU Xeon VM (one
# 12 s perfbench run each), infer-128x192-occl with two objects' passes at once
# read a peak RSS of 144.9 MB with neither block, 142.7 MB with the conv
# blocks alone, 140.3 MB with the similarity blocks alone and 125.2 MB with
# both (one pass at a time: 120.8 MB), at 72.3, 71.6, 70.0 and 67.9 ms per
# frame-object; 1 and 4 MiB conv blocks read 124.2 and 126.1 MB. With the
# default plan's 16 matching channels, 128-, 256- and 512-column blocks of a
# 600-pixel match differ in bits from the whole match on OpenBLAS's SkylakeX
# kernels, and 384 columns do not, nor at 216, 384, 864, 1024, 1037, 1350,
# 1536 or 2400 pixels.
CONV_BLOCK_BYTES = 2 << 20
MATCH_BLOCK_COLUMNS = 384


def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} and {b.shape}")
    A, B = a.array, b.array
    tape = resolve_tape(a, b)
    out = A @ B
    if tape is None:
        return Tensor(out)
    return tape.record("matmul", (a, b), out, lambda g: (g @ B.T, A.T @ g))


def _softmax_columns_inplace(m: np.ndarray, out=None) -> np.ndarray:
    """Column softmax of a finite matrix, written into ``out`` (which may be
    ``m`` itself) or into a fresh array when ``out`` is None. Raises
    ``NumericError`` on any non-finite entry: a NaN or a +inf makes its
    column's max non-finite, a -inf its column's min."""
    if out is None:
        out = np.empty_like(m)
    col_max = m.max(axis=0)
    if not (np.isfinite(col_max).all() and np.isfinite(m.min(axis=0)).all()):
        raise NumericError("softmax_columns: input contains non-finite values")
    np.exp(np.subtract(m, col_max, out=out), out=out)
    np.divide(out, out.sum(axis=0), out=out)
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


def _match_blocks(R: np.ndarray, T: np.ndarray, columns: int) -> np.ndarray:
    """The untaped ``softmax_match`` by blocks of ``columns`` target
    columns (the last one possibly shorter): each block's similarity,
    column softmax and blend, in one reused (N, block) buffer. A column's
    softmax reads only that column; one block of N columns is the whole
    match."""
    n, c = R.shape
    out = np.empty((c, n))
    buf = np.empty(n * min(n, columns))
    for lo in range(0, n, columns):
        hi = min(n, lo + columns)
        s = buf[: n * (hi - lo)].reshape(n, hi - lo)
        np.matmul(R, T[lo:hi].T, out=s)
        _softmax_columns_inplace(s, out=s)
        np.matmul(R.T, s, out=out[:, lo:hi])
    return out


def softmax_match(ref, tar) -> Tensor:
    """``ref^T @ softmax_columns(ref @ tar^T)`` for (N, C) pixel rows of one
    grid: column j of the (C, N) result blends the reference rows by their
    similarity to target row j. The (N, N) similarity is one buffer,
    softmaxed in place; the adjoint closes over it. Untaped, the
    similarity is made and blended by blocks of ``MATCH_BLOCK_COLUMNS``
    columns instead (``_match_blocks``)."""
    ref = _as_tensor(ref)
    tar = _as_tensor(tar)
    if ref.ndim != 2 or tar.ndim != 2:
        raise ShapeError(f"softmax_match expects matrices, got shapes {ref.shape} and {tar.shape}")
    if ref.shape != tar.shape:
        raise ShapeError(f"softmax_match: reference {ref.shape} and target {tar.shape} grids differ")
    R = ref.array
    tape = resolve_tape(ref, tar)
    if tape is None:  # the faster layout at inference
        return Tensor(_match_blocks(R, tar.array, MATCH_BLOCK_COLUMNS))
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
                  oh: int, ow: int) -> np.ndarray:
    """The conv2d forward: the patch matrix times the taps, plus the bias.
    A patch matrix of more than ``CONV_BLOCK_BYTES`` is laid out and
    multiplied in near-equal blocks of output-map rows, each at most that
    size (one map row at least; the last block possibly shorter), one block
    at a time in one reused buffer; otherwise it is one block."""
    view = _patch_view(xp, kh, kw, stride, oh, ow)
    width = len(taps)
    direct = kh == kw == stride == 1  # the patches of a 1x1 kernel at stride 1 are the map as it lies
    blocks = 1 if direct else -(-oh // max(1, CONV_BLOCK_BYTES // (8 * ow * width)))
    rows = -(-oh // blocks)
    cols = xp.reshape(view.shape) if direct else np.empty((rows, *view.shape[1:]))
    out = np.empty((oh * ow, taps.shape[1]))
    for lo in range(0, oh, rows):
        hi = min(oh, lo + rows)
        if not direct:
            cols[: hi - lo] = view[lo:hi]
        block = out[lo * ow : hi * ow]
        np.matmul(cols[: hi - lo].reshape((hi - lo) * ow, width), taps, out=block)
        block += bias
    return out.reshape(oh, ow, -1)


def conv2d(x, w, b, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation over a (H, W, Cin) map with zero padding.

    ``w`` has shape (kh, kw, Cin, Cout) with odd kh, kw; ``b`` has shape
    (Cout,). The padded extent must be consumed exactly: (H + 2*pad - kh)
    must be divisible by the stride, otherwise the call is a shape error.

    The forward pass is one GEMM over the (OH*OW, kh*kw*Cin) patch matrix,
    in row blocks of at most ``CONV_BLOCK_BYTES``.
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
    out = _conv_forward(xp, taps, b.array, kh, kw, stride, oh, ow)
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


def _apply_separable(arr: np.ndarray, mh: np.ndarray, mw: np.ndarray) -> np.ndarray:
    # mh @ arr @ mw.T over each channel. The output and the second product
    # are allocated before the first product and its transposed copy, so
    # those two temporaries free above them: 64x96 training read about 2 MB
    # less peak RSS than with the output allocated last
    h, w, c = arr.shape
    oh, ow = len(mh), len(mw)
    out = np.empty((oh, ow, c))
    wide = np.empty((oh * c, ow))
    tall = (mh @ arr.reshape(h, w * c)).reshape(oh, w, c).transpose(0, 2, 1).reshape(oh * c, w)
    np.matmul(tall, mw.T, out=wide)
    out[...] = wide.reshape(oh, c, ow).transpose(0, 2, 1)
    return out


def _halve(arr: np.ndarray) -> np.ndarray:
    # The mean of each 2x2 window, summed in the order the two interpolation
    # GEMMs sum it, so the result equals theirs bit for bit
    rows = arr[0::2] + arr[1::2]
    out = rows[:, 0::2] + rows[:, 1::2]
    out *= 0.25
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
        out, adjoint = _halve(x.array), _halve_adjoint
    else:
        mh = _interp_matrix(h, out_h)
        mw = _interp_matrix(w, out_w)
        out = _apply_separable(x.array, mh, mw)

        def adjoint(g):
            return _apply_separable(np.ascontiguousarray(g), mh.T, mw.T)

    if tape is None:
        return Tensor(out)
    return tape.record("bilinear_resize", (x,), out, lambda g: (adjoint(g),))

