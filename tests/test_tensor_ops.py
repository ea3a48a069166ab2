"""Forward behaviour of the tensor engine's primitive operations."""

import os
import threading
import tracemalloc
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
from npmca.tensor import ParamTensor, Tensor
from npmca.training import Adam

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

    @pytest.mark.parametrize("value", [np.asarray(-10.0), np.float64(-10.0), np.asarray(-10.0) - 0.5 * np.asarray(2.0),
                                       np.float32(-10.0), -10.0, -10],
                             ids=["0-d array", "numpy scalar", "0-d arithmetic", "float32 scalar", "float", "int"])
    def test_zero_d_values_stay_zero_d(self, value):
        t = Tensor(value)
        assert t.shape == () and t.array.dtype == np.float64 and t.array.flags.c_contiguous
        assert t.item() == float(value)

    def test_adam_keeps_a_scalar_parameter_zero_d(self):
        # the update of a 0-d value such as raw_gamma is a numpy scalar, not an array
        p = ParamTensor("raw_gamma", np.asarray(-10.0))
        optimizer = Adam({"raw_gamma": p}, lr=0.1)
        for _ in range(2):
            p.gradient.array[...] = 1.0
            optimizer.step()
            assert p.value.shape == () and type(p.value.array) is np.ndarray
        assert p.value.item() < -10.0

    @pytest.mark.parametrize("make", [
        lambda a: a.T,                                  # Fortran order
        lambda a: a[:, ::2],                            # strided
        lambda a: a.astype(np.float32),                 # another float width
        lambda a: a.astype(">f8"),                      # float64 of the other byte order
        lambda a: (a * 8).astype(np.int64),             # integers
        lambda a: a.tolist(),                           # not an array at all
    ], ids=["transposed", "strided", "float32", "big-endian", "int64", "list"])
    def test_copies_other_input_into_c_contiguous_float64(self, make):
        base = np.arange(12.0).reshape(3, 4) / 8
        source = make(base)
        t = Tensor(source)
        assert type(t.array) is np.ndarray and t.array.dtype == np.float64 and t.array.dtype.isnative
        assert t.array.flags.c_contiguous
        assert_allclose(t.array, np.asarray(source, dtype=np.float64), rtol=0, atol=0)
        if isinstance(source, np.ndarray):
            assert not np.shares_memory(t.array, source)

    def test_keeps_c_contiguous_float64_without_a_copy(self):
        arr = np.arange(6.0).reshape(2, 3)
        assert Tensor(arr).array is arr


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


def _map(*shape):
    return Tensor(rng.normal(size=shape))


def _window_mean(a):  # the 2x2 window mean, rows first
    rows = a[0::2] + a[1::2]
    return (rows[:, 0::2] + rows[:, 1::2]) * 0.25


def _interpolated(a, oh, ow):  # mh @ a @ mw.T over each channel
    h, w, c = a.shape
    mh, mw = ops._interp_matrix(h, oh), ops._interp_matrix(w, ow)
    tall = (mh @ a.reshape(h, w * c)).reshape(oh, w, c).transpose(0, 2, 1).reshape(oh * c, w)
    return (tall @ mw.T).reshape(oh, c, ow).transpose(0, 2, 1)


# the per-pixel steps split inside row_halves: (call, rows of its output map,
# the step in plain numpy); each reads exactly HALVES_MIN_ENTRIES entries or
# does exactly HALVES_MIN_MADDS multiply-adds, or is an odd row count above
# its cut. The interpolation ("upsample", "resize-odd-rows") multiplies its
# halves apart, so only the others are bitwise with the whole step by
# construction.
_relu_in, _odd_relu_in = _map(32, 32, 160), _map(33, 40, 125)
_mean_in, _odd_mean_in = np.maximum(_map(64, 80, 32).array, 0.0), _map(66, 64, 40)
_up_in, _resize_in = _map(32, 48, 8), _map(20, 30, 53)
_cat_in = [_map(31, 40, 40), _map(31, 40, 60), _map(31, 40, 33)]
PER_PIXEL_STEPS = {
    "relu": (lambda: ops.relu(_relu_in), 32, lambda: np.maximum(_relu_in.array, 0.0)),
    "relu-odd-rows": (lambda: ops.relu(_odd_relu_in), 33, lambda: np.maximum(_odd_relu_in.array, 0.0)),
    "window-mean": (lambda: ops.bilinear_resize(_mean_in, 32, 40), 32, lambda: _window_mean(_mean_in)),
    "window-mean-odd-rows": (lambda: ops.bilinear_resize(_odd_mean_in, 33, 32), 33,
                             lambda: _window_mean(_odd_mean_in.array)),
    "upsample": (lambda: ops.bilinear_resize(_up_in, 64, 96), 64, lambda: _interpolated(_up_in.array, 64, 96)),
    "resize-odd-rows": (lambda: ops.bilinear_resize(_resize_in, 33, 41), 33,
                        lambda: _interpolated(_resize_in.array, 33, 41)),
    "concat-odd-rows": (lambda: ops.concat_channels(_cat_in), 31,
                        lambda: np.concatenate([p.array for p in _cat_in], axis=2)),
}


def npmca_threads():
    return [t for t in threading.enumerate() if t.name.startswith("npmca")]


class TestRowHalves:
    """Inside ``ops.row_halves`` untaped products with at least 1024 rows
    are computed as two row halves, those with fewer rows but at least 1024
    columns as two column halves, and untaped per-pixel steps past their
    measured cut as two row halves of their output. The halves are the same
    with and without the helper thread, so the results are equal bit for
    bit.

    The references are the whole products, so outside ``row_halves`` the
    blocks of ``TestBlocks`` are lifted here."""

    @pytest.fixture(autouse=True)
    def whole_products(self, monkeypatch):
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", 1 << 60)
        monkeypatch.setattr(ops, "MATCH_BLOCK_BYTES", 1 << 60)

    @pytest.mark.parametrize("n", [1024, 1037, 1536, 2047, 2400])
    def test_softmax_match_is_bitwise(self, monkeypatch, n):
        given = helper_halves(monkeypatch)
        r = np.random.default_rng(n)
        ref, tar = r.normal(size=(n, 16)), r.normal(size=(n, 16))
        whole = ops.softmax_match(ref, tar).array
        halves = halves_with_and_without_helper(monkeypatch, lambda: ops.softmax_match(ref, tar))
        # the similarity's row halves, the column extremes, the shifted exp,
        # the column sums' column halves, the divide, and the (16, n) blend's
        # column halves
        assert given == [(n // 2, n)] * 6
        assert_allclose(halves, whole, rtol=1e-12, atol=0)
        assert npmca_threads() == []

    @pytest.mark.parametrize("n", [1024, 1037, 2047])
    def test_column_sums_in_halves_are_bitwise(self, monkeypatch, n):
        given = helper_halves(monkeypatch)
        m = np.random.default_rng(n).normal(size=(n, n)) * 4.0
        e = np.exp(m - m.max(axis=0))
        whole = e / e.sum(axis=0)
        assert ops._softmax_columns_inplace(m).tobytes() == whole.tobytes()
        halves = halves_with_and_without_helper(monkeypatch, lambda: Tensor(ops._softmax_columns_inplace(m, split=True)))
        assert halves.tobytes() == whole.tobytes()
        # per run with the helper: the extremes, the shifted exp, the column sums, the divide
        assert given == [(n // 2, n)] * 4

    @pytest.mark.parametrize("step", sorted(PER_PIXEL_STEPS))
    def test_per_pixel_steps_are_bitwise(self, monkeypatch, step):
        given = helper_halves(monkeypatch)
        call, rows, plain = PER_PIXEL_STEPS[step]
        whole = call().array
        assert whole.tobytes() == np.ascontiguousarray(plain()).tobytes()
        halves = halves_with_and_without_helper(monkeypatch, call)
        if step in ("upsample", "resize-odd-rows"):
            assert_allclose(halves, whole, rtol=1e-12, atol=0)
        else:
            assert halves.tobytes() == whole.tobytes()
        assert given == [(rows // 2, rows)]
        assert npmca_threads() == []

    def test_per_pixel_steps_take_no_half_below_their_cut_taped_or_on_other_threads(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        given = helper_halves(monkeypatch)
        below = [  # 163680 entries read, or 3096576 and 3105270 multiply-adds, and a matrix
            lambda: ops.relu(_map(31, 33, 160)),
            lambda: ops.concat_channels([_map(31, 33, 100), _map(31, 33, 60)]),
            lambda: ops.bilinear_resize(_map(62, 66, 40), 31, 33),
            lambda: ops.bilinear_resize(_map(16, 24, 63), 32, 48),
            lambda: ops.bilinear_resize(_map(20, 30, 63), 31, 33),
            lambda: ops.relu(_map(4096, 2)),
        ]

        def steps(wrap):  # each writes a 32x48 map, split at row 16 when it splits
            return [lambda: ops.relu(wrap(rng.normal(size=(32, 48, 107)))),
                    lambda: ops.concat_channels([wrap(rng.normal(size=(32, 48, 100))), _map(32, 48, 7)]),
                    lambda: ops.bilinear_resize(wrap(rng.normal(size=(64, 96, 27))), 32, 48),
                    lambda: ops.bilinear_resize(wrap(rng.normal(size=(16, 24, 64))), 32, 48)]

        with ops.row_halves():
            for call in below + steps(Tape().watch):
                call()
            other = threading.Thread(target=lambda: [call() for call in steps(Tensor)])
            other.start()
            other.join(timeout=60)
            assert not other.is_alive()
        assert given == []
        with ops.row_halves():
            for call in steps(Tensor):
                call()
        assert given == [(16, 32)] * 4

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
        shapes = model_conv_shapes(size, plan)
        assert len(shapes) >= 8

        r = np.random.default_rng(3)
        given = helper_halves(monkeypatch)
        split = 0
        for x_shape, w_shape, stride, pad in shapes:
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


def model_conv_shapes(size, plan=(16, 32, 64)):
    """(input shape, kernel shape, stride, pad) of every conv2d one
    untaped pass of the model makes on (H, W) frames."""
    shapes = set()
    conv = ops.conv2d

    def recording(x, w, b, stride=1, pad=0):
        shapes.add((x.shape, w.shape, stride, pad))
        return conv(x, w, b, stride, pad)

    r = np.random.default_rng(3)
    params = init_model_params(3, ModelConfig(stage_channels=plan))
    images = [r.uniform(size=(*size, 3)) for _ in range(3)]
    ops.conv2d = recording
    try:
        forward_single_object(params, images[0], images[1], images[2], r.uniform(size=size))
    finally:
        ops.conv2d = conv
    return sorted(shapes)


def matmul_rows(monkeypatch):
    """The (rows, columns) of every output ``np.matmul`` writes into."""
    outs = []
    matmul = np.matmul

    def recording(*args, **kwargs):
        outs.append(kwargs["out"].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return outs


class TestBlocks:
    """Outside ``row_halves``, an untaped conv2d lays out a large patch
    matrix in row blocks and an untaped softmax_match runs a large
    similarity in column blocks: equal to the whole calls bit for bit,
    and holding one block at a time."""

    @pytest.mark.parametrize("size", [(48, 72), (64, 96), (80, 120), (128, 192)],
                             ids=["48x72", "64x96", "80x120", "128x192"])
    def test_conv2d_blocks_equal_the_whole_product(self, monkeypatch, size):
        # the three workloads' frames and criterion 8's three inference scales
        r = np.random.default_rng(5)
        blocked, short = 0, 0
        for x_shape, w_shape, stride, pad in model_conv_shapes(size):
            x, w, b = r.normal(size=x_shape), r.normal(size=w_shape), r.normal(size=w_shape[-1])
            with monkeypatch.context() as patch:
                patch.setattr(ops, "CONV_BLOCK_BYTES", 1 << 60)
                whole = ops.conv2d(x, w, b, stride, pad).array
            with monkeypatch.context() as patch:
                outs = matmul_rows(patch)
                got = ops.conv2d(x, w, b, stride, pad).array
            assert got.tobytes() == whole.tobytes(), (x_shape, w_shape)
            width = w_shape[0] * w_shape[1] * w_shape[2]
            if w_shape[0] == 1 or 8 * x_shape[0] * x_shape[1] * width <= ops.CONV_BLOCK_BYTES:
                assert outs == [(x_shape[0] * x_shape[1], w_shape[-1])]
                continue
            rows = [n for n, _ in outs]
            assert len(rows) > 1 and sum(rows) == x_shape[0] * x_shape[1]
            assert max(rows) * width * 8 <= ops.CONV_BLOCK_BYTES
            assert set(rows[:-1]) == {rows[0]} and rows[-1] <= rows[0]
            blocked += 1
            short += rows[-1] < rows[0]
        # convs blocked, and those with a short last block (at 80x120, refine2's
        # 40x60 map: blocks of 14, 14 and 12 map rows)
        assert (blocked, short) == {(48, 72): (0, 0), (64, 96): (1, 0), (80, 120): (4, 1), (128, 192): (8, 2)}[size]

    @pytest.mark.parametrize("n", [216, 384, 600, 1024, 1536])
    def test_softmax_match_blocks_from_the_budget_and_equal_the_whole_match(self, monkeypatch, n):
        r = np.random.default_rng(n)
        ref, tar = r.normal(size=(n, 16)), r.normal(size=(n, 16))
        with monkeypatch.context() as patch:
            patch.setattr(ops, "MATCH_BLOCK_BYTES", 1 << 60)
            whole = ops.softmax_match(ref, tar).array
        with monkeypatch.context() as patch:
            outs = matmul_rows(patch)
            got = ops.softmax_match(ref, tar).array
        assert got.tobytes() == whole.tobytes()
        if n < 1024:  # a similarity under MATCH_BLOCK_BYTES stays whole
            assert outs == [(n, n), (16, n)]
        else:
            widths = [min(384, n - lo) for lo in range(0, n, ops.MATCH_BLOCK_COLUMNS)]
            assert outs == [shape for w in widths for shape in ((n, w), (16, w))]

    def test_blocks_run_only_untaped_and_outside_row_halves(self, monkeypatch):
        x, w, b = rng.normal(size=(64, 96, 32)), rng.normal(size=(3, 3, 32, 16)), rng.normal(size=16)
        ref, tar = rng.normal(size=(1536, 16)), rng.normal(size=(1536, 16))
        with monkeypatch.context() as patch:
            outs = matmul_rows(patch)
            tape = Tape()
            ops.conv2d(tape.watch(x), w, b, 1, 1)
            ops.softmax_match(tape.watch(ref), tar)
            use_cpus(patch, 1)
            with ops.row_halves():
                ops.conv2d(x, w, b, 1, 1)
                ops.softmax_match(ref, tar)
        # the taped conv multiplies its whole patch matrix (the taped match
        # takes ``@``); inside row_halves, each product takes its two halves
        assert outs == [(6144, 16)] + [(3072, 16)] * 2 + [(768, 1536)] * 2 + [(16, 768)] * 2

    def test_a_blocked_call_holds_its_output_and_one_block(self):
        x, w, b = rng.normal(size=(64, 96, 32)), rng.normal(size=(3, 3, 32, 16)), rng.normal(size=16)
        ref, tar = rng.normal(size=(1536, 16)), rng.normal(size=(1536, 16))
        padded, slack = 66 * 98 * 32 * 8, 128 << 10  # the slack: numpy's reduction buffers and small vectors
        calls = [(lambda: ops.conv2d(x, w, b, 1, 1), 64 * 96 * 16 * 8 + padded + ops.CONV_BLOCK_BYTES),
                 (lambda: ops.softmax_match(ref, tar), 16 * 1536 * 8 + 1536 * ops.MATCH_BLOCK_COLUMNS * 8)]
        for call, bound in calls:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = call()
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert out.array.nbytes + 8 * 1536 <= peak <= bound + slack, (peak, bound)
        # the whole patch matrix and the whole similarity
        assert 64 * 96 * 288 * 8 > 3 * ops.CONV_BLOCK_BYTES and 8 * 1536**2 > 3 * ops.MATCH_BLOCK_COLUMNS * 1536 * 8


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

    @pytest.mark.parametrize("stride", [1, 2])
    def test_patch_view_is_a_read_only_window_of_the_padded_map(self, stride):
        xp = rng.normal(size=(9, 11, 3))
        kh, kw = 3, 5
        oh, ow = (9 - kh) // stride + 1, (11 - kw) // stride + 1
        view = ops._patch_view(xp, kh, kw, stride, oh, ow)
        s = xp.itemsize
        expected = np.lib.stride_tricks.as_strided(
            xp, shape=(oh, ow, kh, kw * 3), strides=(stride * 11 * 3 * s, stride * 3 * s, 11 * 3 * s, s), writeable=False)
        assert view.shape == expected.shape and view.strides == expected.strides
        assert np.array_equal(view, expected)
        for y, x in ((0, 0), (oh - 1, ow - 1)):
            window = xp[y * stride : y * stride + kh, x * stride : x * stride + kw]
            assert np.array_equal(view[y, x], window.reshape(kh, kw * 3))
        assert np.shares_memory(view, xp)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("stride", [1, 2])
    def test_tap_windows_write_into_the_map(self, stride):
        xp = np.zeros((9, 11, 2))
        oh, ow = (9 - 3) // stride + 1, (11 - 3) // stride + 1
        windows = ops._tap_windows(xp, 3, 3, stride, oh, ow)
        for i in range(3):
            for j in range(3):
                assert np.shares_memory(windows[i, j], xp)
                np.add(windows[i, j], 1.0, out=windows[i, j])
        reference = np.zeros_like(xp)
        for i in range(3):
            for j in range(3):
                reference[i : i + stride * oh : stride, j : j + stride * ow : stride] += 1.0
        assert np.array_equal(xp, reference)

    @pytest.mark.parametrize("stride, pad", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_taped_conv_adjoints_equal_padding_again(self, stride, pad):
        # the adjoints that reuse the forward's padded map have the bits of
        # the ones that pad the input again and lay its patches out by hand
        h, wd, cin, cout, k = 7, 9, 2, 3, 3
        x_arr, w_arr = rng.normal(size=(h, wd, cin)), rng.normal(size=(k, k, cin, cout))
        tape = Tape()
        x, w = tape.watch(x_arr), tape.watch(w_arr)
        out = ops.conv2d(x, w, Tensor(rng.normal(size=cout)), stride=stride, pad=pad)
        oh, ow = out.shape[:2]
        g = rng.normal(size=out.shape)
        grads = tape.backward(ops.total_sum(ops.mul(out, Tensor(g))))

        xp = np.pad(x_arr, ((pad, pad), (pad, pad), (0, 0)))
        cols = np.empty((oh * ow, k * k * cin))
        for y in range(oh):
            for x0 in range(ow):
                cols[y * ow + x0] = xp[y * stride : y * stride + k, x0 * stride : x0 * stride + k].ravel()
        g2 = g.reshape(oh * ow, cout)
        dxp = np.zeros(xp.shape)
        for i in range(k):
            for j in range(k):
                dxp[i : i + stride * oh : stride, j : j + stride * ow : stride] += (g2 @ w_arr[i, j].T).reshape(oh, ow, cin)
        assert np.array_equal(grads.of(w), (cols.T @ g2).reshape(w_arr.shape))
        assert np.array_equal(grads.of(x), dxp[pad : pad + h, pad : pad + wd])

    def test_tape_holds_the_padded_map_not_the_input(self):
        # what a taped conv leaves alive once its input and output are gone:
        # the padded map (34 x 42 x 8), neither the input (32 x 40 x 8) too
        # nor the nine times wider patch matrix
        w, b = Tensor(rng.normal(size=(3, 3, 8, 4))), Tensor(np.zeros(4))
        padded_bytes, input_bytes = 34 * 42 * 8 * 8, 32 * 40 * 8 * 8
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x = tape.watch(rng.normal(size=(32, 40, 8)))
            out = ops.conv2d(x, w, b, stride=1, pad=1)
            del x, out
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        assert padded_bytes <= held < padded_bytes + input_bytes // 2, held

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
