"""End-to-end checks of the toy network wiring and its checkpoint format."""

import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmca import oracles
from npmca import ops
from npmca.autodiff import Tape
from npmca.errors import ConfigError, FormatError, ShapeError
from npmca.model import (
    CHECKPOINT_MAGIC,
    ModelConfig,
    encode_reference_image,
    forward_single_object,
    fuse,
    init_model_params,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from npmca.matching import FeatureMap
from npmca.rng import make_rng
from npmca.tensor import Tensor

# --- an independent forward pass -------------------------------------------
#
# Rebuilt from the layer definitions with different numpy machinery than the
# package uses anywhere: windowed views + einsum for the convolutions and a
# four-corner gather for the bilinear resizes. Agreement at 1e-9 between this
# and the tape-based forward checks the whole wiring, not just the pieces.


def conv_swv(x, w, b, pad):
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    k = w.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(0, 1))
    return np.einsum("hwcij,ijco->hwo", win, w) + b


def resize_gather(x, oh, ow):
    h, w, _ = x.shape
    sy = np.clip((np.arange(oh) + 0.5) * h / oh - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(ow) + 0.5) * w / ow - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0)[:, None, None]
    fx = (sx - x0)[None, :, None]
    return (
        x[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + x[np.ix_(y0, x1)] * (1 - fy) * fx
        + x[np.ix_(y1, x0)] * fy * (1 - fx)
        + x[np.ix_(y1, x1)] * fy * fx
    )


def _softmax_cols(m):
    e = np.exp(m - m.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def _conv(x, cp, pad):
    return conv_swv(x, cp.w.value.array, cp.b.value.array, pad)


def _stage_np(x, cp, down):
    y = np.maximum(_conv(x, cp, 1), 0.0)
    if down:
        y = resize_gather(y, y.shape[0] // 2, y.shape[1] // 2)
    return y


def _encode_np(img, enc):
    s1 = _stage_np(img, enc.stage1, True)
    s2 = _stage_np(s1, enc.stage2, True)
    return _stage_np(s2, enc.stage3, False), s1, s2


def _nlpmm_np(f_ref, f_tar, p):
    r_ref = conv_swv(f_ref, p.reduce_ref_w.value.array, p.reduce_ref_b.value.array, 1)
    r_tar = conv_swv(f_tar, p.reduce_tar_w.value.array, p.reduce_tar_b.value.array, 1)
    h, w, c4 = r_ref.shape
    ref = r_ref.reshape(h * w, c4)
    tar = r_tar.reshape(h * w, c4)
    sn = _softmax_cols(ref @ tar.T)
    return (ref.T @ sn).T.reshape(h, w, c4)


def _cm_np(f, gamma):
    h, w, c4 = f.shape
    flat = f.reshape(h * w, c4)
    gn = _softmax_cols(flat.T @ flat)
    return (gamma * (flat @ gn) + flat).reshape(h, w, c4)


def forward_numpy(params, first, prev, cur, guid, disable_cm=False):
    if params.config.single_encoder:
        zero = np.zeros(first.shape[:2] + (1,))
        f_first, _, _ = _encode_np(np.concatenate([first, zero], axis=2), params.tar_encoder)
        f_prev, _, _ = _encode_np(np.concatenate([prev, zero], axis=2), params.tar_encoder)
    else:
        f_first, _, _ = _encode_np(first, params.ref_encoder)
        f_prev, _, _ = _encode_np(prev, params.ref_encoder)
    f_tar, s1, s2 = _encode_np(np.concatenate([cur, guid[:, :, None]], axis=2), params.tar_encoder)

    m_first = _nlpmm_np(f_first, f_tar, params.nlpmm_first)
    m_prev = _nlpmm_np(f_prev, f_tar, params.nlpmm_prev)
    if not disable_cm:
        m_first = _cm_np(m_first, params.cm_first.gamma())
        m_prev = _cm_np(m_prev, params.cm_prev.gamma())

    fused = _conv(np.concatenate([m_first, m_prev], axis=2), params.fusion, 1)

    x = np.maximum(_conv(np.concatenate([fused, s2], axis=2), params.refine1, 1), 0.0)
    x = resize_gather(x, 2 * x.shape[0], 2 * x.shape[1])
    x = np.maximum(_conv(np.concatenate([x, s1], axis=2), params.refine2, 1), 0.0)
    x = resize_gather(x, 2 * x.shape[0], 2 * x.shape[1])
    logits = _conv(x, params.head, 0)[:, :, 0]
    return 1.0 / (1.0 + np.exp(-logits))


def random_inputs(rng, h=32, w=48):
    first = rng.uniform(0.0, 1.0, size=(h, w, 3))
    prev = rng.uniform(0.0, 1.0, size=(h, w, 3))
    cur = rng.uniform(0.0, 1.0, size=(h, w, 3))
    guid = rng.uniform(0.0, 1.0, size=(h, w))
    return first, prev, cur, guid


class TestForward:
    def test_matches_independent_composition(self):
        rng = make_rng(11)
        params = init_model_params(7)
        first, prev, cur, guid = random_inputs(rng)
        got = forward_single_object(params, first, prev, cur, guid).array
        want = forward_numpy(params, first, prev, cur, guid)
        assert got.shape == (32, 48)
        assert_allclose(got, want, atol=1e-9)

    def test_single_encoder_matches_independent_composition(self):
        rng = make_rng(12)
        params = init_model_params(7, ModelConfig(single_encoder=True))
        first, prev, cur, guid = random_inputs(rng)
        got = forward_single_object(params, first, prev, cur, guid).array
        assert_allclose(got, forward_numpy(params, first, prev, cur, guid), atol=1e-9)

    def test_disable_cm_equals_zero_gamma(self):
        rng = make_rng(13)
        params = init_model_params(7)
        params.cm_first.raw_gamma.value = Tensor(np.asarray(-800.0))
        params.cm_prev.raw_gamma.value = Tensor(np.asarray(-800.0))
        first, prev, cur, guid = random_inputs(rng, 16, 16)
        on = forward_single_object(params, first, prev, cur, guid, disable_cm=False).array
        off = forward_single_object(params, first, prev, cur, guid, disable_cm=True).array
        assert np.array_equal(on, off)

    # the model's pass sizes too, where conv2d and softmax_match run in blocks,
    # at both channel plans: a FeatureMap gives the bits of the image it was made from
    @pytest.mark.parametrize("plan", [(16, 32, 64), (4, 6, 8)], ids=["default-plan", "small-plan"])
    @pytest.mark.parametrize("size", [(16, 24), (64, 96), (128, 192)], ids=["16x24", "64x96", "128x192"])
    def test_cached_first_features_change_nothing(self, size, plan):
        rng = make_rng(14)
        params = init_model_params(9, ModelConfig(stage_channels=plan))
        first, prev, cur, guid = random_inputs(rng, *size)
        plain = forward_single_object(params, first, prev, cur, guid).array
        first_features = encode_reference_image(params, first)
        prev_features = encode_reference_image(params, prev)
        as_first = forward_single_object(params, first_features, prev, cur, guid).array
        as_prev = forward_single_object(params, first, prev_features, cur, guid).array
        as_both = forward_single_object(params, first_features, prev_features, cur, guid).array
        for got in (as_first, as_prev, as_both):
            assert got.tobytes() == plain.tobytes()

    def test_probabilities_live_in_unit_interval(self):
        rng = make_rng(15)
        params = init_model_params(3)
        first, prev, cur, guid = random_inputs(rng, 16, 16)
        prob = forward_single_object(params, first, prev, cur, guid).array
        assert prob.min() > 0.0 and prob.max() < 1.0

    def test_rejects_sizes_not_divisible_by_four(self):
        params = init_model_params(1)
        bad = np.zeros((30, 48, 3))
        with pytest.raises(ShapeError):
            forward_single_object(params, bad, bad, bad, np.zeros((30, 48)))

    def test_rejects_guidance_outside_unit_interval(self):
        params = init_model_params(1)
        img = np.zeros((16, 16, 3))
        with pytest.raises(ValueError):
            forward_single_object(params, img, img, img, np.full((16, 16), 2.0))

    def test_rejects_mismatched_reference(self):
        params = init_model_params(1)
        img = np.zeros((16, 16, 3))
        with pytest.raises(ShapeError):
            forward_single_object(params, np.zeros((16, 20, 3)), img, img, np.zeros((16, 16)))

    def test_fuse_of_zeros_is_bias_map(self):
        params = init_model_params(2)
        params.fusion.b.value = Tensor(np.linspace(-1.0, 1.0, 16))
        zero = FeatureMap(Tensor(np.zeros((4, 4, 16))))
        out = fuse(zero, zero, params.fusion).tensor.array
        assert_allclose(out, np.broadcast_to(np.linspace(-1.0, 1.0, 16), (4, 4, 16)))


# The full parameter order (30 and 24 names), which the checkpoint layout
# and Adam's state follow.
DEFAULT_NAMES = [
    "ref_encoder/stage1/w",
    "ref_encoder/stage1/b",
    "ref_encoder/stage2/w",
    "ref_encoder/stage2/b",
    "ref_encoder/stage3/w",
    "ref_encoder/stage3/b",
    "tar_encoder/stage1/w",
    "tar_encoder/stage1/b",
    "tar_encoder/stage2/w",
    "tar_encoder/stage2/b",
    "tar_encoder/stage3/w",
    "tar_encoder/stage3/b",
    "nlpmm_first/reduce_ref/w",
    "nlpmm_first/reduce_ref/b",
    "nlpmm_first/reduce_tar/w",
    "nlpmm_first/reduce_tar/b",
    "nlpmm_prev/reduce_ref/w",
    "nlpmm_prev/reduce_ref/b",
    "nlpmm_prev/reduce_tar/w",
    "nlpmm_prev/reduce_tar/b",
    "cm_first/raw_gamma",
    "cm_prev/raw_gamma",
    "fusion/w",
    "fusion/b",
    "decoder/refine1/w",
    "decoder/refine1/b",
    "decoder/refine2/w",
    "decoder/refine2/b",
    "decoder/head/w",
    "decoder/head/b",
]

SINGLE_ENCODER_NAMES = [
    "encoder/stage1/w",
    "encoder/stage1/b",
    "encoder/stage2/w",
    "encoder/stage2/b",
    "encoder/stage3/w",
    "encoder/stage3/b",
    "nlpmm_first/reduce_ref/w",
    "nlpmm_first/reduce_ref/b",
    "nlpmm_first/reduce_tar/w",
    "nlpmm_first/reduce_tar/b",
    "nlpmm_prev/reduce_ref/w",
    "nlpmm_prev/reduce_ref/b",
    "nlpmm_prev/reduce_tar/w",
    "nlpmm_prev/reduce_tar/b",
    "cm_first/raw_gamma",
    "cm_prev/raw_gamma",
    "fusion/w",
    "fusion/b",
    "decoder/refine1/w",
    "decoder/refine1/b",
    "decoder/refine2/w",
    "decoder/refine2/b",
    "decoder/head/w",
    "decoder/head/b",
]


class TestParameters:
    def test_names_and_count(self, tmp_path):
        assert list(init_model_params(0).named_parameters()) == DEFAULT_NAMES
        save_checkpoint(tmp_path / "model.ckpt", init_model_params(1))
        assert list(read_checkpoint(tmp_path / "model.ckpt")) == DEFAULT_NAMES

    def test_single_encoder_names(self, tmp_path):
        config = ModelConfig(single_encoder=True)
        assert list(init_model_params(0, config).named_parameters()) == SINGLE_ENCODER_NAMES
        save_checkpoint(tmp_path / "model.ckpt", init_model_params(1, config))
        assert list(read_checkpoint(tmp_path / "model.ckpt")) == SINGLE_ENCODER_NAMES

    def test_shapes_follow_channel_plan(self):
        p = init_model_params(0).named_parameters()
        assert p["tar_encoder/stage1/w"].value.shape == (3, 3, 4, 16)
        assert p["ref_encoder/stage1/w"].value.shape == (3, 3, 3, 16)
        assert p["nlpmm_first/reduce_ref/w"].value.shape == (3, 3, 64, 16)
        assert p["fusion/w"].value.shape == (3, 3, 32, 16)
        assert p["decoder/refine1/w"].value.shape == (3, 3, 48, 16)
        assert p["decoder/refine2/w"].value.shape == (3, 3, 32, 16)
        assert p["decoder/head/w"].value.shape == (1, 1, 16, 1)
        assert p["cm_first/raw_gamma"].value.shape == ()

    def test_init_is_seed_deterministic(self):
        a = init_model_params(5).named_parameters()
        b = init_model_params(5).named_parameters()
        c = init_model_params(6).named_parameters()
        for name in a:
            assert np.array_equal(a[name].value.array, b[name].value.array)
        assert not np.array_equal(a["fusion/w"].value.array, c["fusion/w"].value.array)

    def test_feature_width_must_divide_by_four(self):
        with pytest.raises(ConfigError):
            ModelConfig(stage_channels=(4, 8, 10))


class TestGradients:
    def test_every_group_against_finite_differences(self):
        """Whole-network gradient spot check on a miniature configuration."""
        rng = make_rng(21)
        params = init_model_params(17, ModelConfig(stage_channels=(4, 6, 8)))
        # At the near-identity init the blend weight's gradient is of order
        # 1e-7 and central differences bottom out in float64 cancellation
        # noise, so probe the blend at an active operating point instead.
        params.cm_first.raw_gamma.value = Tensor(np.asarray(0.5))
        params.cm_prev.raw_gamma.value = Tensor(np.asarray(0.5))
        first, prev, cur, guid = random_inputs(rng, 8, 8)

        # Mean-squared probability keeps the loss O(1) regardless of image
        # size, which keeps finite-difference cancellation noise far below
        # the tolerance. Probes go to each group's largest derivatives.
        n_px = first.shape[0] * first.shape[1]

        def run_loss():
            prob = forward_single_object(params, first, prev, cur, guid)
            return float(np.sum(prob.array**2)) / n_px

        tape = Tape()
        prob = forward_single_object(params, first, prev, cur, guid, tape=tape)
        tape.backward(ops.scale(ops.total_sum(ops.mul(prob, prob)), 1.0 / n_px))

        for name, p in params.named_parameters().items():
            flat = p.gradient.array.reshape(-1)
            idx = np.argsort(np.abs(flat))[-3:]
            want = oracles.finite_difference(run_loss, p.value.array, idx)
            for g, f in zip(flat[idx], want):
                assert oracles.relative_error(g, f) < 1e-5, name


class TestCheckpoint:
    def _randomized(self, seed, config=ModelConfig()):
        params = init_model_params(seed, config)
        rng = make_rng(seed + 100)
        for p in params.named_parameters().values():
            p.value = Tensor(rng.standard_normal(p.value.shape))
        return params

    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "model.ckpt"
        saved = self._randomized(3)
        save_checkpoint(path, saved)
        restored = init_model_params(4)
        load_checkpoint(path, restored)
        for name, p in saved.named_parameters().items():
            q = restored.named_parameters()[name]
            assert np.array_equal(p.value.array, q.value.array), name
        save_checkpoint(tmp_path / "again.ckpt", restored)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_scalar_parameters_round_trip(self, tmp_path):
        path = tmp_path / "model.ckpt"
        params = self._randomized(5)
        save_checkpoint(path, params)
        stored = read_checkpoint(path)
        assert stored["cm_first/raw_gamma"].shape == ()

    def test_bad_magic_is_rejected_at_offset_zero(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"GARBAGE" * 4)
        with pytest.raises(FormatError, match="offset 0"):
            read_checkpoint(path)

    def test_truncated_file_reports_an_offset(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._randomized(6))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="byte offset"):
            read_checkpoint(path)

    def test_duplicate_name_is_rejected(self, tmp_path):
        record = struct.pack("<I", 3) + b"a/w"
        record += struct.pack("<II", 1, 2) + np.asarray([1.0, 2.0]).tobytes()
        path = tmp_path / "dup.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + record + record)
        with pytest.raises(FormatError, match="duplicate"):
            read_checkpoint(path)

    def test_a_name_that_is_not_utf8_names_the_file_and_offset(self, tmp_path):
        path = tmp_path / "name.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 5) + b"\xff\xfe\xfd\xfc\xfb")
        with pytest.raises(FormatError, match="parameter name is not UTF-8") as caught:
            read_checkpoint(path)
        assert caught.value.offset == len(CHECKPOINT_MAGIC) + 4
        assert str(path) in str(caught.value)

    def test_dims_whose_product_wraps_int64_read_as_truncated(self, tmp_path):
        # 4194304**3 = 2**66 elements: an int64 product wraps to 0 and would
        # read no data, then fail in numpy's reshape without file or offset
        record = struct.pack("<I", 5) + b"big/w"
        record += struct.pack("<5I", 4, 4194304, 4194304, 4194304, 1) + np.asarray([1.0, 2.0]).tobytes()
        path = tmp_path / "huge.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + record)
        data_offset = len(CHECKPOINT_MAGIC) + 4 + 5 + 4 + 16
        with pytest.raises(FormatError, match="truncated while reading data of big/w") as caught:
            read_checkpoint(path)
        assert caught.value.offset == data_offset
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_is_rejected_by_name(self, tmp_path, value):
        path = tmp_path / "model.ckpt"
        params = self._randomized(8)
        head_b = params.named_parameters()["decoder/head/b"]
        head_b.value = Tensor(np.full(head_b.value.shape, value))
        save_checkpoint(path, params)
        with pytest.raises(FormatError, match="decoder/head/b holds non-finite values"):
            read_checkpoint(path)

    def test_wrong_architecture_is_refused(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._randomized(7))
        other = init_model_params(7, ModelConfig(single_encoder=True))
        with pytest.raises(ConfigError, match="encoder-mode"):
            load_checkpoint(path, other)
