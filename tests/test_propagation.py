"""Aggregation math and the sequential inference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from npmca import oracles
from npmca.datagen import VideoSequence, generate_sequence, load_sequence, random_scene, write_sequence
from npmca.errors import ShapeError
from npmca.model import ModelConfig, init_model_params
from npmca.propagation import (
    InferenceOptions,
    aggregate_multi_object,
    infer_sequence,
    mask_out_background,
    write_predictions,
)
from npmca.netpbm import read_pgm, to_unit_float
from npmca.rng import make_rng


class TestMaskOutBackground:
    def test_full_foreground_and_full_background(self):
        rng = make_rng(0)
        rgb = rng.uniform(size=(6, 7, 3))
        assert np.array_equal(mask_out_background(rgb, np.ones((6, 7), dtype=int), 1), rgb)
        assert (mask_out_background(rgb, np.zeros((6, 7), dtype=int), 1) == 0).all()

    def test_checkerboard_matches_loop_oracle(self):
        rng = make_rng(1)
        rgb = rng.uniform(size=(8, 8, 3))
        mask = np.indices((8, 8)).sum(axis=0) % 2
        got = mask_out_background(rgb, mask, 1)
        for y in range(8):
            for x in range(8):
                want = rgb[y, x] if mask[y, x] == 1 else np.zeros(3)
                assert np.array_equal(got[y, x], want)

    def test_rejects_bad_ids_and_shapes(self):
        rgb = np.zeros((4, 4, 3))
        with pytest.raises(ValueError):
            mask_out_background(rgb, np.zeros((4, 4), dtype=int), 0)
        with pytest.raises(ShapeError):
            mask_out_background(rgb, np.zeros((4, 5), dtype=int), 1)


class TestAggregateMultiObject:
    def test_symmetric_single_object_case(self):
        out = aggregate_multi_object(np.full((1, 3, 3), 0.5))
        assert_allclose(out.probabilities[0], 0.5)
        assert_allclose(out.probabilities[1], 0.5)
        assert (out.labels == 0).all()  # ties go to the smaller index

    def test_hand_worked_two_object_pixel(self):
        out = aggregate_multi_object(np.array([[[0.2]], [[0.8]]]))
        assert_allclose(
            out.probabilities[:, 0, 0], [0.042896, 0.056300, 0.900804], atol=1e-6
        )
        assert out.labels[0, 0] == 2

    def test_uniform_odds_give_uniform_distribution(self):
        # p_m = 1 - (1-p)^M has the same odds as p_0 when every map is p
        # and M = 1; for the general uniform check use equal maps and
        # verify all object rows agree
        out = aggregate_multi_object(np.full((3, 2, 2), 0.4))
        assert_allclose(out.probabilities[1], out.probabilities[2])
        assert_allclose(out.probabilities[2], out.probabilities[3])

    def test_matches_loop_oracle(self):
        rng = make_rng(2)
        for m in (1, 2, 3):
            stack = rng.uniform(size=(m, 5, 4))
            got = aggregate_multi_object(stack)
            want_probs, want_labels = oracles.aggregate_loops(stack)
            assert_allclose(got.probabilities, want_probs, atol=1e-12)
            assert np.array_equal(got.labels, want_labels)

    def test_extreme_probabilities_stay_finite(self):
        out = aggregate_multi_object(np.array([[[0.0, 1.0]], [[1.0, 1.0]]]))
        assert np.isfinite(out.probabilities).all()
        assert_allclose(out.probabilities.sum(axis=0), 1.0, atol=1e-9)

    def test_empty_stack_is_rejected(self):
        with pytest.raises(ValueError):
            aggregate_multi_object(np.zeros((0, 4, 4)))

    @given(
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_distribution_and_argmax_preservation(self, m, seed):
        stack = make_rng(seed).uniform(0.01, 0.99, size=(m, 4, 3))
        out = aggregate_multi_object(stack)
        assert_allclose(out.probabilities.sum(axis=0), 1.0, atol=1e-9)
        assert (out.probabilities >= 0).all()
        # among the object rows, aggregation preserves the argmax of the
        # raw maps because x/(1-x) is strictly increasing
        assert np.array_equal(
            out.probabilities[1:].argmax(axis=0), stack.argmax(axis=0)
        )

    def test_object_wins_iff_probability_above_half_when_alone(self):
        stack = make_rng(3).uniform(size=(1, 6, 6))
        out = aggregate_multi_object(stack)
        assert np.array_equal(out.labels == 1, stack[0] > 0.5)


def tiny_setup(seed=0, preset="default", frames=4):
    cfg = random_scene(seed, preset, resolution=(32, 48), frames=frames)
    video = generate_sequence(cfg, seed, f"seq{seed:02d}")
    params = init_model_params(seed + 50, ModelConfig(stage_channels=(4, 6, 8)))
    return video, params


class TestInferSequence:
    def test_single_frame_returns_the_given_mask(self):
        video, params = tiny_setup()
        video.frames = video.frames[:1]
        video.masks = video.masks[:1]
        result = infer_sequence(video, video.masks[0], params)
        assert len(result.masks) == 1
        assert np.array_equal(result.masks[0], video.masks[0])

    def test_repeated_scales_change_nothing(self):
        video, params = tiny_setup(1)
        one = infer_sequence(video, video.masks[0], params, InferenceOptions(scales=(1.0,)))
        three = infer_sequence(video, video.masks[0], params, InferenceOptions(scales=(1.0, 1.0, 1.0)))
        for a, b in zip(one.masks, three.masks):
            assert np.array_equal(a, b)

    def test_first_feature_cache_is_invisible(self):
        video, params = tiny_setup(2)
        cached = infer_sequence(video, video.masks[0], params, InferenceOptions(cache_first_features=True))
        fresh = infer_sequence(video, video.masks[0], params, InferenceOptions(cache_first_features=False))
        for a, b in zip(cached.masks, fresh.masks):
            assert np.array_equal(a, b)
        for a, b in zip(cached.stacks, fresh.stacks):
            assert np.array_equal(a, b)

    def test_reruns_are_bitwise_identical(self):
        video, params = tiny_setup(3)
        a = infer_sequence(video, video.masks[0], params)
        b = infer_sequence(video, video.masks[0], params)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)

    def test_output_shapes_and_labels(self):
        video, params = tiny_setup(4, "occlusion-heavy")
        result = infer_sequence(video, video.masks[0], params)
        ids = set(result.object_ids)
        assert ids == {1, 2}
        assert len(result.masks) == len(video.frames)
        for mask, stack in zip(result.masks, result.stacks):
            assert mask.shape == (32, 48)
            assert stack.shape == (3, 32, 48)
            assert set(np.unique(mask)) <= {0} | ids
            assert_allclose(stack.sum(axis=0), 1.0, atol=1e-9)

    def test_ablation_switches_produce_output(self):
        video, params = tiny_setup(5)
        for options in (
            InferenceOptions(first_frame_only=True),
            InferenceOptions(disable_cm=True),
            InferenceOptions(soft_guidance=False),
            InferenceOptions(soft_reference_mask=True),
        ):
            result = infer_sequence(video, video.masks[0], params, options)
            assert len(result.masks) == len(video.frames)

    def test_disable_cm_changes_the_computation(self):
        video, params = tiny_setup(6)
        on = infer_sequence(video, video.masks[0], params)
        off = infer_sequence(video, video.masks[0], params, InferenceOptions(disable_cm=True))
        assert any(not np.array_equal(a, b) for a, b in zip(on.stacks[1:], off.stacks[1:]))

    def test_argument_errors(self):
        video, params = tiny_setup(7)
        with pytest.raises(ShapeError):
            infer_sequence(video, np.zeros((8, 8), dtype=int), params)
        with pytest.raises(ValueError):
            infer_sequence(video, np.zeros((32, 48), dtype=int), params)
        with pytest.raises(ValueError):
            InferenceOptions(scales=())
        with pytest.raises(ValueError):
            InferenceOptions(scales=(0.5, -1.0))
        for scales in ((float("inf"),), (float("nan"),), (1.0, float("inf"))):
            with pytest.raises(ValueError, match="finite and > 0"):
                InferenceOptions(scales=scales)

    def test_predictions_written_as_pgm_tree(self, tmp_path):
        video, params = tiny_setup(8)
        result = infer_sequence(video, video.masks[0], params, InferenceOptions(scales=(1.0,)))
        base = write_predictions(tmp_path, video.name, result, dump_probs=True)
        raster = read_pgm(f"{base}/00001.pgm")
        assert np.array_equal(raster.astype(np.int64), result.masks[1])
        first_prob = read_pgm(f"{base}/probs/00001_00.pgm")
        assert first_prob.shape == (32, 48)


class TestLoadedClips:
    """Clips loaded as file bytes give what the same clips converted to
    float64 up front give, bit for bit."""

    @pytest.mark.parametrize("options", [
        InferenceOptions(),
        InferenceOptions(first_frame_only=True, soft_guidance=False),
        InferenceOptions(scales=(1.0,), soft_reference_mask=True, cache_first_features=False),
    ], ids=["default", "first-frame-only-hard", "soft-reference-uncached"])
    def test_stacks_and_labels_equal_float_clips(self, tmp_path, options):
        write_sequence(tmp_path, generate_sequence(random_scene(9, "occlusion-heavy", (32, 48), 4), 9, "seq"))
        loaded = load_sequence(tmp_path, "seq")
        converted = VideoSequence("seq", [to_unit_float(f) for f in loaded.frames], [m.astype(np.int64) for m in loaded.masks])
        params = init_model_params(0, ModelConfig())
        got = infer_sequence(loaded, loaded.masks[0], params, options)
        want = infer_sequence(converted, converted.masks[0], params, options)
        assert got.object_ids == want.object_ids == [1, 2]
        for a, b in zip(got.masks, want.masks):
            assert a.dtype == b.dtype == np.uint8
            assert a.tobytes() == b.tobytes()
        for a, b in zip(got.stacks, want.stacks):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad_id", [256, 300, -1])
    def test_ids_a_pgm_cannot_hold_are_refused(self, bad_id):
        video, params = tiny_setup(9)
        first = video.masks[0].astype(np.int64)
        first[first == 1] = bad_id
        with pytest.raises(ValueError, match=r"object ids must lie in 1\.\.255"):
            infer_sequence(video, first, params)
