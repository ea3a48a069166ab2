"""Aggregation math and the sequential inference loop."""

import hashlib
import os
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from npmca import blas, model, ops, oracles, propagation
from npmca.datagen import VideoSequence, generate_sequence, load_sequence, random_scene, write_sequence
from npmca.errors import ShapeError
from npmca.model import ModelConfig, init_model_params
from npmca.propagation import (
    InferenceOptions,
    InferResult,
    aggregate_multi_object,
    infer_sequence,
    mask_out_background,
    write_predictions,
)
from npmca.netpbm import read_pgm, to_unit_float
from npmca.rng import make_rng
from npmca.tensor import Tensor


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
        lines = open(f"{base}/stacks.sha256", encoding="ascii").read().splitlines()
        assert lines == [f"{t:05d} {hashlib.sha256(stack.tobytes()).hexdigest()}" for t, stack in enumerate(result.stacks)]

    def test_stack_hashes_see_a_change_the_rasters_miss(self, tmp_path):
        video, params = tiny_setup(8)
        result = infer_sequence(video, video.masks[0], params, InferenceOptions(scales=(1.0,)))
        nudged = InferResult(result.masks, [s.copy() for s in result.stacks], result.object_ids)
        nudged.stacks[2] *= 1 + 1e-15
        assert nudged.stacks[2].tobytes() != result.stacks[2].tobytes()
        trees = [write_predictions(tmp_path / tag, video.name, r, dump_probs=True)
                 for tag, r in (("plain", result), ("nudged", nudged))]
        files = [{os.path.relpath(os.path.join(d, f), base): open(os.path.join(d, f), "rb").read()
                  for d, _, names in os.walk(base) for f in names} for base in trees]
        assert files[0].keys() == files[1].keys()
        assert [rel for rel in files[0] if files[0][rel] != files[1][rel]] == ["stacks.sha256"]
        assert len(files[0]) == 1 + len(result.masks) + sum(len(stack) for stack in result.stacks)


class TestReferenceEncodes:
    """How often ``infer_sequence`` runs the reference encoder: frame 0's
    references once per (object, scale), before the frame loop."""

    @staticmethod
    def record_calls(monkeypatch):
        calls = []

        def counting(label, fn):
            def wrapped(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)
            return wrapped

        for owner, attr, label in ((model, "encode_reference", "encode_reference"),
                                   (propagation, "encode_reference_image", "first_reference"),
                                   (propagation, "forward_single_object", "forward")):
            monkeypatch.setattr(owner, attr, counting(label, getattr(owner, attr)))
        return calls

    @pytest.mark.parametrize("first_frame_only", [False, True], ids=["default", "first-frame-only"])
    def test_encodes_per_object_scale_and_frame(self, monkeypatch, first_frame_only):
        video, params = tiny_setup(4, "occlusion-heavy", frames=4)
        scales = (0.75, 1.0, 1.25)
        calls = self.record_calls(monkeypatch)
        result = infer_sequence(video, video.masks[0], params,
                                InferenceOptions(scales=scales, first_frame_only=first_frame_only))
        m, s, t = len(result.object_ids), len(scales), len(video.frames)
        assert m == 2
        # frame 0's M*S, plus the previous reference of every later frame's M*S passes
        assert calls.count("encode_reference") == (m * s if first_frame_only else m * s * t)
        assert calls.count("first_reference") == m * s
        assert calls.count("forward") == m * s * (t - 1)
        assert max(i for i, c in enumerate(calls) if c == "first_reference") < calls.index("forward")

    def test_single_frame_clip_runs_no_encoder(self, monkeypatch):
        video, params = tiny_setup(4, "occlusion-heavy")
        video.frames, video.masks = video.frames[:1], video.masks[:1]
        calls = self.record_calls(monkeypatch)
        result = infer_sequence(video, video.masks[0], params)
        assert len(result.masks) == 1
        assert calls == []


def use_threads(monkeypatch, threads):
    """Make ``blas.workers`` allow up to ``threads`` scale threads; 1 is
    the rule's answer when BLAS could not be pinned."""
    monkeypatch.setattr(blas, "PINNED", threads > 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)


def npmca_threads():
    return [t for t in threading.enumerate() if t.name.startswith("npmca")]


class TestScaleThreads:
    """A frame's passes run at once, taken largest grid first by the
    calling thread and a pool; stacks and label rasters equal the
    one-thread loop's bit for bit."""

    @pytest.mark.parametrize("case", [
        "default", "repeated-scale", "first-frame-only-hard", "soft-reference", "disable-cm", "single-encoder",
        "one-object",
    ])
    def test_stacks_and_labels_equal_one_thread(self, monkeypatch, case):
        preset = "default" if case == "one-object" else "occlusion-heavy"
        video, params = tiny_setup(4, preset)
        if case == "single-encoder":
            params = init_model_params(54, ModelConfig(stage_channels=(4, 6, 8), single_encoder=True))
        options = {
            "default": InferenceOptions(),
            "repeated-scale": InferenceOptions(scales=(0.5, 1.0, 1.5, 1.0)),
            "first-frame-only-hard": InferenceOptions(first_frame_only=True, soft_guidance=False),
            "soft-reference": InferenceOptions(soft_reference_mask=True),
            "disable-cm": InferenceOptions(disable_cm=True),
            "single-encoder": InferenceOptions(),
            "one-object": InferenceOptions(),
        }[case]
        forward = propagation.forward_single_object
        threads = []

        def recording_forward(*args, **kwargs):
            threads.append(threading.current_thread().name)
            return forward(*args, **kwargs)

        monkeypatch.setattr(propagation, "forward_single_object", recording_forward)
        results = {}
        for count in (1, 2):
            use_threads(monkeypatch, count)
            assert blas.workers(len(options.scales)) == count
            threads.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                results[count] = infer_sequence(video, video.masks[0], params, options)
            finally:
                sys.setswitchinterval(interval)
            assert len(set(threads)) == count
        assert len(results[1].object_ids) == (1 if case == "one-object" else 2)
        for a, b in zip(results[1].masks, results[2].masks):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(results[1].stacks, results[2].stacks):
            assert a.tobytes() == b.tobytes()

    def test_passes_start_largest_grid_first(self, monkeypatch):
        video, params = tiny_setup(4, "occlusion-heavy", frames=3)
        forward, encode = propagation.forward_single_object, propagation.encode_reference_image
        started = []

        def recording_forward(params, first, prev, cur_rgb, *args, **kwargs):
            started.append(("pass", cur_rgb.shape[:2]))
            return forward(params, first, prev, cur_rgb, *args, **kwargs)

        def recording_encode(params, image, *args, **kwargs):
            started.append(("encode", image.shape[:2]))
            return encode(params, image, *args, **kwargs)

        use_threads(monkeypatch, 1)
        monkeypatch.setattr(propagation, "forward_single_object", recording_forward)
        monkeypatch.setattr(propagation, "encode_reference_image", recording_encode)
        infer_sequence(video, video.masks[0], params, InferenceOptions(scales=(0.75, 1.5, 1.0, 1.5)))
        # per task list, the two objects' passes by grid, the larger first
        order = [(48, 72)] * 4 + [(32, 48)] * 2 + [(24, 36)] * 2
        assert started == [("encode", size) for size in order] + [("pass", size) for size in order] * 2

    def test_planes_are_added_in_scale_order(self, monkeypatch):
        # constant planes of 0.1, 0.2 and 0.3 by scale: (0.1 + 0.2) + 0.3 and
        # (0.3 + 0.2) + 0.1 differ in their last bit
        video, params = tiny_setup(4, "occlusion-heavy", frames=2)
        first = np.where(video.masks[0] == 1, 1, 0)
        scales = (0.5, 1.0, 1.5)
        value = {(16, 24): 0.1, (32, 48): 0.2, (48, 72): 0.3}

        def constant_forward(params, first_ref, prev, cur_rgb, *args, **kwargs):
            return Tensor(np.full(cur_rgb.shape[:2], value[cur_rgb.shape[:2]]))

        use_threads(monkeypatch, 2)
        monkeypatch.setattr(propagation, "forward_single_object", constant_forward)
        result = infer_sequence(video, first, params, InferenceOptions(scales=scales))
        acc = np.zeros((32, 48))
        for size in sorted(value):
            acc += propagation._resize_plane(np.full(size, value[size]), 32, 48)
        want = aggregate_multi_object((acc / 3)[None]).probabilities
        assert result.stacks[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("failing", ["pool", "calling"])
    def test_a_pass_error_reaches_the_caller_and_no_thread_stays(self, monkeypatch, failing):
        video, params = tiny_setup(4, "occlusion-heavy")
        forward = propagation.forward_single_object
        failed_on = []

        def failing_forward(*args, **kwargs):
            calling = threading.current_thread() is threading.main_thread()
            if calling == (failing == "calling"):
                failed_on.append(calling)
                raise RuntimeError("pass failed")
            return forward(*args, **kwargs)

        use_threads(monkeypatch, 2)
        monkeypatch.setattr(propagation, "forward_single_object", failing_forward)
        assert npmca_threads() == []
        with pytest.raises(RuntimeError, match="pass failed"):
            infer_sequence(video, video.masks[0], params)
        assert failed_on == [failing == "calling"]
        assert npmca_threads() == []

    @pytest.mark.parametrize("scales, threads", [((1.0,), 4), ((0.75, 1.0, 1.25), 1)], ids=["one-scale", "one-thread"])
    def test_no_thread_starts_for_one_scale_or_one_usable_thread(self, monkeypatch, scales, threads):
        # with one scale, one object: a frame of one pass
        video, params = tiny_setup(4, "occlusion-heavy")
        first = np.where(video.masks[0] == 1, 1, 0) if len(scales) == 1 else video.masks[0]
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        use_threads(monkeypatch, threads)
        if threads > 1:
            assert blas.workers(len(scales)) == 1
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        result = infer_sequence(video, first, params, InferenceOptions(scales=scales))
        assert len(result.masks) == len(video.frames)
        assert started == []


class TestPassPool:
    """A frame's passes of several objects at one scale run at once, one
    per usable thread, outside ``ops.row_halves``."""

    @staticmethod
    def large_setup():
        cfg = random_scene(5, "occlusion-heavy", resolution=(128, 192), frames=3)
        video = generate_sequence(cfg, 5, "seq05")
        return video, init_model_params(55, ModelConfig(stage_channels=(4, 6, 8)))

    def test_two_objects_run_on_two_threads_and_take_no_half(self, monkeypatch):
        video, params = self.large_setup()
        given = TestRowHalves.helper_halves(monkeypatch)
        forward = propagation.forward_single_object
        threads = []

        def recording_forward(*args, **kwargs):
            threads.append(threading.current_thread().name.split("_")[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(propagation, "forward_single_object", recording_forward)
        results = {}
        for count in (1, 2):
            use_threads(monkeypatch, count)
            assert propagation.loop_threads(2, (1.0,), (128, 192)) == (count, False)
            threads.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                results[count] = infer_sequence(video, video.masks[0], params, InferenceOptions(scales=(1.0,)))
            finally:
                sys.setswitchinterval(interval)
            assert len(threads) == 2 * (len(video.frames) - 1)
            assert set(threads) == ({"MainThread", "npmca-pass"} if count == 2 else {"MainThread"})
        assert given == []
        assert results[1].object_ids == results[2].object_ids == [1, 2]
        for a, b in zip(results[1].masks, results[2].masks):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(results[1].stacks, results[2].stacks):
            assert a.tobytes() == b.tobytes()
        assert npmca_threads() == []

    def test_every_pass_runs_once_with_more_threads_than_cores(self):
        keys = [(j, k) for j in range(50) for k in range(4)]
        ran = []

        def run(j, k):
            ran.append((j, k))
            return 4 * j + k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(5, thread_name_prefix="npmca-pass") as pool:
                results = propagation._run_passes(pool, 6, run, keys)
        finally:
            sys.setswitchinterval(interval)
        assert results == {(j, k): 4 * j + k for j, k in keys}
        assert sorted(ran) == keys
        assert npmca_threads() == []

    @pytest.mark.parametrize("failing", [(0, "encode"), (1, "encode"), (0, "pass"), (1, "pass")],
                             ids=["first-object-encode", "second-object-encode", "first-object-pass",
                                  "second-object-pass"])
    def test_an_error_in_any_pass_reaches_the_caller_and_no_thread_stays(self, monkeypatch, failing):
        video, params = tiny_setup(4, "occlusion-heavy")
        target = video.masks[0] == failing[0] + 1
        forward, encode = propagation.forward_single_object, propagation.encode_reference_image

        def failing_forward(params, first, prev, cur_rgb, guidance, *args, **kwargs):
            if failing[1] == "pass" and np.array_equal(guidance > 0.5, target):
                raise RuntimeError("pass failed")
            return forward(params, first, prev, cur_rgb, guidance, *args, **kwargs)

        def failing_encode(params, image, *args, **kwargs):
            if failing[1] == "encode" and np.array_equal(image.any(axis=2), target):
                raise RuntimeError("pass failed")
            return encode(params, image, *args, **kwargs)

        use_threads(monkeypatch, 2)
        monkeypatch.setattr(propagation, "forward_single_object", failing_forward)
        monkeypatch.setattr(propagation, "encode_reference_image", failing_encode)
        with pytest.raises(RuntimeError, match="pass failed"):
            infer_sequence(video, video.masks[0], params, InferenceOptions(scales=(1.0,), soft_guidance=False))
        assert npmca_threads() == []


class TestRowHalves:
    """One object at one scale on a large grid computes each pass's large
    steps as two halves, the lower ones on a helper thread where two CPUs
    are usable; stacks and label rasters equal those of one CPU."""

    @staticmethod
    def large_setup():
        video, params = TestPassPool.large_setup()
        first = video.masks[0]
        return video, params, np.where(first == 1, 1, 0)  # the first object alone, as perfbench's warm-up

    @staticmethod
    def helper_halves(monkeypatch, fail=False):
        """The (start, stop) row ranges handed to the row-half helper; with
        ``fail``, the helper's first half raises instead of running."""
        given = []

        class Recording(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                given.append(args)
                if fail and len(given) == 1:
                    def fn(*args):
                        raise RuntimeError("row half failed")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(ops, "ThreadPoolExecutor", Recording)
        return given

    def test_rule(self, monkeypatch):
        use_threads(monkeypatch, 2)
        # a 128x192 frame has a 32x48 grid of 1536 pixels; 128x128 exactly 1024
        assert propagation.loop_threads(1, (1.0,), (128, 192)) == (1, True)
        assert propagation.loop_threads(1, (1.0,), (128, 128)) == (1, True)
        assert propagation.loop_threads(1, (1.0,), (124, 128)) == (1, False)
        assert propagation.loop_threads(1, (1.0,), (64, 96)) == (1, False)
        assert propagation.loop_threads(1, (0.5,), (256, 384)) == (1, True)
        assert propagation.loop_threads(1, (0.75, 1.0, 1.25), (128, 192)) == (2, False)
        # more than one pass a frame feeds the pool instead
        assert propagation.loop_threads(2, (1.0,), (128, 192)) == (2, False)
        assert propagation.loop_threads(1, (1.0, 1.0), (128, 192)) == (2, False)
        # the rule reads shapes only: one CPU runs the same halves without a helper
        use_threads(monkeypatch, 1)
        assert propagation.loop_threads(1, (1.0,), (128, 192)) == (1, True)
        assert propagation.loop_threads(1, (1.0,), (124, 128)) == (1, False)
        assert propagation.loop_threads(2, (1.0,), (128, 192)) == (1, False)

    def test_stacks_and_labels_equal_one_thread(self, monkeypatch):
        video, params, first = self.large_setup()
        given = self.helper_halves(monkeypatch)
        results = {}
        for count in (1, 2):
            use_threads(monkeypatch, count)
            given.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                results[count] = infer_sequence(video, first, params, InferenceOptions(scales=(1.0,)))
            finally:
                sys.setswitchinterval(interval)
            # per pass, every product of at least 1024 rows: the 14 convs (both
            # encoders' three stages, four reductions, fusion, two refinements and
            # the head), the CM blocks' two (1536, 2) mixes, and each match's six
            # halves (similarity, four softmax steps, blend); and every per-pixel
            # step past its cut, which with this (4, 6, 8) plan is only the last
            # upsample (64x96 to 128x192, 3145728 multiply-adds per channel).
            # Before the frame loop, the object's first reference takes its
            # encoder's three convs. No helper on one CPU.
            per_pass = 14 + 2 + 2 * 6 + 1
            assert len(given) == (2 * per_pass + 3 if count == 2 else 0)
        assert len(results[1].object_ids) == 1
        for a, b in zip(results[1].masks, results[2].masks):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(results[1].stacks, results[2].stacks):
            assert a.tobytes() == b.tobytes()
        assert npmca_threads() == []

    def test_an_error_in_the_helpers_half_reaches_the_caller(self, monkeypatch):
        video, params, first = self.large_setup()
        use_threads(monkeypatch, 2)
        given = self.helper_halves(monkeypatch, fail=True)
        with pytest.raises(RuntimeError, match="row half failed"):
            infer_sequence(video, first, params, InferenceOptions(scales=(1.0,)))
        assert len(given) == 1
        assert npmca_threads() == []

    def test_three_scales_split_nothing(self, monkeypatch):
        video, params, first = self.large_setup()
        use_threads(monkeypatch, 2)
        given = self.helper_halves(monkeypatch)
        forward = propagation.forward_single_object
        threads = set()

        def recording_forward(*args, **kwargs):
            threads.add(threading.current_thread().name.split("_")[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(propagation, "forward_single_object", recording_forward)
        infer_sequence(video, first, params)
        assert given == []
        assert threads == {"MainThread", "npmca-pass"}


class TestScalesFit:
    """Scales whose similarities would not fit in memory together are
    refused before anything is allocated."""

    def test_the_scales_similarities_are_counted_together_against_half_the_limit(self, monkeypatch):
        # a 128x192 frame has a 384-pixel grid at scale 0.5 and a 1536-pixel one at 1
        both = 8 * 384**2 + 8 * 1536**2
        monkeypatch.setattr(propagation, "memory_limit", lambda: 2 * both)
        propagation.check_scales_fit((0.5, 1.0), (128, 192), "seq")
        monkeypatch.setattr(propagation, "memory_limit", lambda: 2 * both - 1)
        with pytest.raises(ValueError) as exc:
            propagation.check_scales_fit((0.5, 1.0), (128, 192), "seq")
        assert str(exc.value) == ("scales 0.5, 1.0 give sequence seq (128x192 frames) similarities of 2.01e+7 bytes "
                                  "together, more than half of the 4.01e+7 bytes of memory this process may use")

    def test_scales_that_fit_alone_but_not_together_are_refused(self, monkeypatch):
        monkeypatch.setattr(propagation, "memory_limit", lambda: 2 * 8 * 1536**2)
        propagation.check_scales_fit((1.0,), (128, 192), "seq")
        with pytest.raises(ValueError, match=re.escape("scales 1.0, 1.0 give sequence seq")):
            propagation.check_scales_fit((1.0, 1.0), (128, 192), "seq")

    def test_huge_scales_are_refused_and_unknown_memory_checks_nothing(self, monkeypatch):
        for scale in (1e6, 1e300):
            with pytest.raises(ValueError, match=re.escape(f"scales 1.0, {scale} give sequence seq (32x48 frames)")):
                propagation.check_scales_fit((1.0, scale), (32, 48), "seq")
        assert propagation.memory_limit() > 2 * 8 * 1536**2
        monkeypatch.setattr(propagation, "memory_limit", lambda: None)
        propagation.check_scales_fit((1e300,), (32, 48), "seq")

    def test_cgroup_limits_of_the_group_and_its_ancestors(self, tmp_path, monkeypatch):
        def write(path, text):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

        cgroup = tmp_path / "cgroup"
        write(cgroup, "4:memory:/x/y\n1:cpu:/x\nnot a cgroup line\n0::/a/b\n")
        write(tmp_path / "fs/memory/memory.limit_in_bytes", "9223372036854771712\n")
        write(tmp_path / "fs/memory/x/y/memory.limit_in_bytes", "5000\n")
        write(tmp_path / "fs/a/memory.max", "1000\n")
        write(tmp_path / "fs/a/b/memory.max", "max\n")
        limits = propagation.cgroup_memory_limits(str(cgroup), str(tmp_path / "fs"))
        assert limits == [9223372036854771712, 5000, 1000]
        assert propagation.cgroup_memory_limits(str(tmp_path / "none"), str(tmp_path / "fs")) == []
        monkeypatch.setattr(propagation, "cgroup_memory_limits", lambda: limits)
        assert propagation.memory_limit() == 1000


class TestLoadedClips:
    """Clips loaded as file bytes give what the same clips converted to
    float64 up front give, bit for bit."""

    @pytest.mark.parametrize("options", [
        InferenceOptions(),
        InferenceOptions(first_frame_only=True, soft_guidance=False),
        InferenceOptions(scales=(1.0,), soft_reference_mask=True),
    ], ids=["default", "first-frame-only-hard", "soft-reference"])
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
