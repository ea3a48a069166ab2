"""The training loop: threaded samples against a serial reference, the
worker-count rule, the memory a sample's tape holds, and sampler errors."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from npmca import blas, ops, training
from npmca.autodiff import Tape, zero_gradients
from npmca.datagen import (
    VideoSequence,
    generate_sequence,
    load_sequence,
    random_scene,
    sample_triplet_indices,
    synth_pretrain_pair,
    write_sequence,
)
from npmca.errors import ShapeError
from npmca.metrics import iou_loss
from npmca.model import forward_single_object, init_model_params
from npmca.netpbm import to_unit_float
from npmca.rng import spawn_rng
from npmca.training import Adam, make_finetune_sampler, make_pretrain_sampler, train_loop


@pytest.fixture(scope="module")
def videos():
    return [generate_sequence(random_scene(40 + i, "default", (32, 48), 6), 50 + i, f"seq{i}") for i in range(3)]


@pytest.fixture
def four_cpus(monkeypatch):
    """More sample threads than this machine may have cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


def serial_train_loop(params, sampler, iterations, lr, batch_size, seed):
    """The loop before samples ran on threads: one tape after another,
    each depositing its adjoints through ``Tape.backward``."""
    named = params.named_parameters()
    optimizer = Adam(named, lr)
    rng = spawn_rng(seed, 23)
    losses = []
    for _ in range(iterations):
        zero_gradients(named.values())
        batch_loss = 0.0
        for _ in range(batch_size):
            s = sampler(rng)
            tape = Tape()
            prob = forward_single_object(params, s.first_masked, s.prev_masked, s.cur_rgb, s.guidance, tape=tape)
            loss = iou_loss(prob, s.target)
            tape.backward(ops.scale(loss, 1.0 / batch_size))
            batch_loss += loss.item() / batch_size
        optimizer.step()
        losses.append(batch_loss)
    return losses


class TestThreadedLoop:
    @pytest.mark.parametrize("batch", [3, 4])
    def test_equals_serial_reference_bitwise(self, videos, four_cpus, monkeypatch, batch):
        assert blas.workers(batch) == batch
        threads = set()
        forward = training.forward_single_object

        def recording_forward(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return forward(*args, **kwargs)

        sampler = make_finetune_sampler(videos, max_skip=3)
        reference = init_model_params(1)
        expected = serial_train_loop(reference, sampler, 3, 1e-3, batch, seed=7)

        params = init_model_params(1)
        monkeypatch.setattr(training, "forward_single_object", recording_forward)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            losses = train_loop(params, sampler, 3, 1e-3, batch, seed=7)
        finally:
            sys.setswitchinterval(interval)

        assert len(threads) > 1
        assert np.asarray(losses).tobytes() == np.asarray(expected).tobytes()
        for name, p in params.named_parameters().items():
            assert p.value.array.tobytes() == reference.named_parameters()[name].value.array.tobytes(), name

    def test_sample_error_is_raised_and_no_thread_stays(self, videos, four_cpus):
        sampler = make_finetune_sampler(videos)
        drawn = []

        def second_sample_broken(rng):
            s = sampler(rng)
            drawn.append(s)
            if len(drawn) == 2:
                s.target = s.target[:, :-4]
            return s

        before = set(threading.enumerate())
        with pytest.raises(ShapeError):
            train_loop(init_model_params(0), second_sample_broken, 2, 1e-3, 4)
        assert set(threading.enumerate()) - before == set()
        assert len(drawn) == 4  # the batch stopped, the next iteration never began


class TestSampleWorkers:
    @pytest.mark.parametrize(
        "pinned, batch, cpus, expected",
        [(False, 4, 2, 1), (True, 4, 2, 2), (True, 3, 8, 3), (True, 1, 4, 1)],
    )
    def test_rule(self, monkeypatch, pinned, batch, cpus, expected):
        monkeypatch.setattr(blas, "PINNED", pinned)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert blas.workers(batch) == expected

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.setattr(blas, "PINNED", True)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert blas.workers(4) == 3


def test_sample_tape_keeps_no_patch_matrices():
    """Live memory of one 64x96 sample's tape after its forward pass and
    loss. Keeping every conv2d's patch matrix took 31.5 MB."""
    params = init_model_params(0)
    rng = np.random.default_rng(0)
    first, prev, cur = (rng.uniform(size=(64, 96, 3)) for _ in range(3))
    guidance = (rng.uniform(size=(64, 96)) > 0.5).astype(float)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        loss = iou_loss(forward_single_object(params, first, prev, cur, guidance, tape=tape), guidance)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert loss.tape is tape
    assert held < 16e6, f"{held / 1e6:.1f} MB"


def object_count(mask):
    return int((np.unique(mask) != 0).sum())


class TestSamplers:
    @staticmethod
    def blanked(video, frames):
        masks = [np.zeros_like(m) if t in frames else m for t, m in enumerate(video.masks)]
        return VideoSequence(video.name, video.frames, masks)

    def test_finetune_names_sequence_and_frame_of_empty_mask(self, videos):
        sampler = make_finetune_sampler([self.blanked(videos[1], {0})])
        with pytest.raises(ValueError, match="sequence seq1 frame 0 has an empty mask"):
            sampler(np.random.default_rng(0))

    def test_pretrain_names_sequence_and_frame_of_empty_mask(self, videos):
        sampler = make_pretrain_sampler([self.blanked(videos[2], set(range(6)))])
        with pytest.raises(ValueError, match=r"sequence seq2 frame \d has an empty mask"):
            sampler(np.random.default_rng(0))

    def test_finetune_draws_what_it_always_drew(self, videos):
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        sampler = make_finetune_sampler(videos, max_skip=3)
        for _ in range(6):
            sampler(rng)
            video = videos[int(replay.integers(len(videos)))]
            first, _, _ = sample_triplet_indices(len(video.frames), 3, replay)
            replay.integers(object_count(video.masks[first]))
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_pretrain_draws_what_it_always_drew(self, videos):
        rng, replay = np.random.default_rng(6), np.random.default_rng(6)
        sampler = make_pretrain_sampler(videos)
        for _ in range(6):
            sampler(rng)
            video = videos[int(replay.integers(len(videos)))]
            t = int(replay.integers(len(video.frames)))
            triplet = synth_pretrain_pair(video.frames[t], video.masks[t], int(replay.integers(1 << 31)))
            replay.integers(object_count(triplet[0][1]))
        assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("stage", ["finetune", "pretrain"])
def test_loaded_clips_train_bitwise_as_float_clips(videos, tmp_path, stage):
    """uint8 clips as loaded train to the losses and parameters of the same
    clips converted to float64 up front."""
    for video in videos:
        write_sequence(tmp_path, video)
    loaded = [load_sequence(tmp_path, v.name) for v in videos]
    assert loaded[0].frames[0].dtype == np.uint8
    converted = [VideoSequence(v.name, [to_unit_float(f) for f in v.frames], [m.astype(np.int64) for m in v.masks])
                 for v in loaded]
    make = make_finetune_sampler if stage == "finetune" else make_pretrain_sampler
    runs = []
    for clips in (loaded, converted):
        params = init_model_params(0)
        losses = train_loop(params, make(clips), iterations=2, lr=1e-3, batch_size=2, seed=4)
        runs.append((losses, [p.value.array.tobytes() for p in params.named_parameters().values()]))
    assert runs[0] == runs[1]
