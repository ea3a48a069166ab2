"""Adam training over sampled triplets with a soft-IoU objective.

Both stages share one loop: a sampler produces (references, target,
guidance, ground truth) tuples, the forward pass runs on a fresh tape per
sample, batch gradients are averaged by scaling each sample's loss, and
Adam applies the update. The pretraining stage fakes motion by warping a
single annotated frame three ways; the video stage samples real triplets
with a bounded random frame skip. Loaded clips hold uint8 frames, and a
sampler turns only the frames it draws into float64.

The samples of one batch run concurrently on a thread pool (numpy's BLAS
and most array kernels release the interpreter lock), as many threads as
``sample_workers`` allows. Each thread returns its sample's loss and
parameter adjoints; the calling thread adds them up in sample order, the
same float sums in the same order as one thread would make, so losses
and checkpoints do not depend on the worker count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import ops
from .autodiff import Tape, zero_gradients
from .datagen import sample_triplet_indices, synth_pretrain_pair
from .errors import NpmcaError
from .metrics import iou_loss
from .model import ModelParams, check_grid, forward_single_object
from .netpbm import to_unit_float
from .propagation import mask_out_background
from .rng import spawn_rng
from .tensor import Tensor


class TrainingDiverged(NpmcaError):
    """Loss left the reals; carries the iteration that produced it."""

    def __init__(self, iteration: int, loss: float):
        super().__init__(f"loss became {loss} at iteration {iteration}")
        self.iteration = iteration
        self.loss = loss


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction over named parameters."""

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self._m = {name: np.zeros(p.value.shape) for name, p in params.items()}
        self._v = {name: np.zeros(p.value.shape) for name, p in params.items()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.gradient.array
            m = self._m[name] = ADAM_BETA1 * self._m[name] + (1.0 - ADAM_BETA1) * g
            v = self._v[name] = ADAM_BETA2 * self._v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            p.value = Tensor(p.value.array - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


class TrainingSample:
    """One already-assembled training example for a single object."""

    __slots__ = ("first_masked", "prev_masked", "cur_rgb", "guidance", "target")

    def __init__(self, first_masked, prev_masked, cur_rgb, guidance, target):
        self.first_masked = first_masked
        self.prev_masked = prev_masked
        self.cur_rgb = cur_rgb
        self.guidance = guidance
        self.target = target


def _object_ids(mask: np.ndarray, where: str) -> list[int]:
    ids = [int(v) for v in np.unique(mask) if v != 0]
    if not ids:
        raise ValueError(f"{where} has an empty mask: no object to train on")
    return ids


def _pick_object(mask: np.ndarray, rng, where: str) -> int:
    ids = _object_ids(mask, where)
    return ids[int(rng.integers(len(ids)))]


def _assemble(triplet, object_id: int) -> TrainingSample:
    (f0, m0), (fp, mp), (ft, mt) = triplet
    return TrainingSample(
        first_masked=mask_out_background(f0, m0, object_id),
        prev_masked=mask_out_background(fp, mp, object_id),
        cur_rgb=to_unit_float(ft),
        guidance=(np.asarray(mp) == object_id).astype(np.float64),
        target=(np.asarray(mt) == object_id).astype(np.float64),
    )


def _check_sizes(videos) -> None:
    """Every frame of every clip must fit the feature grid; checked up front
    so a bad clip fails before the first iteration."""
    for video in videos:
        for t, frame in enumerate(video.frames):
            check_grid(frame.shape[:2], f"sequence {video.name} frame {t}")


def make_pretrain_sampler(videos):
    """Static-image stage: warp one annotated frame into a fake triplet."""
    if not videos:
        raise ValueError("pretraining needs at least one sequence")
    _check_sizes(videos)

    def sample(rng) -> TrainingSample:
        video = videos[int(rng.integers(len(videos)))]
        t = int(rng.integers(len(video.frames)))
        where = f"sequence {video.name} frame {t}"
        _object_ids(video.masks[t], where)
        triplet = synth_pretrain_pair(to_unit_float(video.frames[t]), video.masks[t], int(rng.integers(1 << 31)))
        return _assemble(triplet, _pick_object(triplet[0][1], rng, f"{where} after warping"))

    return sample


def make_finetune_sampler(videos, max_skip: int = 5):
    """Video stage: real triplets in temporal order with random skip."""
    if not videos:
        raise ValueError("fine-tuning needs at least one sequence")
    _check_sizes(videos)
    for video in videos:
        if len(video.frames) < 3:
            raise ValueError(f"sequence {video.name} has {len(video.frames)} frames, a triplet needs at least 3")

    def sample(rng) -> TrainingSample:
        video = videos[int(rng.integers(len(videos)))]
        first, middle, last = sample_triplet_indices(len(video.frames), max_skip, rng)
        triplet = tuple((video.frames[i], video.masks[i]) for i in (first, middle, last))
        return _assemble(triplet, _pick_object(video.masks[first], rng, f"sequence {video.name} frame {first}"))

    return sample


# OpenBLAS reads its thread count from the first of these that holds a
# positive number
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_pinned() -> bool:
    for var in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def sample_workers(batch_size: int) -> int:
    """Threads ``train_loop`` runs a batch's samples on.

    One per usable CPU, up to the batch size, when BLAS is pinned to one
    thread; otherwise 1, since sample threads competing with BLAS's own
    threads for the cores were measured slower than one sample at a time.
    """
    if not _blas_pinned():
        return 1
    # the CPUs this process may run on; not every platform can tell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(batch_size, cpus))


def train_loop(
    params: ModelParams,
    sampler,
    iterations: int,
    lr: float,
    batch_size: int = 4,
    seed: int = 0,
    log_stream=None,
    disable_cm: bool = False,
) -> list[float]:
    """Run Adam for the given number of iterations; returns per-iteration
    batch losses and writes them as CSV when a stream is given.

    Each iteration draws its samples on the calling thread, in sampler
    order, then runs their forward and backward passes on up to
    ``sample_workers(batch_size)`` threads. An exception raised by a
    sample is raised here once every running sample has finished.
    """
    named = params.named_parameters()
    optimizer = Adam(named, lr)
    rng = spawn_rng(seed, 23)
    losses = []

    def run(s: TrainingSample):
        tape = Tape()
        prob = forward_single_object(
            params, s.first_masked, s.prev_masked, s.cur_rgb, s.guidance,
            tape=tape, disable_cm=disable_cm,
        )
        loss = iou_loss(prob, s.target)
        return loss.item(), tape.param_gradients(ops.scale(loss, 1.0 / batch_size))

    if log_stream is not None:
        log_stream.write("iter,loss\n")
    with ThreadPoolExecutor(sample_workers(batch_size), thread_name_prefix="npmca-sample") as pool:
        for it in range(1, iterations + 1):
            samples = [sampler(rng) for _ in range(batch_size)]
            zero_gradients(named.values())
            batch_loss = 0.0
            for loss, grads in pool.map(run, samples):
                for p, g in grads:
                    p.gradient.array += g
                batch_loss += loss / batch_size
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(it, batch_loss)
            optimizer.step()
            losses.append(batch_loss)
            if log_stream is not None:
                log_stream.write(f"{it},{batch_loss:.8f}\n")
    return losses
