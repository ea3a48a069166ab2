"""Frame-by-frame mask propagation with multi-object soft aggregation.

Frame 0 arrives with ground truth. Every later frame is segmented object
by object: both references (frame 0 and the previous frame, each
with background zeroed) meet the current frame at several scales, the
per-scale probabilities are averaged, and the per-object maps are merged
into one pixelwise distribution through an odds-ratio normalization. The
winning label becomes the reference mask for the next frame while the soft
distribution feeds the next frame's guidance channel.

Frame 0's references never change, so each object's is encoded once per
scale, before the frame loop, and those features serve every later frame.
They are the previous reference too wherever that is frame 0 masked by
its own mask, at frame 1 and under ``first_frame_only`` at every frame;
the guidance there is frame 0's one-hot mask.

A frame's (object, scale) passes are independent, and so are the frame-0
reference encodes: each set is one task list, largest grid first, that
the calling thread and a pool of ``loop_threads - 1`` threads pull from
until it is empty. Each object's planes are added in scale order
whatever thread made them, so stacks and label rasters do not depend on
the thread count. Two passes alive at once stay in bounded memory, since
an untaped pass lays out its conv patches in row blocks and its
similarities in column blocks (``ops``).

A frame with exactly one pass (one object, one scale) gives the list
nothing to share, so it gets two threads (``loop_threads``): the pass
runs on the calling thread and hands the pool its two pairs of
independent branch steps (``forward_single_object``'s ``run_pair``),
the previous reference's encode (none where it is frame 0's features)
beside the target's, then the first reference's match beside the
previous one's, each pair's second step on the pool thread. The CM
blocks, fusion, decoding and the frame-0 encode run on the calling
thread. Each step runs the same ops whatever thread takes it, so here
too no bit depends on the thread count.

``check_scales_fit`` refuses scales whose matches could not fit in
memory at once before any pass allocates them.
"""

import hashlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import blas, ops
from .errors import ShapeError
from .model import GRID_STRIDE, ModelParams, encode_reference_image, forward_single_object, in_order
from .netpbm import probability_to_byte, to_unit_float, write_pgm
from .tensor import Tensor

CLAMP_EPS = 1e-7
DEFAULT_SCALES = (0.75, 1.0, 1.25)


def mask_out_background(rgb: np.ndarray, mask: np.ndarray, object_id: int) -> np.ndarray:
    """Zero every pixel that does not belong to the object."""
    rgb = to_unit_float(rgb)
    mask = np.asarray(mask)
    if object_id < 1:
        raise ValueError(f"object ids start at 1, got {object_id}")
    if mask.shape != rgb.shape[:2]:
        raise ShapeError(f"mask {mask.shape} does not match image {rgb.shape}")
    return np.where((mask == object_id)[:, :, None], rgb, 0.0)


@dataclass
class AggregateResult:
    probabilities: np.ndarray  # (M+1, H, W); row 0 is background
    labels: np.ndarray  # (H, W) indices in 0..M


def aggregate_multi_object(per_object: np.ndarray) -> AggregateResult:
    """Odds-ratio merge of single-object probability maps.

    The background map is the product of complements; all maps are clamped
    to [CLAMP_EPS, 1-CLAMP_EPS] before forming odds, so saturated sigmoids
    cannot produce infinities. Ties at the argmax go to the smaller index, which
    favors background, then earlier objects.
    """
    per_object = np.asarray(per_object, dtype=np.float64)
    if per_object.ndim != 3 or per_object.shape[0] < 1:
        raise ValueError(f"expected a non-empty (M, H, W) stack, got shape {per_object.shape}")
    p = np.clip(per_object, CLAMP_EPS, 1.0 - CLAMP_EPS)
    p0 = np.clip(np.prod(1.0 - p, axis=0), CLAMP_EPS, 1.0 - CLAMP_EPS)
    stacked = np.concatenate([p0[None], p], axis=0)
    odds = stacked / (1.0 - stacked)
    probs = odds / odds.sum(axis=0, keepdims=True)
    return AggregateResult(probs, probs.argmax(axis=0))


@dataclass(frozen=True)
class InferenceOptions:
    scales: tuple[float, ...] = DEFAULT_SCALES
    first_frame_only: bool = False
    disable_cm: bool = False

    def __post_init__(self):
        if not self.scales:
            raise ValueError("at least one inference scale is required")
        if not all(np.isfinite(s) and s > 0 for s in self.scales):
            raise ValueError(f"scales must be finite and > 0, got {self.scales}")


def _scaled_size(value: int, scale: float) -> int:
    """Nearest multiple of GRID_STRIDE, at least two of them, so the encoder grid works out.
    Raises ValueError for a scale that makes the side too large for a float."""
    strides = value * scale / GRID_STRIDE
    if not np.isfinite(strides):
        raise ValueError(f"scale {scale} makes a side of {value} pixels too large to represent")
    return max(2 * GRID_STRIDE, int(round(strides)) * GRID_STRIDE)


def _resize_rgb(image: np.ndarray, h: int, w: int) -> np.ndarray:
    if image.shape[:2] == (h, w):
        return image
    return ops.bilinear_resize(Tensor(image), h, w).array


def _resize_plane(plane: np.ndarray, h: int, w: int) -> np.ndarray:
    if plane.shape == (h, w):
        return plane
    return np.clip(ops.bilinear_resize(Tensor(plane[:, :, None]), h, w).array[:, :, 0], 0.0, 1.0)


@dataclass
class InferResult:
    masks: list[np.ndarray]  # one (H, W) uint8 label raster per frame, actual object ids
    stacks: list[np.ndarray]  # (M+1, H, W) distributions; frame 0 is one-hot truth
    object_ids: list[int]


def first_mask_objects(video, first_mask) -> list[int]:
    """The sorted object ids of a clip's first mask; raises when the clip
    has no frames, or the mask does not fit them or holds no valid object."""
    if not video.frames:
        raise ValueError(f"sequence {video.name} has no frames")
    first_mask = np.asarray(first_mask)
    if first_mask.shape != video.frames[0].shape[:2]:
        raise ShapeError(
            f"sequence {video.name}: first mask {first_mask.shape} does not match frames {video.frames[0].shape[:2]}"
        )
    object_ids = sorted(int(v) for v in np.unique(first_mask) if v != 0)
    if not object_ids:
        raise ValueError(f"sequence {video.name}: first-frame mask contains no objects")
    if object_ids[0] < 1 or object_ids[-1] > 255:
        raise ValueError(f"sequence {video.name}: object ids must lie in 1..255, got {object_ids}")
    return object_ids


def cgroup_memory_limits(cgroup_file: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> list[int]:
    """The memory limits, in bytes, of this process's cgroup and of each
    cgroup above it: ``memory.max`` (cgroup v2) or
    ``memory.limit_in_bytes`` (the v1 memory controller). Empty where
    none is set or readable."""
    try:
        with open(cgroup_file) as f:
            lines = f.read().splitlines()
    except OSError:
        return []
    limits = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if not controllers:
            base, name = root, "memory.max"
        elif "memory" in controllers.split(","):
            base, name = os.path.join(root, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            try:
                with open(os.path.join(base, *parts[:depth], name)) as f:
                    value = f.read().strip()
            except OSError:
                continue
            if value.isdigit():
                limits.append(int(value))
    return limits


def memory_limit() -> int | None:
    """Bytes of memory this process may use: physical memory
    (``os.sysconf``) or a lower cgroup limit; None where neither is known."""
    limits = cgroup_memory_limits()
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        pass
    return min(limits, default=None)


def check_scales_fit(objects: int, scales: tuple[float, ...], size: tuple[int, int], name: str) -> None:
    """Raise ValueError, naming the scales and the clip, when the matches
    that a frame of ``objects`` objects on frames of ``size`` (H, W) may
    hold at once take more than half of ``memory_limit()``.

    At most ``loop_threads`` matches are alive together. A match holds one
    (N, min(N, ``ops.MATCH_BLOCK_COLUMNS``)) float64 column block of its
    similarity; the count takes the largest scale's for every thread.
    The other half of the memory is left for the rest of the passes and of
    the machine. ``infer_sequence`` would otherwise fail on an allocation,
    or push the machine out of memory on its way there."""
    limit = memory_limit()
    if limit is None:
        return
    largest = 0
    for scale in scales:
        sh, sw = (_scaled_size(side, scale) for side in size)
        n = (sh // GRID_STRIDE) * (sw // GRID_STRIDE)
        largest = max(largest, 8 * n * min(n, ops.MATCH_BLOCK_COLUMNS))
    total = loop_threads(objects, scales) * largest
    if 2 * total > limit:
        raise ValueError(
            f"scales {', '.join(map(str, scales))} give sequence {name} ({size[0]}x{size[1]} frames) "
            f"matches holding {Decimal(total):.3g} bytes at once, more than half of the "
            f"{Decimal(limit):.3g} bytes of memory this process may use"
        )


def loop_threads(objects: int, scales: tuple[float, ...]) -> int:
    """The threads that run a frame's passes for ``objects`` objects at
    ``scales``: one per pass, and two for a frame of one pass, whose
    branch pairs then run at once; at most ``blas.workers`` allows."""
    return blas.workers(max(2, objects * len(scales)))


def _pair_runner(pool):
    """A ``run_pair`` for ``forward_single_object``: the first step on the
    calling thread, the second on ``pool``. Once one raises, the other
    still finishes; the calling thread's error, else the pool's, reaches
    the caller."""

    def run_pair(first, second):
        other = pool.submit(second)
        try:
            done = first()
        finally:
            wait((other,))
        return done, other.result()

    return run_pair


def _run_passes(pool, threads: int, run, keys: list) -> dict:
    """``{key: run(*key)}`` for every key. The calling thread and
    ``threads - 1`` threads of ``pool`` each take the first key no one has
    taken until none is left. Once a pass raises, no other pass starts;
    the exception reaches the caller once every running pass has
    finished, the calling thread's own before a pool thread's."""
    if pool is None:
        return {key: run(*key) for key in keys}
    results = {}
    left = iter(keys)
    lock = threading.Lock()
    failed = threading.Event()

    def drain():
        while not failed.is_set():
            with lock:
                key = next(left, None)
            if key is None:
                return
            try:
                results[key] = run(*key)
            except BaseException:
                failed.set()
                raise

    others = [pool.submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        wait(others)
    for other in others:
        other.result()
    return results


def infer_sequence(
    video, first_mask: np.ndarray, params: ModelParams, options: InferenceOptions = InferenceOptions()
) -> InferResult:
    """Propagate the first-frame mask through the whole sequence.

    Object ids must lie in 1..255, the values a PGM label raster holds.
    Each frame is turned into float64 and resized to each scale once,
    however many objects then read it.
    """
    frames = video.frames
    first_mask = np.asarray(first_mask)
    object_ids = first_mask_objects(video, first_mask)
    h, w = first_mask.shape
    m = len(object_ids)

    one_hot = np.zeros((m + 1, h, w))
    one_hot[0] = first_mask == 0
    for j, oid in enumerate(object_ids, start=1):
        one_hot[j] = first_mask == oid

    masks = [first_mask.astype(np.uint8)]
    stacks = [one_hot]

    sizes = [(_scaled_size(h, s), _scaled_size(w, s)) for s in options.scales]
    # a frame's (object, scale) passes, largest grid first; equal grids keep object, then scale order
    order = sorted(((j, k) for j in range(m) for k in range(len(sizes))), key=lambda jk: -math.prod(sizes[jk[1]]))
    threads = loop_threads(m, options.scales)
    first_rgb = to_unit_float(frames[0])
    prev_rgb = first_rgb
    with ThreadPoolExecutor(threads - 1, thread_name_prefix="npmca-pass") if threads > 1 else nullcontext() as pool:
        # a lone pass keeps the calling thread and lends the pool its branch pairs instead
        lone = len(order) == 1 and pool is not None
        pass_pool, run_pair = (None, _pair_runner(pool)) if lone else (pool, in_order)
        first_features = {}  # (object, scale) -> FeatureMap
        if len(frames) > 1:
            first_masked = [mask_out_background(first_rgb, first_mask, oid) for oid in object_ids]

            def first_encode(j, k):
                return encode_reference_image(params, _resize_rgb(first_masked[j], *sizes[k]))

            first_features = _run_passes(pass_pool, threads, first_encode, order)

        for t in range(1, len(frames)):
            cur_rgb = to_unit_float(frames[t])
            cur_scaled = [_resize_rgb(cur_rgb, sh, sw) for sh, sw in sizes]
            # per object: the previous reference (None: frame 0's features) and its guidance
            src = 0 if options.first_frame_only else t - 1
            references = [(None if src == 0 else mask_out_background(prev_rgb, masks[src], oid), stacks[src][j + 1])
                          for j, oid in enumerate(object_ids)]

            def object_pass(j, k):
                """Object j's probability at scale k, resized back to (h, w)."""
                sh, sw = sizes[k]
                prev_masked, guidance = references[j]
                prev = first_features[j, k] if prev_masked is None else _resize_rgb(prev_masked, sh, sw)
                prob = forward_single_object(
                    params, first_features[j, k], prev, cur_scaled[k], _resize_plane(guidance, sh, sw),
                    disable_cm=options.disable_cm, run_pair=run_pair,
                ).array
                return _resize_plane(prob, h, w)

            planes = _run_passes(pass_pool, threads, object_pass, order)
            per_object = np.zeros((m, h, w))
            for j in range(m):
                # added in scale order, so the sums do not depend on the thread count
                acc = np.zeros((h, w))
                for k in range(len(sizes)):
                    acc += planes[j, k]
                per_object[j] = acc / len(sizes)

            merged = aggregate_multi_object(per_object)
            label_raster = np.zeros((h, w), dtype=np.uint8)
            for j, oid in enumerate(object_ids, start=1):
                label_raster[merged.labels == j] = oid
            masks.append(label_raster)
            stacks.append(merged.probabilities)
            prev_rgb = cur_rgb
    return InferResult(masks, stacks, object_ids)


def write_predictions(out_dir, name: str, result: InferResult, dump_probs: bool = False) -> str:
    """Write one PGM label raster per frame, ``stacks.sha256`` with one
    line per frame (its index and the sha256 of its float64 stack, little
    endian), plus per-object probability rasters under probs/ when asked.

    The rasters hold 8 bits of each probability; the hashes make every bit
    of the stacks part of the tree that reruns are compared by.
    """
    base = os.path.join(out_dir, name)
    os.makedirs(base, exist_ok=True)
    for t, mask in enumerate(result.masks):
        write_pgm(os.path.join(base, f"{t:05d}.pgm"), mask)
    with open(os.path.join(base, "stacks.sha256"), "w", encoding="ascii", newline="\n") as fh:
        for t, stack in enumerate(result.stacks):
            fh.write(f"{t:05d} {hashlib.sha256(stack.astype('<f8', copy=False).tobytes()).hexdigest()}\n")
    if dump_probs:
        prob_dir = os.path.join(base, "probs")
        os.makedirs(prob_dir, exist_ok=True)
        for t, stack in enumerate(result.stacks):
            for channel in range(stack.shape[0]):
                write_pgm(
                    os.path.join(prob_dir, f"{t:05d}_{channel:02d}.pgm"),
                    probability_to_byte(stack[channel]),
                )
    return base
