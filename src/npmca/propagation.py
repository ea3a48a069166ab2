"""Frame-by-frame mask propagation with multi-object soft aggregation.

Frame 0 arrives with ground truth. Every later frame is segmented one
object at a time: both references (frame 0 and the previous frame, each
with background zeroed) meet the current frame at several scales, the
per-scale probabilities are averaged, and the per-object maps are merged
into one pixelwise distribution through an odds-ratio normalization. The
winning label becomes the reference mask for the next frame while the soft
distribution feeds the next frame's guidance channel.

Frame 0's references never change, so each object's is encoded once per
scale, before the frame loop, and those features serve every later frame
(as the previous reference too under ``first_frame_only``).

An object's scale passes of one frame are independent, so they run at
once on up to ``blas.workers(S)`` threads: the calling thread takes the
largest scale, a small pool the others. Objects still run one after
another, which bounds the passes alive at once to one object's S. The
planes are added in scale order whatever thread made them, so stacks and
label rasters do not depend on the thread count.

One scale gives the pool nothing to run. From a feature grid of
``HELPER_MIN_GRID`` pixels on, such a clip, its frame-0 reference encodes
included, runs inside ``ops.row_halves``, which computes each pass's
large products (conv GEMMs, similarity and blend), similarity softmax
(column sums included) and per-pixel steps past their measured size
(ReLUs, channel concats, window means and upsamples) as two fixed
halves, by a rule that reads only their shapes. The softmax, ReLU,
concat and window-mean halves are bitwise equal to the whole steps by
construction. With two usable threads a helper thread computes the
lower halves; with one the calling thread computes both. ``loop_threads`` is that rule. The halves
are written into outputs the calling thread allocates, and their bits do
not depend on whether the helper was lent.

``check_scales_fit`` refuses scales whose similarities could not fit in
memory together before any pass allocates them.
"""

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import blas, ops
from .errors import ShapeError
from .model import GRID_STRIDE, ModelParams, encode_reference_image, forward_single_object
from .netpbm import probability_to_byte, to_unit_float, write_pgm
from .tensor import Tensor

CLAMP_EPS = 1e-7
DEFAULT_SCALES = (0.75, 1.0, 1.25)
# The feature grid (pixels) from which a one-scale frame loop runs inside
# ops.row_halves: a speed cut only, since the bits do not depend on it. Timed
# with forward_single_object passes alone (median of 3 rounds of 23 passes) on
# a 2-vCPU Xeon with OpenBLAS's SkylakeX kernels, a pass inside the context
# with a helper took 24% less time than one outside it at 1024 pixels and 30%
# less at 1536, where the matching products split too; 3% less at 864, the
# same at 768, and 3% more at 640 and 7-10% more at 384, where only the convs
# split. No benchmark workload runs one scale below it, so only the side above
# it is measured end to end.
HELPER_MIN_GRID = 1024


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
    soft_guidance: bool = True  # previous frame's aggregated P as the 4th channel
    soft_reference_mask: bool = False  # weight the previous reference by P instead of its argmax

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


def check_scales_fit(scales: tuple[float, ...], size: tuple[int, int], name: str) -> None:
    """Raise ValueError, naming the scales and the clip, when the (N, N)
    float64 similarities of every scale's feature grid on frames of
    ``size`` (H, W) take more than half of ``memory_limit()``.

    An object's scale passes can run at once, so their similarities are
    counted together; the other half is left for the rest of the passes
    and of the machine. ``infer_sequence`` would otherwise fail on an
    allocation, or push the machine out of memory on its way there."""
    limit = memory_limit()
    if limit is None:
        return
    total = 0
    for scale in scales:
        sh, sw = (_scaled_size(side, scale) for side in size)
        total += 8 * ((sh // GRID_STRIDE) * (sw // GRID_STRIDE)) ** 2
    if 2 * total > limit:
        raise ValueError(
            f"scales {', '.join(map(str, scales))} give sequence {name} ({size[0]}x{size[1]} frames) "
            f"similarities of {Decimal(total):.3g} bytes together, more than half of the "
            f"{Decimal(limit):.3g} bytes of memory this process may use"
        )


def loop_threads(scales: tuple[float, ...], size: tuple[int, int]) -> tuple[int, bool]:
    """The frame loop's threads for frames of ``size`` (H, W): how many
    scale threads run an object's scale passes, and whether the loop runs
    inside ``ops.row_halves``, which lends a helper thread where two CPUs
    are usable.

    The halves run only where the scale pool has nothing to feed: one
    scale and a feature grid of at least ``HELPER_MIN_GRID`` pixels. The
    rule reads shapes only, so the bits do not depend on the CPU count.
    """
    threads = blas.workers(len(scales))
    if len(scales) != 1:
        return threads, False
    sh, sw = (_scaled_size(side, scales[0]) for side in size)
    return threads, (sh // GRID_STRIDE) * (sw // GRID_STRIDE) >= HELPER_MIN_GRID


def _scale_planes(pool, scale_pass, count: int, largest: int) -> list[np.ndarray]:
    """``scale_pass(k)`` for every scale k, in scale order. With a pool,
    the calling thread runs scale ``largest`` while the pool runs the
    others, in scale order; the caller gets the first exception raised."""
    if pool is None:
        return [scale_pass(k) for k in range(count)]
    others = {k: pool.submit(scale_pass, k) for k in range(count) if k != largest}
    own = scale_pass(largest)
    return [own if k == largest else others[k].result() for k in range(count)]


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
    largest = max(range(len(sizes)), key=options.scales.__getitem__)
    threads, halves = loop_threads(options.scales, (h, w))
    first_rgb = to_unit_float(frames[0])
    prev_rgb = first_rgb
    with (ThreadPoolExecutor(threads - 1, thread_name_prefix="npmca-scale") if threads > 1 else nullcontext() as pool,
          ops.row_halves() if halves else nullcontext()):
        first_features = []  # [object][scale]
        if len(frames) > 1:
            for oid in object_ids:
                masked = mask_out_background(first_rgb, first_mask, oid)
                first_features.append([encode_reference_image(params, _resize_rgb(masked, sh, sw)) for sh, sw in sizes])

        for t in range(1, len(frames)):
            cur_rgb = to_unit_float(frames[t])
            cur_scaled = [_resize_rgb(cur_rgb, sh, sw) for sh, sw in sizes]
            per_object = np.zeros((m, h, w))
            for j, oid in enumerate(object_ids):
                if options.first_frame_only:
                    prev_masked = None  # frame 0 masked by its truth, which first_features[j] encodes
                    guidance = (masks[0] == oid).astype(np.float64)
                else:
                    if options.soft_reference_mask:
                        prev_masked = prev_rgb * stacks[t - 1][j + 1][:, :, None]
                    else:
                        prev_masked = mask_out_background(prev_rgb, masks[t - 1], oid)
                    guidance = (stacks[t - 1][j + 1] if options.soft_guidance
                                else (masks[t - 1] == oid).astype(np.float64))

                def scale_pass(k):
                    """Object j's probability at scale k, resized back to (h, w)."""
                    sh, sw = sizes[k]
                    prev = first_features[j][k] if prev_masked is None else _resize_rgb(prev_masked, sh, sw)
                    prob = forward_single_object(
                        params, first_features[j][k], prev, cur_scaled[k], _resize_plane(guidance, sh, sw),
                        disable_cm=options.disable_cm,
                    ).array
                    return _resize_plane(prob, h, w)

                # added in scale order, so the sums do not depend on the thread count
                acc = np.zeros((h, w))
                for plane in _scale_planes(pool, scale_pass, len(sizes), largest):
                    acc += plane
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
