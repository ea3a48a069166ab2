"""Frame-by-frame mask propagation with multi-object soft aggregation.

Frame 0 arrives with ground truth. Every later frame is segmented one
object at a time: both references (frame 0 and the previous frame, each
with background zeroed) meet the current frame at several scales, the
per-scale probabilities are averaged, and the per-object maps are merged
into one pixelwise distribution through an odds-ratio normalization. The
winning label becomes the reference mask for the next frame while the soft
distribution feeds the next frame's guidance channel.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ShapeError
from .model import GRID_STRIDE, ModelParams, encode_reference_image, forward_single_object
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
    soft_guidance: bool = True  # previous frame's aggregated P as the 4th channel
    soft_reference_mask: bool = False  # weight the previous reference by P instead of its argmax
    cache_first_features: bool = True

    def __post_init__(self):
        if not self.scales:
            raise ValueError("at least one inference scale is required")
        if not all(np.isfinite(s) and s > 0 for s in self.scales):
            raise ValueError(f"scales must be finite and > 0, got {self.scales}")


def _scaled_size(value: int, scale: float) -> int:
    """Nearest multiple of GRID_STRIDE, at least two of them, so the encoder grid works out."""
    return max(2 * GRID_STRIDE, int(round(value * scale / GRID_STRIDE)) * GRID_STRIDE)


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


def infer_sequence(
    video, first_mask: np.ndarray, params: ModelParams, options: InferenceOptions = InferenceOptions()
) -> InferResult:
    """Propagate the first-frame mask through the whole sequence.

    Object ids must lie in 1..255, the values a PGM label raster holds.
    Each frame is turned into float64 once, however many objects and
    scales then read it.
    """
    frames = video.frames
    if not frames:
        raise ValueError(f"sequence {video.name} has no frames")
    first_mask = np.asarray(first_mask)
    if first_mask.shape != frames[0].shape[:2]:
        raise ShapeError(
            f"first mask {first_mask.shape} does not match frames {frames[0].shape[:2]}"
        )
    object_ids = sorted(int(v) for v in np.unique(first_mask) if v != 0)
    if not object_ids:
        raise ValueError("first-frame mask contains no objects")
    if object_ids[0] < 1 or object_ids[-1] > 255:
        raise ValueError(f"object ids must lie in 1..255, got {object_ids}")
    h, w = first_mask.shape
    m = len(object_ids)

    one_hot = np.zeros((m + 1, h, w))
    one_hot[0] = first_mask == 0
    for j, oid in enumerate(object_ids, start=1):
        one_hot[j] = first_mask == oid

    masks = [first_mask.astype(np.uint8)]
    stacks = [one_hot]

    sizes = [( _scaled_size(h, s), _scaled_size(w, s)) for s in options.scales]
    first_rgb = to_unit_float(frames[0])
    first_cache: dict[tuple[int, int], object] = {}

    def first_reference(oid: int, size_idx: int, sh: int, sw: int):
        key = (oid, size_idx)
        if options.cache_first_features and key in first_cache:
            return first_cache[key]
        masked = mask_out_background(first_rgb, first_mask, oid)
        features = encode_reference_image(params, _resize_rgb(masked, sh, sw))
        if options.cache_first_features:
            first_cache[key] = features
        return features

    prev_rgb = first_rgb
    for t in range(1, len(frames)):
        cur_rgb = to_unit_float(frames[t])
        per_object = np.zeros((m, h, w))
        for j, oid in enumerate(object_ids):
            if options.first_frame_only:
                ref_frame, ref_mask = first_rgb, masks[0]
                guidance = (masks[0] == oid).astype(np.float64)
            else:
                ref_frame, ref_mask = prev_rgb, masks[t - 1]
                guidance = stacks[t - 1][j + 1] if options.soft_guidance else (ref_mask == oid).astype(np.float64)
            if options.soft_reference_mask and not options.first_frame_only:
                prev_masked = ref_frame * stacks[t - 1][j + 1][:, :, None]
            else:
                prev_masked = mask_out_background(ref_frame, ref_mask, oid)

            acc = np.zeros((h, w))
            for size_idx, (sh, sw) in enumerate(sizes):
                prob = forward_single_object(
                    params,
                    first_masked=None,
                    prev_masked=_resize_rgb(prev_masked, sh, sw),
                    cur_rgb=_resize_rgb(cur_rgb, sh, sw),
                    guidance=_resize_plane(guidance, sh, sw),
                    disable_cm=options.disable_cm,
                    first_features=first_reference(oid, size_idx, sh, sw),
                ).array
                acc += _resize_plane(prob, h, w)
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
    """Write one PGM label raster per frame, plus per-object probability
    rasters under probs/ when asked."""
    base = os.path.join(out_dir, name)
    os.makedirs(base, exist_ok=True)
    for t, mask in enumerate(result.masks):
        write_pgm(os.path.join(base, f"{t:05d}.pgm"), mask)
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
