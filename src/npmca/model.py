"""Toy segmentation network around the matching and attention blocks.

Three light convolutional encoders replace a pretrained backbone: one
shared 3-channel encoder for the two background-masked reference frames
and a 4-channel encoder for the target frame with its guidance mask. Each
encoder halves the resolution twice, so features live on a grid four times
smaller than the image. Matching runs twice (first frame and previous
frame against the target), channel attention refines both matched maps in
series, a 3x3 convolution fuses them, and a two-stage skip decoder brings
the result back to image resolution as a single-channel logit map.

Every convolution here keeps its spatial size (stride 1, pad 1); the
halvings are exact 2x bilinear downsamples, which for a factor of two
equal 2x2 window means. This keeps the convolution contract (odd kernels,
integral output sizes) satisfiable on even image sizes.
"""

import io
import math
import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import ops
from .attention import CmState, cm_forward, init_cm_state
from .autodiff import use_param
from .errors import ConfigError, FormatError, ShapeError
from .matching import FeatureMap, NlpmmParams, init_conv, init_nlpmm_params, nlpmm_forward
from .rng import spawn_rng
from .tensor import ParamTensor, Tensor

CHECKPOINT_MAGIC = b"NPMCA1"

# the encoders halve the resolution twice, so image sides must be multiples of this
GRID_STRIDE = 4


@dataclass(frozen=True)
class ModelConfig:
    """Channel plan of the toy network.

    ``stage_channels`` are the encoder widths; the last entry is the
    working feature width C and must be divisible by 4, since matching
    reduces it to C/4.
    """

    stage_channels: tuple[int, int, int] = (16, 32, 64)
    single_encoder: bool = False

    def __post_init__(self):
        if self.stage_channels[-1] % 4:
            raise ConfigError(f"feature width {self.stage_channels[-1]} is not divisible by 4")

    @property
    def feature_channels(self) -> int:
        return self.stage_channels[-1]

    @property
    def reduced_channels(self) -> int:
        return self.feature_channels // 4


@dataclass
class ConvParams:
    w: ParamTensor
    b: ParamTensor


@dataclass
class EncoderParams:
    stage1: ConvParams
    stage2: ConvParams
    stage3: ConvParams
    in_channels: int


@dataclass
class SkipStack:
    """Target-encoder activations kept for the decoder.

    ``s1`` sits at half the image resolution, ``s2`` at a quarter.
    """

    s1: Tensor
    s2: Tensor


@dataclass
class ModelParams:
    config: ModelConfig
    ref_encoder: EncoderParams | None  # absent in single-encoder mode
    tar_encoder: EncoderParams
    nlpmm_first: NlpmmParams
    nlpmm_prev: NlpmmParams
    cm_first: CmState
    cm_prev: CmState
    fusion: ConvParams
    refine1: ConvParams
    refine2: ConvParams
    head: ConvParams

    def named_parameters(self) -> dict[str, ParamTensor]:
        """All parameters in field order (the checkpoint layout), keyed by name."""
        return {p.name: p for p in _walk(self)}


def _walk(node):
    """The ParamTensors under a parameter dataclass, depth first in field order."""
    if isinstance(node, ParamTensor):
        yield node
    elif is_dataclass(node):
        for field in fields(node):
            yield from _walk(getattr(node, field.name))


def _init_conv(rng, name: str, k: int, cin: int, cout: int) -> ConvParams:
    return ConvParams(*init_conv(rng, name, k, cin, cout))


def _init_encoder(rng, name: str, in_channels: int, widths) -> EncoderParams:
    c1, c2, c3 = widths
    return EncoderParams(
        stage1=_init_conv(rng, f"{name}/stage1", 3, in_channels, c1),
        stage2=_init_conv(rng, f"{name}/stage2", 3, c1, c2),
        stage3=_init_conv(rng, f"{name}/stage3", 3, c2, c3),
        in_channels=in_channels,
    )


def init_model_params(seed: int, config: ModelConfig = ModelConfig()) -> ModelParams:
    """He-uniform weights, zero biases, fully determined by the seed."""
    rng = spawn_rng(seed, 0)
    c = config.feature_channels
    c4 = config.reduced_channels
    c1, c2, _ = config.stage_channels

    if config.single_encoder:
        ref_encoder = None
        tar_encoder = _init_encoder(rng, "encoder", 4, config.stage_channels)
    else:
        ref_encoder = _init_encoder(rng, "ref_encoder", 3, config.stage_channels)
        tar_encoder = _init_encoder(rng, "tar_encoder", 4, config.stage_channels)

    return ModelParams(
        config=config,
        ref_encoder=ref_encoder,
        tar_encoder=tar_encoder,
        nlpmm_first=init_nlpmm_params(rng, c, "nlpmm_first"),
        nlpmm_prev=init_nlpmm_params(rng, c, "nlpmm_prev"),
        cm_first=init_cm_state("cm_first"),
        cm_prev=init_cm_state("cm_prev"),
        fusion=_init_conv(rng, "fusion", 3, 2 * c4, c4),
        refine1=_init_conv(rng, "decoder/refine1", 3, c4 + c2, c4),
        refine2=_init_conv(rng, "decoder/refine2", 3, c4 + c1, c4),
        head=_init_conv(rng, "decoder/head", 1, c4, 1),
    )


def _check_image(image: np.ndarray, channels: int, what: str) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != channels:
        raise ShapeError(f"{what} must be (H, W, {channels}), got shape {image.shape}")
    check_grid(image.shape[:2], what)
    return image


def check_grid(size, what: str) -> None:
    """Raise ShapeError unless both sides of an (H, W) size fit the feature grid."""
    h, w = size
    if h % GRID_STRIDE or w % GRID_STRIDE:
        raise ShapeError(f"{what} size {h}x{w} is not divisible by {GRID_STRIDE}")


def _stage(x: Tensor, p: ConvParams, tape, downsample: bool) -> Tensor:
    out = ops.relu(ops.conv2d(x, use_param(tape, p.w), use_param(tape, p.b), stride=1, pad=1))
    if downsample:
        h, w, _ = out.shape
        out = ops.bilinear_resize(out, h // 2, w // 2)
    return out


def encode_reference(image: np.ndarray, enc: EncoderParams, tape=None) -> FeatureMap:
    """Features of a background-masked reference frame at 1/4 resolution."""
    image = _check_image(image, enc.in_channels, "reference image")
    x = _stage(Tensor(image), enc.stage1, tape, downsample=True)
    x = _stage(x, enc.stage2, tape, downsample=True)
    x = _stage(x, enc.stage3, tape, downsample=False)
    return FeatureMap(x)


def encode_target(image: np.ndarray, guidance: np.ndarray, enc: EncoderParams, tape=None):
    """Features and skip activations of the target frame.

    ``guidance`` is the previous-frame mask (probabilities or ground truth
    at the first step) and rides along as a fourth input channel.
    """
    image = np.asarray(image, dtype=np.float64)
    guidance = np.asarray(guidance, dtype=np.float64)
    if guidance.shape != image.shape[:2]:
        raise ShapeError(f"guidance {guidance.shape} does not match image {image.shape[:2]}")
    if guidance.min() < 0.0 or guidance.max() > 1.0:
        raise ValueError("guidance mask must lie in [0, 1]")
    stacked = _check_image(np.concatenate([image, guidance[:, :, None]], axis=2), 4, "target input")
    s1 = _stage(Tensor(stacked), enc.stage1, tape, downsample=True)
    s2 = _stage(s1, enc.stage2, tape, downsample=True)
    f = _stage(s2, enc.stage3, tape, downsample=False)
    return FeatureMap(f), SkipStack(s1=s1, s2=s2)


def encode_reference_image(params: ModelParams, image: np.ndarray, tape=None) -> FeatureMap:
    """Reference encoding that honours the single-encoder switch.

    With one shared encoder the reference gets an all-zero guidance
    channel so every input speaks the same 4-channel language.
    """
    if params.config.single_encoder:
        image = np.asarray(image, dtype=np.float64)
        f, _ = encode_target(image, np.zeros(image.shape[:2]), params.tar_encoder, tape)
        return f
    return encode_reference(image, params.ref_encoder, tape)


def fuse(first_matched: FeatureMap, prev_matched: FeatureMap, p: ConvParams, tape=None) -> FeatureMap:
    """Concatenate the two matched maps (first frame, then previous frame)
    and project back to C/4 channels."""
    joined = ops.concat_channels([first_matched.tensor, prev_matched.tensor])
    out = ops.conv2d(joined, use_param(tape, p.w), use_param(tape, p.b), stride=1, pad=1)
    return FeatureMap(out)


def decode(fused: FeatureMap, skips: SkipStack, params: ModelParams, tape=None) -> Tensor:
    """Two skip-refinement stages back to image resolution, then a 1x1 head.

    Each stage concatenates the skip at its native resolution, convolves,
    and doubles the resolution.
    """
    x = ops.concat_channels([fused.tensor, skips.s2])
    x = ops.relu(ops.conv2d(x, use_param(tape, params.refine1.w), use_param(tape, params.refine1.b), stride=1, pad=1))
    h, w, _ = x.shape
    x = ops.bilinear_resize(x, 2 * h, 2 * w)

    x = ops.concat_channels([x, skips.s1])
    x = ops.relu(ops.conv2d(x, use_param(tape, params.refine2.w), use_param(tape, params.refine2.b), stride=1, pad=1))
    h, w, _ = x.shape
    x = ops.bilinear_resize(x, 2 * h, 2 * w)

    return ops.conv2d(x, use_param(tape, params.head.w), use_param(tape, params.head.b), stride=1, pad=0)


def _reference_features(params: ModelParams, reference, target_shape, what: str, tape) -> FeatureMap:
    """A reference's features: a FeatureMap as given, an image encoded
    after its size is checked against the target's."""
    if isinstance(reference, FeatureMap):
        return reference
    if np.shape(reference)[:2] != target_shape[:2]:
        raise ShapeError(f"{what} shape {np.shape(reference)} does not match target {target_shape}")
    return encode_reference_image(params, reference, tape)


def in_order(first, second):
    """``(first(), second())``: ``forward_single_object``'s default way to
    run its two independent steps."""
    return first(), second()


def forward_single_object(
    params: ModelParams,
    first: np.ndarray | FeatureMap,
    prev: np.ndarray | FeatureMap,
    cur_rgb: np.ndarray,
    guidance: np.ndarray,
    tape=None,
    disable_cm: bool = False,
    run_pair=in_order,
) -> Tensor:
    """Probability map for one tracked object on the current frame.

    ``first`` and ``prev`` are the two references: each either the frame
    with its background zeroed out or the FeatureMap that
    ``encode_reference_image`` made of it, so a reference that does not
    change is encoded once. ``guidance`` is the previous frame's mask for
    this object. Returns an (H, W) tensor of probabilities in (0, 1).

    The two branches meet only at fusion, so the pass holds two pairs of
    independent steps: the previous reference's encode and the target's,
    then the two references' matches. ``run_pair(a, b)`` runs each pair
    and returns ``(a(), b())``. Untaped, each step's result is the same
    whether the two run in order or at once; a taped pass keeps the
    default, since a tape records on one thread. The CM blocks, about
    0.25 ms each on a 32x48 feature grid, follow both matches, so a tape
    binds the parameters in their field order.
    """
    cur_rgb = np.asarray(cur_rgb, dtype=np.float64)
    f_first = _reference_features(params, first, cur_rgb.shape, "first reference", tape)
    f_prev, (f_tar, skips) = run_pair(
        lambda: _reference_features(params, prev, cur_rgb.shape, "previous reference", tape),
        lambda: encode_target(cur_rgb, guidance, params.tar_encoder, tape),
    )

    m_first, m_prev = run_pair(
        lambda: nlpmm_forward(f_first, f_tar, params.nlpmm_first, tape),
        lambda: nlpmm_forward(f_prev, f_tar, params.nlpmm_prev, tape),
    )
    if not disable_cm:
        m_first = cm_forward(m_first, params.cm_first, tape)
        m_prev = cm_forward(m_prev, params.cm_prev, tape)

    fused = fuse(m_first, m_prev, params.fusion, tape)
    logits = decode(fused, skips, params, tape)
    h, w = cur_rgb.shape[:2]
    return ops.sigmoid(ops.reshape(logits, (h, w)))


def save_checkpoint(path, params: ModelParams) -> None:
    """Serialize all named parameters; float64 payloads round-trip exactly."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    for name, p in params.named_parameters().items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        shape = p.value.shape
        buf.write(struct.pack("<I", len(shape)))
        for dim in shape:
            buf.write(struct.pack("<I", dim))
        buf.write(p.value.array.astype("<f8", copy=False).tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint into name -> array, validating the envelope."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)", offset=0)
    pos = len(CHECKPOINT_MAGIC)
    out: dict[str, np.ndarray] = {}

    def take(count, what):
        nonlocal pos
        if pos + count > len(blob):
            raise FormatError(f"{path}: truncated while reading {what}", offset=pos)
        piece = blob[pos : pos + count]
        pos += count
        return piece

    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: parameter name is not UTF-8", offset=pos - name_len + exc.start) from None
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims")) if rank else ()
        count = math.prod(dims)  # Python integers: numpy's int64 product can wrap to a small count
        data = np.frombuffer(take(8 * count, f"data of {name}"), dtype="<f8")
        if name in out:
            raise FormatError(f"{path}: duplicate parameter {name}", offset=pos)
        if not np.all(np.isfinite(data)):
            raise FormatError(f"{path}: parameter {name} holds non-finite values", offset=pos - 8 * count)
        out[name] = data.reshape(dims).copy()
    return out


def load_checkpoint(path, params: ModelParams) -> None:
    """Fill ``params`` from a checkpoint; names and shapes must match."""
    stored = read_checkpoint(path)
    skeleton = params.named_parameters()
    missing = sorted(set(skeleton) - set(stored))
    extra = sorted(set(stored) - set(skeleton))
    if missing or extra:
        raise ConfigError(
            f"checkpoint does not fit this model (missing: {missing or 'none'}, unexpected: {extra or 'none'}); "
            "check the encoder-mode flags"
        )
    for name, p in skeleton.items():
        arr = stored[name]
        if arr.shape != p.value.shape:
            raise ConfigError(f"parameter {name} has shape {arr.shape}, expected {p.value.shape}")
        p.value = Tensor(arr)
