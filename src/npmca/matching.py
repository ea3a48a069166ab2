"""Non-local pixel matching between a reference and a target feature map.

Both maps are reduced to a quarter of their channels by separate 3x3
convolutions, flattened to (N, C/4) with N = H*W, and compared through the
inner-product similarity matrix S = ref @ tar^T. Softmax over each column
(the reference index) turns S into per-target-pixel mixing weights, and
the matched feature for a target pixel is the corresponding convex
combination of reduced reference features.

Untaped, as at inference, ``nlpmm_forward`` computes S into one fresh
(N, N) array, softmaxes its columns in place and blends from it, so a
match allocates one N^2 buffer; the result is the same bit for bit as the
taped composition of ``similarity``, ``normalize_similarity`` and
``match``, which keeps S for the backward pass.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import resolve_tape, use_param
from .errors import ConfigError, ShapeError
from .tensor import ParamTensor, Tensor


@dataclass
class FeatureMap:
    """A spatial grid of channel vectors, stored as an (H, W, C) tensor."""

    tensor: Tensor

    def __post_init__(self):
        if self.tensor.ndim != 3:
            raise ShapeError(f"feature map must be rank 3, got shape {self.tensor.shape}")

    @property
    def height(self) -> int:
        return self.tensor.shape[0]

    @property
    def width(self) -> int:
        return self.tensor.shape[1]

    @property
    def channels(self) -> int:
        return self.tensor.shape[2]

    @property
    def pixels(self) -> int:
        return self.height * self.width


@dataclass
class NlpmmParams:
    """Reduction convolutions for the two branches (separate weights)."""

    reduce_ref_w: ParamTensor
    reduce_ref_b: ParamTensor
    reduce_tar_w: ParamTensor
    reduce_tar_b: ParamTensor

    def parameters(self) -> list[ParamTensor]:
        return [self.reduce_ref_w, self.reduce_ref_b, self.reduce_tar_w, self.reduce_tar_b]


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def init_nlpmm_params(rng: np.random.Generator, channels: int, prefix: str) -> NlpmmParams:
    if channels % 4:
        raise ConfigError(f"channel count {channels} is not divisible by 4")
    reduced = channels // 4
    fan_in = 3 * 3 * channels

    def conv(tag):
        w = ParamTensor(f"{prefix}/{tag}/w", he_uniform(rng, (3, 3, channels, reduced), fan_in))
        b = ParamTensor(f"{prefix}/{tag}/b", np.zeros(reduced))
        return w, b

    rw, rb = conv("reduce_ref")
    tw, tb = conv("reduce_tar")
    return NlpmmParams(rw, rb, tw, tb)


def reduce_channels(f: FeatureMap, weight, bias, tape=None) -> FeatureMap:
    """Project C channels down to C/4 with a 3x3 same-size convolution.

    No nonlinearity follows the projection; the similarity scores consume
    the raw linear features.
    """
    if f.channels % 4:
        raise ConfigError(f"channel count {f.channels} is not divisible by 4")
    w = use_param(tape, weight) if isinstance(weight, ParamTensor) else weight
    b = use_param(tape, bias) if isinstance(bias, ParamTensor) else bias
    out = ops.conv2d(f.tensor, w, b, stride=1, pad=1)
    return FeatureMap(out)


def flatten_grid(f: FeatureMap) -> Tensor:
    """Row-major flatten of an (H, W, C) map into (H*W, C)."""
    return ops.reshape(f.tensor, (f.pixels, f.channels))


def similarity(ref_flat: Tensor, tar_flat: Tensor) -> Tensor:
    """Inner products of every reference pixel (rows) with every target
    pixel (columns)."""
    if ref_flat.ndim != 2 or tar_flat.ndim != 2:
        raise ShapeError(f"flattened features must be matrices, got {ref_flat.shape} and {tar_flat.shape}")
    if ref_flat.shape != tar_flat.shape:
        raise ShapeError(f"reference {ref_flat.shape} and target {tar_flat.shape} grids differ")
    return ops.matmul(ref_flat, ops.transpose(tar_flat))


def normalize_similarity(s: Tensor) -> Tensor:
    """Softmax over the reference axis, one distribution per target pixel."""
    return ops.softmax_columns(s)


def match(ref_flat: Tensor, s: Tensor) -> Tensor:
    """Blend reference features by the normalized similarity columns.

    Returns (C/4, N): column j is the matched feature vector for target
    pixel j, a convex combination of the reduced reference rows.
    """
    return ops.matmul(ops.transpose(ref_flat), s)


def nlpmm_forward(f_ref: FeatureMap, f_tar: FeatureMap, params: NlpmmParams, tape=None) -> FeatureMap:
    """Full matching block: reduce both maps, compare, gather.

    The output is an (H, W, C/4) map aligned with the target grid.
    """
    if (f_ref.height, f_ref.width, f_ref.channels) != (f_tar.height, f_tar.width, f_tar.channels):
        raise ShapeError(
            f"reference {f_ref.tensor.shape} and target {f_tar.tensor.shape} feature maps differ"
        )
    r_ref = reduce_channels(f_ref, params.reduce_ref_w, params.reduce_ref_b, tape)
    r_tar = reduce_channels(f_tar, params.reduce_tar_w, params.reduce_tar_b, tape)
    ref_flat = flatten_grid(r_ref)
    tar_flat = flatten_grid(r_tar)
    if resolve_tape(ref_flat, tar_flat) is None:
        ref = ref_flat.array
        s = ref @ tar_flat.array.T
        matched = Tensor(ref.T @ ops.softmax_columns_inplace(s, out=s))
    else:
        s = normalize_similarity(similarity(ref_flat, tar_flat))
        matched = match(ref_flat, s)  # (C/4, N)
    h, w, c4 = r_tar.tensor.shape
    return FeatureMap(ops.reshape(ops.transpose(matched), (h, w, c4)))

