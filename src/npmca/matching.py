"""Non-local pixel matching between a reference and a target feature map.

Both maps are reduced to a quarter of their channels by separate 3x3
convolutions, flattened to (N, C/4) with N = H*W, and compared through the
inner-product similarity matrix S = ref @ tar^T. Softmax over each column
(the reference index) turns S into per-target-pixel mixing weights, and
the matched feature for a target pixel is the corresponding convex
combination of reduced reference features. Similarity, softmax and blend
are one primitive, ``ops.softmax_match``, for training and inference alike.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import use_param
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


def init_conv(rng: np.random.Generator, name: str, k: int, cin: int, cout: int) -> tuple[ParamTensor, ParamTensor]:
    """He-uniform (k, k, cin, cout) weights and zero biases, named ``name/w`` and ``name/b``."""
    limit = np.sqrt(6.0 / (k * k * cin))
    w = ParamTensor(f"{name}/w", rng.uniform(-limit, limit, size=(k, k, cin, cout)))
    b = ParamTensor(f"{name}/b", np.zeros(cout))
    return w, b


def init_nlpmm_params(rng: np.random.Generator, channels: int, prefix: str) -> NlpmmParams:
    if channels % 4:
        raise ConfigError(f"channel count {channels} is not divisible by 4")
    rw, rb = init_conv(rng, f"{prefix}/reduce_ref", 3, channels, channels // 4)
    tw, tb = init_conv(rng, f"{prefix}/reduce_tar", 3, channels, channels // 4)
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
    matched = ops.softmax_match(flatten_grid(r_ref), flatten_grid(r_tar))  # (C/4, N)
    h, w, c4 = r_tar.tensor.shape
    return FeatureMap(ops.reshape(ops.transpose(matched), (h, w, c4)))

