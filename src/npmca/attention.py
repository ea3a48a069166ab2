"""Channel attention over a matched feature map.

The block computes the channel Gram matrix A = flat^T @ flat of the
flattened (N, C/4) input, normalizes each column of A with a softmax over
the channel index, reweights the input channels with the normalized map,
and blends the result back into the input through a learned non-negative
weight: out = gamma * (flat @ A') + flat. There is no convolution inside
the block, and it always runs in series after the matching block.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .autodiff import use_param
from .errors import ShapeError
from .matching import FeatureMap
from .tensor import ParamTensor, Tensor


# softplus(-10) ~ 4.5e-5, so a fresh block starts indistinguishable from
# the identity but can grow its contribution during training
RAW_GAMMA_INIT = -10.0

# softplus underflows to an exact 0.0 below roughly -745; this raw value
# makes the residual term vanish bitwise
RAW_GAMMA_ZERO = -800.0


@dataclass
class CmState:
    """Learned blend weight, stored pre-softplus so gamma stays >= 0."""

    raw_gamma: ParamTensor

    def gamma(self) -> float:
        return float(np.logaddexp(0.0, self.raw_gamma.value.array))


def init_cm_state(name: str, raw: float = RAW_GAMMA_INIT) -> CmState:
    return CmState(ParamTensor(f"{name}/raw_gamma", np.asarray(raw)))


def channel_attention_map(flat: Tensor) -> Tensor:
    """Normalized channel-affinity matrix A' of a flattened (N, C) input.

    Column j of A' is a distribution over input channels describing how
    much each of them feeds output channel j.
    """
    if flat.ndim != 2:
        raise ShapeError(f"flattened features must be a matrix, got shape {flat.shape}")
    gram = ops.matmul(ops.transpose(flat), flat)
    return ops.softmax_columns(gram)


def cm_forward(f_in: FeatureMap, state: CmState, tape=None) -> FeatureMap:
    """Residual channel reweighting of an (H, W, C/4) map."""
    h, w, c = f_in.tensor.shape
    flat = ops.reshape(f_in.tensor, (h * w, c))
    # mix the input channels by the normalized affinity columns
    mixed = ops.matmul(flat, channel_attention_map(flat))
    raw = use_param(tape, state.raw_gamma)
    gamma = ops.softplus(raw)
    out = ops.add(ops.mul(gamma, mixed), flat)
    return FeatureMap(ops.reshape(out, (h, w, c)))

