"""Dense float64 tensors with explicit shape metadata.

A Tensor owns a C-contiguous float64 array, so reshape never moves memory.
Tensors are treated as immutable once built: operations return new tensors
and never write into their operands.
"""

import numpy as np

from .errors import ShapeError

_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """Immutable dense array of 64-bit floats.

    A tensor may be bound to a recording tape (``tape`` and ``uid`` set by
    the tape itself), in which case operations consuming it are recorded
    for reverse-mode differentiation. Plain tensors carry no tape and flow
    through the same operations without recording.
    """

    __slots__ = ("array", "tape", "uid")

    def __init__(self, values, tape=None, uid=None):
        # a C-contiguous float64 ndarray is kept as it is; anything else is
        # copied into one (np.asarray keeps a 0-d value 0-d, where
        # np.ascontiguousarray would make it shape (1,))
        if type(values) is not np.ndarray or values.dtype is not _FLOAT64 or not values.flags.c_contiguous:
            values = np.asarray(values, dtype=np.float64, order="C")
        self.array = values
        self.tape = tape
        self.uid = uid

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def size(self) -> int:
        return self.array.size

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.array.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = " traced" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


class ParamTensor:
    """Named model parameter with a gradient accumulator.

    ``gradient`` always has the shape of ``value``. Backward passes add
    into it; call ``zero_grad`` between optimizer steps. The value is
    replaced (not mutated) by optimizer updates, keeping Tensor semantics
    intact.
    """

    __slots__ = ("name", "value", "gradient")

    def __init__(self, name: str, values):
        self.name = name
        self.value = values if isinstance(values, Tensor) else Tensor(values)
        self.gradient = zeros(self.value.shape)

    def zero_grad(self) -> None:
        self.gradient.array[...] = 0.0

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.value.shape})"
