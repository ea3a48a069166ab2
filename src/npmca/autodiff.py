"""Reverse-mode automatic differentiation over a recording tape.

Operations append nodes to a Tape in execution order, so the node list is
already a topological order of the computation. One walk in reverse
accumulates adjoints keyed by tensor uid. ``Tape.backward`` deposits the
parameter adjoints into each ParamTensor's gradient field;
``Tape.param_gradients`` returns them and writes nothing, so tapes over
one parameter set can run on several threads and their results be added
afterwards in an order the caller fixes.
"""

import numpy as np

from .errors import GraphStateError, ShapeError
from .tensor import ParamTensor, Tensor


class Node:
    """One recorded primitive: op name, operand uids, output uid, adjoint rule.

    ``vjp`` maps the adjoint of the output to one adjoint contribution per
    input (None for inputs that need no gradient).
    """

    __slots__ = ("op", "input_ids", "output_id", "vjp")

    def __init__(self, op, input_ids, output_id, vjp):
        self.op = op
        self.input_ids = input_ids
        self.output_id = output_id
        self.vjp = vjp


class Gradients:
    """Adjoints of tape leaves, queryable by the watched tensor."""

    def __init__(self, leaf_adjoints: dict):
        self._adjoints = leaf_adjoints

    def of(self, leaf: Tensor) -> np.ndarray:
        """Gradient of the loss w.r.t. a watched leaf (zeros if unused)."""
        if leaf.uid is None:
            raise GraphStateError("tensor was never watched by the tape")
        g = self._adjoints.get(leaf.uid)
        return np.zeros(leaf.shape) if g is None else np.asarray(g).reshape(leaf.shape)


class Tape:
    """Execution trace of differentiable operations."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._next_uid = 0
        self._params: dict[int, ParamTensor] = {}
        self._param_leaves: dict[int, Tensor] = {}

    def _fresh_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def watch(self, values) -> Tensor:
        """Register a leaf whose adjoint should be retained."""
        arr = values.array if isinstance(values, Tensor) else values
        return Tensor(arr, tape=self, uid=self._fresh_uid())

    def param(self, p: ParamTensor) -> Tensor:
        """Bind a parameter as a leaf; repeated calls reuse one leaf."""
        leaf = self._param_leaves.get(id(p))
        if leaf is None:
            leaf = Tensor(p.value.array, tape=self, uid=self._fresh_uid())
            self._param_leaves[id(p)] = leaf
            self._params[leaf.uid] = p
        return leaf

    def record(self, op: str, inputs, out_array: np.ndarray, vjp) -> Tensor:
        """Append a node producing ``out_array`` from ``inputs``."""
        out = Tensor(out_array, tape=self, uid=self._fresh_uid())
        input_ids = tuple([t.uid if isinstance(t, Tensor) and t.tape is self else None for t in inputs])
        self.nodes.append(Node(op, input_ids, out.uid, vjp))
        return out

    def _adjoints(self, loss: Tensor) -> dict:
        """d(loss)/d(tensor) keyed by uid, for every tensor the loss reaches."""
        if loss.tape is not self:
            raise GraphStateError("loss tensor does not belong to this tape")
        if not self.nodes:
            raise GraphStateError("backward called before any recorded operation")
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

        adjoints: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.array)}
        pop, get = adjoints.pop, adjoints.get
        for node in reversed(self.nodes):
            g = pop(node.output_id, None)
            if g is None:
                continue
            for uid, contrib in zip(node.input_ids, node.vjp(g)):
                if uid is not None and contrib is not None:
                    held = get(uid)
                    adjoints[uid] = contrib if held is None else held + contrib
        # the leaves point back at this tape; dropping them lets reference
        # counting free the tape as soon as its caller lets go of it
        self._param_leaves.clear()
        return adjoints

    def param_gradients(self, loss: Tensor) -> list[tuple[ParamTensor, np.ndarray]]:
        """(parameter, d(loss)/d(parameter)) for each bound parameter the
        loss depends on, in binding order, each shaped like its value.

        Writes into no ``ParamTensor.gradient``; adding the pairs into
        them, in any fixed order, is the caller's step.
        """
        return self._param_pairs(self._adjoints(loss))

    def _param_pairs(self, adjoints: dict) -> list[tuple[ParamTensor, np.ndarray]]:
        return [
            (p, np.asarray(adjoints[uid]).reshape(p.gradient.shape))
            for uid, p in self._params.items()
            if uid in adjoints
        ]

    def backward(self, loss: Tensor) -> Gradients:
        """Accumulate d(loss)/d(leaf) for every leaf of this tape.

        Parameter gradients are added into ``ParamTensor.gradient`` so a
        caller can accumulate over several backward passes; other watched
        leaves are reported through the returned Gradients.
        """
        adjoints = self._adjoints(loss)
        for p, g in self._param_pairs(adjoints):
            p.gradient.array += g
        return Gradients(adjoints)


def resolve_tape(*tensors) -> Tape | None:
    """Return the single tape the operands are bound to, or None.

    Mixing tensors from two different tapes in one operation is a state
    error: the adjoint bookkeeping of the tapes would interleave.
    """
    tape = None
    for t in tensors:
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise GraphStateError("operands belong to different tapes")
    return tape


def use_param(tape: Tape | None, p: ParamTensor) -> Tensor:
    """Parameter value as seen by a forward pass (bound when recording)."""
    return tape.param(p) if tape is not None else p.value


def zero_gradients(params) -> None:
    for p in params:
        p.zero_grad()
