"""Soft-IoU training loss and the J / F / J&F evaluation measures.

The loss runs on tape tensors so it can be differentiated; the metrics are
plain numpy over integer label masks. Boundary agreement (F) matches each
boundary against the other one dilated by a small disk, with the radius
tied to the image diagonal.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ShapeError
from .tensor import Tensor


def iou_loss(pred: Tensor, gt: np.ndarray) -> Tensor:
    """1 - soft Jaccard index, smoothed with an additive epsilon of 1.

    ``pred`` holds probabilities, ``gt`` is a hard 0/1 mask. Zero exactly
    when the prediction is the mask itself.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} and mask {gt.shape} differ")
    if not ((gt == 0.0) | (gt == 1.0)).all():
        raise ValueError("ground truth mask must be binary")
    eps = Tensor(np.asarray(1.0))
    inter = ops.total_sum(ops.mul(pred, Tensor(gt)))
    union = ops.sub(ops.add(ops.total_sum(pred), Tensor(np.asarray(gt.sum()))), inter)
    ratio = ops.div(ops.add(inter, eps), ops.add(union, eps))
    return ops.sub(Tensor(np.asarray(1.0)), ratio)


def region_j(pred: np.ndarray, gt: np.ndarray, object_id: int) -> float:
    """Intersection over union of one object's binary masks.

    Two empty masks count as perfect agreement.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"masks {pred.shape} and {gt.shape} differ")
    p = pred == object_id
    g = gt == object_id
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


def boundary_mask(binary: np.ndarray) -> np.ndarray:
    """Object pixels 4-adjacent to background or sitting on the border."""
    b = np.asarray(binary, dtype=bool)
    padded = np.pad(b, 1, constant_values=False)
    interior = (
        padded[2:, 1:-1] & padded[:-2, 1:-1] & padded[1:-1, 2:] & padded[1:-1, :-2]
    )
    return b & ~interior


def default_radius(shape) -> int:
    """Boundary matching tolerance: 0.75% of the image diagonal, at least 1."""
    h, w = shape
    return max(1, round(0.0075 * math.hypot(h, w)))


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    h, w = mask.shape
    out = np.zeros_like(mask)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dy * dy + dx * dx > radius * radius:
                continue
            ys = slice(max(dy, 0), h + min(dy, 0))
            xs = slice(max(dx, 0), w + min(dx, 0))
            yd = slice(max(-dy, 0), h + min(-dy, 0))
            xd = slice(max(-dx, 0), w + min(-dx, 0))
            out[yd, xd] |= mask[ys, xs]
    return out


def contour_f(pred: np.ndarray, gt: np.ndarray, object_id: int, radius: int | None = None) -> float:
    """Boundary F-measure with a disk-shaped matching tolerance.

    Precision is the fraction of predicted boundary pixels within
    ``radius`` of the true boundary; recall is symmetric. Two boundary-free
    masks agree perfectly; exactly one empty boundary scores zero.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"masks {pred.shape} and {gt.shape} differ")
    if radius is None:
        radius = default_radius(pred.shape)
    pb = boundary_mask(pred == object_id)
    gb = boundary_mask(gt == object_id)
    np_pts = int(pb.sum())
    ng_pts = int(gb.sum())
    if np_pts == 0 and ng_pts == 0:
        return 1.0
    if np_pts == 0 or ng_pts == 0:
        return 0.0
    precision = float((pb & _dilate(gb, radius)).sum() / np_pts)
    recall = float((gb & _dilate(pb, radius)).sum() / ng_pts)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class ObjectScore:
    sequence: str
    object_id: int
    j: float
    f: float


class EvalReport:
    """Per-object scores with frames -> objects -> sequences averaging."""

    def __init__(self, rows: list[ObjectScore]):
        self.rows = list(rows)

    def merged(self, other: "EvalReport") -> "EvalReport":
        return EvalReport(self.rows + other.rows)

    def sequences(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.sequence not in seen:
                seen.append(row.sequence)
        return seen

    def sequence_means(self, sequence: str) -> tuple[float, float]:
        rows = [r for r in self.rows if r.sequence == sequence]
        return (
            sum(r.j for r in rows) / len(rows),
            sum(r.f for r in rows) / len(rows),
        )

    @property
    def mean_j(self) -> float:
        names = self.sequences()
        return sum(self.sequence_means(s)[0] for s in names) / len(names)

    @property
    def mean_f(self) -> float:
        names = self.sequences()
        return sum(self.sequence_means(s)[1] for s in names) / len(names)

    @property
    def jf(self) -> float:
        return (self.mean_j + self.mean_f) / 2.0

    def to_text(self) -> str:
        lines = [f"{'sequence':<16} {'object':>6} {'J':>7} {'F':>7}"]
        for r in self.rows:
            lines.append(f"{r.sequence:<16} {r.object_id:>6d} {r.j:>7.4f} {r.f:>7.4f}")
        lines.append(f"J: {self.mean_j:.3f} F: {self.mean_f:.3f} J&F: {self.jf:.3f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "sequences": {
                name: {
                    "objects": {
                        str(r.object_id): {"j": r.j, "f": r.f}
                        for r in self.rows
                        if r.sequence == name
                    },
                    "j": self.sequence_means(name)[0],
                    "f": self.sequence_means(name)[1],
                }
                for name in self.sequences()
            },
            "mean_j": self.mean_j,
            "mean_f": self.mean_f,
            "jf": self.jf,
        }
        return json.dumps(payload, indent=2) + "\n"


def evaluate_sequence(preds, gts, sequence: str = "sequence") -> EvalReport:
    """Score one sequence: frame 0 is the given mask and is never scored.

    Objects are the non-zero labels of the first ground-truth frame; each
    object's J and F are means over frames 1..T-1. A prediction whose size
    differs from its truth frame raises ShapeError naming the frame.
    """
    if len(preds) != len(gts):
        raise ValueError(f"{len(preds)} predictions vs {len(gts)} ground-truth frames")
    if len(gts) < 2:
        raise ValueError("scoring needs at least two frames; frame 0 is given")
    for t, (p, g) in enumerate(zip(preds, gts)):
        if np.shape(p) != np.shape(g):
            raise ShapeError(f"sequence {sequence} frame {t}: prediction {np.shape(p)} and truth {np.shape(g)} differ")
    object_ids = sorted(int(v) for v in np.unique(gts[0]) if v != 0)
    if not object_ids:
        raise ValueError("first frame contains no objects")
    rows = []
    for oid in object_ids:
        js = [region_j(p, g, oid) for p, g in zip(preds[1:], gts[1:])]
        fs = [contour_f(p, g, oid) for p, g in zip(preds[1:], gts[1:])]
        rows.append(ObjectScore(sequence, oid, sum(js) / len(js), sum(fs) / len(fs)))
    return EvalReport(rows)
