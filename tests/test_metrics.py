"""Loss and metric checks against loop oracles and hand-counted cases."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from npmca import oracles
from npmca.autodiff import Tape
from npmca.errors import ShapeError
from npmca.metrics import (
    EvalReport,
    ObjectScore,
    boundary_mask,
    contour_f,
    default_radius,
    evaluate_sequence,
    iou_loss,
    region_j,
)
from npmca.rng import make_rng
from npmca.tensor import Tensor


def random_blob(rng, h=12, w=14, object_id=1):
    mask = np.zeros((h, w), dtype=np.int64)
    cy, cx = rng.integers(3, h - 3), rng.integers(3, w - 3)
    ry, rx = rng.integers(2, 4), rng.integers(2, 4)
    ys, xs = np.ogrid[:h, :w]
    mask[((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0] = object_id
    return mask


class TestIouLoss:
    def test_perfect_prediction_scores_zero(self):
        gt = (make_rng(0).uniform(size=(9, 9)) > 0.5).astype(float)
        loss = iou_loss(Tensor(gt), gt)
        assert loss.item() == 0.0

    def test_inverted_prediction_is_near_one(self):
        gt = np.zeros((10, 10))
        gt[2:6, 2:6] = 1.0
        loss = iou_loss(Tensor(1.0 - gt), gt)
        assert_allclose(loss.item(), 1.0 - 1.0 / (100.0 + 1.0))

    def test_loss_decreases_toward_the_mask(self):
        rng = make_rng(1)
        gt = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
        wrong = rng.uniform(0.05, 0.95, size=(8, 8))
        losses = [
            iou_loss(Tensor((1.0 - t) * wrong + t * gt), gt).item()
            for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(2)
        gt = (rng.uniform(size=(8, 8)) > 0.5).astype(float)
        values = rng.uniform(0.1, 0.9, size=(8, 8))

        def run():
            return iou_loss(Tensor(values), gt).item()

        tape = Tape()
        pred = tape.watch(values)
        grads = tape.backward(iou_loss(pred, gt))
        got = grads.of(pred).reshape(-1)
        idx = np.arange(0, 64, 7)
        want = oracles.finite_difference(run, values, idx)
        for g, f in zip(got[idx], want):
            assert oracles.relative_error(g, f) < 1e-6

    def test_rejects_shape_mismatch_and_soft_masks(self):
        with pytest.raises(ShapeError):
            iou_loss(Tensor(np.zeros((3, 3))), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            iou_loss(Tensor(np.zeros((3, 3))), np.full((3, 3), 0.5))


class TestRegionJ:
    def test_identity_disjoint_half(self):
        a = np.zeros((10, 10), dtype=int)
        a[2:6, 2:6] = 1
        assert region_j(a, a, 1) == 1.0
        b = np.zeros((10, 10), dtype=int)
        b[7:9, 7:9] = 1
        assert region_j(a, b, 1) == 0.0
        half = np.zeros((10, 10), dtype=int)
        half[2:6, 2:4] = 1  # covers the left half of a, nothing else
        assert region_j(half, a, 1) == 0.5

    def test_both_empty_counts_as_perfect(self):
        z = np.zeros((5, 5), dtype=int)
        assert region_j(z, z, 3) == 1.0

    def test_symmetry_and_translation_invariance(self):
        rng = make_rng(3)
        for _ in range(10):
            a, b = random_blob(rng), random_blob(rng)
            assert region_j(a, b, 1) == region_j(b, a, 1)
            assert region_j(np.roll(a, (2, 1), (0, 1)), np.roll(b, (2, 1), (0, 1)), 1) == region_j(a, b, 1)


class TestBoundary:
    def test_matches_loop_oracle(self):
        rng = make_rng(4)
        for _ in range(20):
            blob = random_blob(rng) == 1
            assert np.array_equal(boundary_mask(blob), oracles.boundary_loops(blob))

    def test_border_pixels_are_boundary(self):
        full = np.ones((4, 6), dtype=bool)
        b = boundary_mask(full)
        assert b[0].all() and b[-1].all() and b[:, 0].all() and b[:, -1].all()
        assert not b[1:-1, 1:-1].any()


class TestContourF:
    def test_identity_and_empty_cases(self):
        a = np.zeros((12, 12), dtype=int)
        a[3:8, 3:8] = 1
        assert contour_f(a, a, 1) == 1.0
        empty = np.zeros((12, 12), dtype=int)
        assert contour_f(empty, a, 1) == 0.0
        assert contour_f(a, empty, 1) == 0.0
        assert contour_f(empty, empty, 1) == 1.0

    def test_one_pixel_shift_is_forgiven_at_radius_one(self):
        a = np.zeros((12, 12), dtype=int)
        a[3:8, 3:8] = 1
        assert contour_f(np.roll(a, 1, axis=1), a, 1, radius=1) == 1.0

    def test_matches_brute_force_oracle(self):
        rng = make_rng(5)
        for _ in range(10):
            a, b = random_blob(rng), random_blob(rng)
            r = default_radius(a.shape)
            assert_allclose(contour_f(a, b, 1), oracles.contour_f_loops(a, b, 1, r), atol=1e-12)

    def test_symmetry_and_translation_invariance(self):
        # pad the blobs so a 2-pixel roll is a real translation rather
        # than a wrap-around through the border
        rng = make_rng(6)
        for _ in range(10):
            a = np.pad(random_blob(rng), 4)
            b = np.pad(random_blob(rng), 4)
            assert contour_f(a, b, 1) == contour_f(b, a, 1)
            assert contour_f(np.roll(a, 2, 0), np.roll(b, 2, 0), 1) == contour_f(a, b, 1)

    def test_default_radius_tracks_the_diagonal(self):
        assert default_radius((64, 96)) == 1
        assert default_radius((480, 854)) == 7


class TestEvaluateSequence:
    def _sequence(self, rng, frames=4, objects=(1, 2)):
        gts = []
        for _ in range(frames):
            m = np.zeros((16, 16), dtype=int)
            for oid in objects:
                blob = random_blob(rng, 16, 16, oid)
                m[(blob != 0) & (m == 0)] = oid
            gts.append(m)
        return gts

    def test_perfect_prediction(self):
        gts = self._sequence(make_rng(7))
        report = evaluate_sequence(gts, gts, "seq")
        assert report.mean_j == 1.0 and report.mean_f == 1.0 and report.jf == 1.0

    def test_jf_is_mean_of_means(self):
        report = EvalReport([ObjectScore("s", 1, 0.8, 0.6)])
        assert report.jf == 0.7

    def test_hand_computed_multi_object_averages(self):
        rng = make_rng(8)
        gts = self._sequence(rng)
        preds = [gts[0]] + [np.roll(g, 1, axis=1) for g in gts[1:]]
        report = evaluate_sequence(preds, gts, "seq")
        for oid in (1, 2):
            want_j = np.mean([region_j(p, g, oid) for p, g in zip(preds[1:], gts[1:])])
            want_f = np.mean([contour_f(p, g, oid) for p, g in zip(preds[1:], gts[1:])])
            row = next(r for r in report.rows if r.object_id == oid)
            assert_allclose((row.j, row.f), (want_j, want_f))

    def test_sequence_averaging_is_over_per_sequence_means(self):
        # one sequence with two objects, one with a single object: the
        # overall mean weights sequences equally, not objects
        report = EvalReport(
            [
                ObjectScore("a", 1, 1.0, 1.0),
                ObjectScore("a", 2, 0.0, 0.0),
                ObjectScore("b", 1, 0.8, 0.8),
            ]
        )
        assert_allclose(report.mean_j, (0.5 + 0.8) / 2)
        assert report.sequence_means("a") == (0.5, 0.5)

    def test_argument_errors(self):
        gts = self._sequence(make_rng(9))
        with pytest.raises(ValueError):
            evaluate_sequence(gts[:-1], gts)
        with pytest.raises(ValueError):
            evaluate_sequence(gts[:1], gts[:1])
        blank = [np.zeros((8, 8), dtype=int)] * 3
        with pytest.raises(ValueError):
            evaluate_sequence(blank, blank)

    def test_report_serialization(self):
        gts = self._sequence(make_rng(10))
        report = evaluate_sequence(gts, gts, "roll")
        text = report.to_text()
        assert text.endswith("J: 1.000 F: 1.000 J&F: 1.000\n")
        assert "roll" in text
        payload = json.loads(report.to_json())
        assert payload["jf"] == 1.0
        assert payload["sequences"]["roll"]["objects"]["1"]["j"] == 1.0
