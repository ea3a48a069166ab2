"""Acceptance criteria, one test per criterion with pinned tolerances.

The heavy end-to-end pipeline (criteria 8 through 10) runs once in a
session fixture; everything else is a fast property check. Each test
records a ``criterion N: PASS/FAIL`` line; the collected lines land in
``acceptance_report.txt`` at the repository root.
"""

import json
import os
import time

import numpy as np
import pytest

from npmca import cli
from npmca.attention import channel_attention_map, cm_forward, init_cm_state, RAW_GAMMA_ZERO
from npmca.autodiff import Tape
from npmca.matching import (
    FeatureMap,
    flatten_grid,
    init_nlpmm_params,
    nlpmm_forward,
    reduce_channels,
)
from npmca.metrics import EvalReport, ObjectScore, contour_f, region_j
from npmca.model import (
    ModelConfig,
    forward_single_object,
    init_model_params,
    load_checkpoint,
    save_checkpoint,
)
from npmca import ops
from npmca.propagation import aggregate_multi_object
from npmca.rng import make_rng
from npmca.tensor import Tensor

from npmca import oracles


REPORT_PATH = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")


def run_cli(argv):
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in sorted(files):
            if fname == "run.cfg":
                continue
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture(scope="session")
def report_lines():
    lines: list[str] = []
    yield lines
    lines.sort()
    with open(REPORT_PATH, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def record(report_lines):
    def _record(criterion: int, ok: bool, detail: str):
        line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        print(line)
        report_lines.append(line)
        assert ok, line

    return _record


def mean_scores(report_dir) -> tuple[float, float]:
    with open(os.path.join(report_dir, "report.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload["mean_j"], payload["mean_f"]


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Generate data, train the default model, and segment the held-out set.

    Only the criterion-8 chain (generate, train, infer, eval) counts toward
    the wall-clock budget; the ablation and encoder-sharing runs come after
    the clock stops.
    """
    root = tmp_path_factory.mktemp("acceptance")
    train_data = str(root / "train_data")
    eval_data = str(root / "eval_data")
    started = time.monotonic()
    stages = {}  # seconds of each step of the chain

    def stage_done(name):
        stages[name] = time.monotonic() - started - sum(stages.values())

    assert run_cli(["gen", "--n", 200, "--out", train_data, "--seed", 100]) == 0
    assert run_cli(["gen", "--n", 20, "--out", eval_data, "--seed", 200]) == 0
    stage_done("gen")

    init_ckpt = str(root / "init.ckpt")
    save_checkpoint(init_ckpt, init_model_params(0, ModelConfig()))
    run_dir = str(root / "run_default")
    assert run_cli(
        ["train", "--data", train_data, "--out", run_dir, "--stage", "finetune",
         "--init-checkpoint", init_ckpt, "--iterations", 2000, "--lr", 3e-4,
         "--batch", 4, "--max-skip", 5, "--seed", 0]
    ) == 0
    ckpt = os.path.join(run_dir, "model.ckpt")
    stage_done("train")

    preds = str(root / "preds_default")
    scores = str(root / "scores_default")
    assert run_cli(["infer", "--data", eval_data, "--checkpoint", ckpt, "--out", preds]) == 0
    stage_done("infer")
    assert run_cli(["eval", "--pred", preds, "--data", eval_data, "--out", scores]) == 0
    stage_done("eval")
    elapsed = time.monotonic() - started
    mean_j, mean_f = mean_scores(scores)

    occ_data = str(root / "occ_data")
    assert run_cli(["gen", "--n", 20, "--out", occ_data, "--seed", 300, "--preset", "occlusion-heavy"]) == 0
    occlusion_j = {}
    for tag, extra in (("full", []), ("first_frame_only", ["--first-frame-only"]), ("no_cm", ["--disable-cm"])):
        pred_dir = str(root / f"preds_occ_{tag}")
        score_dir = str(root / f"scores_occ_{tag}")
        assert run_cli(["infer", "--data", occ_data, "--checkpoint", ckpt, "--out", pred_dir] + extra) == 0
        assert run_cli(["eval", "--pred", pred_dir, "--data", occ_data, "--out", score_dir]) == 0
        occlusion_j[tag] = mean_scores(score_dir)[0]

    init_single = str(root / "init_single.ckpt")
    save_checkpoint(init_single, init_model_params(0, ModelConfig(single_encoder=True)))
    single_dir = str(root / "run_single")
    assert run_cli(
        ["train", "--data", train_data, "--out", single_dir, "--stage", "finetune",
         "--init-checkpoint", init_single, "--iterations", 300, "--lr", 3e-4,
         "--batch", 4, "--max-skip", 5, "--seed", 0, "--single-encoder"]
    ) == 0
    single_preds = str(root / "preds_single")
    single_scores = str(root / "scores_single")
    assert run_cli(
        ["infer", "--data", eval_data, "--checkpoint", os.path.join(single_dir, "model.ckpt"),
         "--out", single_preds, "--single-encoder"]
    ) == 0
    assert run_cli(["eval", "--pred", single_preds, "--data", eval_data, "--out", single_scores]) == 0

    return {
        "root": root,
        "elapsed": elapsed,
        "stages": stages,
        "mean_j": mean_j,
        "mean_f": mean_f,
        "occlusion_j": occlusion_j,
        "single_encoder_j": mean_scores(single_scores)[0],
    }


class TestAcceptance:
    def test_criterion_01_nlpmm_matches_loop_oracle(self, record):
        rng = make_rng(4001)
        started = time.monotonic()
        worst = 0.0
        for _ in range(100):
            f_ref = FeatureMap(Tensor(rng.standard_normal((4, 5, 8))))
            f_tar = FeatureMap(Tensor(rng.standard_normal((4, 5, 8))))
            params = init_nlpmm_params(rng, 8, "acc")
            got = nlpmm_forward(f_ref, f_tar, params).tensor.array
            want = oracles.nlpmm_loops(
                f_ref.tensor.array, f_tar.tensor.array,
                params.reduce_ref_w.value.array, params.reduce_ref_b.value.array,
                params.reduce_tar_w.value.array, params.reduce_tar_b.value.array,
            )
            worst = max(worst, float(np.abs(got - want).max()))
        took = time.monotonic() - started
        record(1, worst < 1e-10 and took < 5.0,
               f"matching vs loop oracle, 100 trials: max abs diff {worst:.2e} (tol 1e-10), {took:.1f}s (limit 5s)")

    def test_criterion_02_cm_matches_loop_oracle(self, record):
        rng = make_rng(4002)
        worst = 0.0
        for _ in range(100):
            f_in = FeatureMap(Tensor(rng.standard_normal((4, 5, 4))))
            state = init_cm_state("acc", raw=float(rng.uniform(-2.0, 2.0)))
            got = cm_forward(f_in, state).tensor.array
            want = oracles.cm_loops(f_in.tensor.array, state.gamma())
            worst = max(worst, float(np.abs(got - want).max()))
        f_in = FeatureMap(Tensor(rng.standard_normal((5, 6, 4))))
        silent = init_cm_state("acc", raw=RAW_GAMMA_ZERO)
        identity = bool(np.array_equal(cm_forward(f_in, silent).tensor.array, f_in.tensor.array))
        record(2, worst < 1e-10 and identity,
               f"attention vs loop oracle, 100 trials: max abs diff {worst:.2e} (tol 1e-10), "
               f"gamma-zero identity {'exact' if identity else 'broken'}")

    def test_criterion_03_normalizations_are_column_stochastic(self, record):
        rng = make_rng(4003)
        worst = 0.0
        for _ in range(1000):
            scale = float(rng.uniform(0.5, 300.0))
            ref = Tensor(rng.standard_normal((12, 4)) * scale)
            tar = Tensor(rng.standard_normal((12, 4)) * scale)
            s = ops.softmax_columns(ops.matmul(ref, ops.transpose(tar))).array
            a = channel_attention_map(Tensor(rng.standard_normal((15, 6)) * scale)).array
            worst = max(
                worst,
                float(np.abs(s.sum(axis=0) - 1.0).max()),
                float(np.abs(a.sum(axis=0) - 1.0).max()),
            )
        record(3, worst <= 1e-9,
               f"column sums over 1000 random inputs: max deviation {worst:.2e} (tol 1e-9)")

    def test_criterion_04_matched_features_stay_in_convex_hull(self, record):
        rng = make_rng(4004)
        worst = -np.inf
        for _ in range(1000):
            f_ref = FeatureMap(Tensor(rng.standard_normal((3, 4, 8)) * rng.uniform(0.5, 20.0)))
            f_tar = FeatureMap(Tensor(rng.standard_normal((3, 4, 8))))
            params = init_nlpmm_params(rng, 8, "acc")
            reduced = reduce_channels(f_ref, params.reduce_ref_w.value, params.reduce_ref_b.value)
            flat = flatten_grid(reduced).array
            out = nlpmm_forward(f_ref, f_tar, params).tensor.array.reshape(12, 2)
            worst = max(
                worst,
                float((out - flat.max(axis=0)).max()),
                float((flat.min(axis=0) - out).max()),
            )
        record(4, worst <= 1e-9,
               f"per-channel hull bound over 1000 random inputs: max violation {worst:.2e} (tol 1e-9)")

    def test_criterion_05_gradient_audit_full_model(self, record):
        """Reverse mode vs central differences on every parameter group.

        The loss is mean squared probability, so its scale stays O(1) and
        the h=1e-6 difference quotient keeps roughly five clean digits;
        both attention blend weights sit at an active operating point so
        their gradients are not vanishingly small. Probed coordinates are
        each group's three largest-magnitude gradient entries.
        """
        started = time.monotonic()
        rng = make_rng(4005)
        params = init_model_params(17, ModelConfig())
        params.cm_first.raw_gamma.value = Tensor(np.asarray(0.5))
        params.cm_prev.raw_gamma.value = Tensor(np.asarray(0.5))
        first, prev, cur = (rng.uniform(size=(32, 48, 3)) for _ in range(3))
        guidance = rng.uniform(size=(32, 48))
        n_px = float(32 * 48)

        def run_loss():
            prob = forward_single_object(params, first, prev, cur, guidance)
            return float(np.sum(prob.array ** 2)) / n_px

        tape = Tape()
        prob = forward_single_object(params, first, prev, cur, guidance, tape=tape)
        tape.backward(ops.scale(ops.total_sum(ops.mul(prob, prob)), 1.0 / n_px))

        worst = 0.0
        groups = 0
        for p in params.named_parameters().values():
            flat = p.gradient.array.reshape(-1)
            for idx in np.argsort(np.abs(flat))[-3:]:
                fd = oracles.finite_difference(run_loss, p.value.array, [int(idx)], h=1e-6)[0]
                worst = max(worst, oracles.relative_error(flat[idx], fd))
            groups += 1
        took = time.monotonic() - started
        record(5, worst < 1e-5 and took < 60.0,
               f"all {groups} parameter groups at 32x48: max rel err {worst:.2e} (tol 1e-5), {took:.1f}s (limit 60s)")

    def test_criterion_06_aggregation_suite(self, record):
        rng = make_rng(4006)
        worst_sum = 0.0
        argmax_ok = True
        for m in (1, 2, 3):
            for _ in range(30):
                stack = rng.uniform(1e-4, 1.0 - 1e-4, size=(m, 5, 7))
                result = aggregate_multi_object(stack)
                want_probs, want_labels = oracles.aggregate_loops(stack)
                worst_sum = max(worst_sum, float(np.abs(result.probabilities.sum(axis=0) - 1.0).max()))
                argmax_ok = argmax_ok and np.array_equal(result.labels, want_labels)
                argmax_ok = argmax_ok and np.allclose(result.probabilities, want_probs, atol=1e-12)
        hand = aggregate_multi_object(np.array([[[0.2]], [[0.8]]])).probabilities[:, 0, 0]
        hand_diff = float(np.abs(hand - np.array([0.042896, 0.056300, 0.900804])).max())
        ok = worst_sum <= 1e-9 and argmax_ok and hand_diff < 1e-6
        record(6, ok,
               f"distribution sums off by {worst_sum:.2e} (tol 1e-9), brute-force agreement "
               f"{'holds' if argmax_ok else 'broken'} for M in 1..3, hand case diff {hand_diff:.2e} (tol 1e-6)")

    def test_criterion_07_metric_identities(self, record):
        box = np.zeros((12, 16), dtype=np.int64)
        box[3:9, 4:12] = 1
        half = np.zeros_like(box)
        half[3:9, 4:8] = 1
        disjoint = np.zeros_like(box)
        disjoint[10:12, 0:2] = 1
        empty = np.zeros_like(box)
        identities = (
            region_j(box, box, 1) == 1.0
            and contour_f(box, box, 1) == 1.0
            and region_j(box, disjoint, 1) == 0.0
            and region_j(empty, box, 1) == 0.0
            and contour_f(empty, box, 1) == 0.0
            and region_j(half, box, 1) == 0.5
        )
        report = EvalReport(
            [
                ObjectScore("a", 1, 0.25, 0.5),
                ObjectScore("a", 2, 0.75, 0.5),
                ObjectScore("b", 1, 1.0, 0.25),
            ]
        )
        mean_of_means = (
            report.mean_j == (0.5 + 1.0) / 2.0
            and report.mean_f == (0.5 + 0.25) / 2.0
            and report.jf == (report.mean_j + report.mean_f) / 2.0
        )
        record(7, identities and mean_of_means,
               f"J/F identities {'hold' if identities else 'broken'}, "
               f"J&F mean-of-means {'exact' if mean_of_means else 'off'}")

    def test_criterion_08_end_to_end_synthetic(self, record, pipeline):
        ok = (
            pipeline["mean_j"] >= 0.70
            and pipeline["mean_f"] >= 0.55
            and pipeline["elapsed"] <= 1800.0
        )
        record(8, ok,
               f"2000 iterations on 200 sequences, 20 held out: J {pipeline['mean_j']:.3f} (gate 0.70), "
               f"F {pipeline['mean_f']:.3f} (gate 0.55), wall clock {pipeline['elapsed']:.0f}s (limit 1800s; "
               + ", ".join(f"{name} {seconds:.1f}s" for name, seconds in pipeline["stages"].items()) + ")")

    def test_criterion_09_ablation_trends(self, record, pipeline):
        occ = pipeline["occlusion_j"]
        prev_trend = occ["full"] >= occ["first_frame_only"]
        cm_trend = occ["full"] >= occ["no_cm"]
        detail = (
            f"occlusion suite J: full {occ['full']:.3f}, first-frame-only {occ['first_frame_only']:.3f} "
            f"(trend {'held' if prev_trend else 'inverted'}), no-CM {occ['no_cm']:.3f} "
            f"(trend {'held' if cm_trend else 'inverted'}); trends reported, gate is criterion 8"
        )
        record(9, True, detail)

    def test_criterion_10_single_encoder_variant(self, record, pipeline):
        detail = (
            f"single-encoder run trained and scored J {pipeline['single_encoder_j']:.3f} "
            f"alongside default J {pipeline['mean_j']:.3f}; reported, no gate"
        )
        record(10, True, detail)

    def test_criterion_11_determinism(self, record, tmp_path):
        gen_a, gen_b = str(tmp_path / "gen_a"), str(tmp_path / "gen_b")
        for out in (gen_a, gen_b):
            assert run_cli(["gen", "--n", 5, "--out", out, "--seed", 77, "--resolution", "32x48", "--frames", 5]) == 0
        gen_same = tree_bytes(gen_a) == tree_bytes(gen_b)

        run_dir = str(tmp_path / "run")
        assert run_cli(
            ["train", "--data", gen_a, "--out", run_dir, "--stage", "pretrain", "--iterations", 2, "--batch", 2]
        ) == 0
        ckpt = os.path.join(run_dir, "model.ckpt")
        infer_a, infer_b = str(tmp_path / "inf_a"), str(tmp_path / "inf_b")
        for out in (infer_a, infer_b):
            assert run_cli(["infer", "--data", gen_a, "--checkpoint", ckpt, "--out", out,
                            "--sequence", "seq00002"]) == 0
        infer_same = tree_bytes(infer_a) == tree_bytes(infer_b)

        params = init_model_params(0, ModelConfig())
        load_checkpoint(ckpt, params)
        resaved = str(tmp_path / "resaved.ckpt")
        save_checkpoint(resaved, params)
        with open(ckpt, "rb") as fh_a, open(resaved, "rb") as fh_b:
            ckpt_same = fh_a.read() == fh_b.read()

        record(11, gen_same and infer_same and ckpt_same,
               f"gen rerun {'bitwise' if gen_same else 'differs'}, infer rerun "
               f"{'bitwise' if infer_same else 'differs'}, checkpoint round trip "
               f"{'bit-exact' if ckpt_same else 'drifted'}")
