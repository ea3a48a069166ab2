"""``scripts/bench_pairs.py``'s summary on synthetic runs; no benchmark runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "frame_object_ms_p50", "better": "lower", "bound": 0.2},
    {"name": "frame_objects_per_s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def runs_of(workload, base, head):
    """One run per side and pair; ``base`` and ``head`` are lists of metric dicts."""
    runs = []
    for pair, (b, h) in enumerate(zip(base, head)):
        for side, values in (("base", b), ("head", h)):
            metrics = {name: {"value": v} for name, v in values.items()}
            runs.append({"workload": workload, "pair": pair, "side": side,
                         "result": {"failed": 0, "metrics": metrics}})
    return runs


def test_faster_inference_that_costs_memory_is_flagged():
    # the shape of a change that buys speed with concurrent similarity buffers
    base = [{"frame_object_ms_p50": 121.0 + k, "frame_objects_per_s": 8.2, "peak_rss_mb": 134.0 + k / 10}
            for k in range(5)]
    head = [{"frame_object_ms_p50": 66.0 + k, "frame_objects_per_s": 15.0, "peak_rss_mb": 165.0 + k / 10}
            for k in range(5)]
    metrics = bench_pairs.summarize(runs_of("infer-128x192-occl", base, head), END_TO_END)["infer-128x192-occl"]["metrics"]

    speed = metrics["frame_object_ms_p50"]
    assert speed["head_wins"] == 5 and speed["pairs"] == 5
    assert speed["head_change"] == pytest.approx(68.0 / 123.0 - 1.0)
    assert speed["worse_than_bound"] is False
    rate = metrics["frame_objects_per_s"]
    assert rate["head_change"] == pytest.approx(15.0 / 8.2 - 1.0)
    assert rate["worse_than_bound"] is False
    rss = metrics["peak_rss_mb"]
    assert rss["head_wins"] == 0
    assert rss["head_change"] == pytest.approx(165.2 / 134.2 - 1.0)
    assert rss["worse_than_bound"] is True


@pytest.mark.parametrize("better, head, worse", [
    ("lower", 109.0, False), ("lower", 111.0, True),
    ("higher", 91.0, False), ("higher", 89.0, True),
])
def test_bound_is_taken_in_the_metric_direction(better, head, worse):
    metric = [{"name": "m", "better": better, "bound": 0.1}]
    summary = bench_pairs.summarize(runs_of("w", [{"m": 100.0}] * 3, [{"m": head}] * 3), metric)
    assert summary["w"]["metrics"]["m"]["worse_than_bound"] is worse


def test_zero_base_median_has_no_relative_change():
    summary = bench_pairs.summarize(runs_of("w", [{"m": 0.0}], [{"m": 1.0}]),
                                    [{"name": "m", "better": "lower", "bound": 0.1}])
    entry = summary["w"]["metrics"]["m"]
    assert entry["head_change"] is None and entry["worse_than_bound"] is None
