"""Benchmark of npmca: training and inference workloads, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-64x96 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, each in its own process

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Progress, check
results and a readable table go to standard error. Generated clips and
checkpoints live under ``.perfbench_out/`` for the length of a run; traced
runs leave their spans in ``.perfbench_out/traces/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# One BLAS thread: figures stay comparable between runs on a shared machine.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("train-64x96", "infer-64x96-3scale", "infer-128x192-occl")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import npmca from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "npmca", "__init__.py")):
        raise SystemExit(f"perfbench: no npmca sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import npmca
    import npmca.autodiff
    import npmca.cli
    import npmca.datagen
    import npmca.metrics
    import npmca.model
    import npmca.ops
    import npmca.propagation
    import npmca.training

    if os.path.dirname(os.path.abspath(npmca.__file__)) != os.path.join(SRC, "npmca"):
        raise SystemExit(f"perfbench: imported npmca from {npmca.__file__}, not from {SRC}")
    return npmca


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
    }


def run_one(args) -> dict:
    npmca = import_package()
    import workloads
    from spans import Tracer

    name = args.workload
    spec = workloads.WORKLOADS[name]
    tracer = Tracer() if args.trace else None
    clock = workloads.SpeedClock()
    outcome = workloads.Outcome()
    root = os.path.join(OUT, f"{name}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    try:
        videos, params, setup_s = workloads.set_up(npmca, name, args.seed, root, tracer, clock)
        if spec.scales is None:
            rounds, peak_rss_mb = workloads.time_training(
                npmca, videos, args.seed, args.seconds, tracer, outcome, clock)
        else:
            rounds, peak_rss_mb = workloads.time_inference(
                npmca, videos, params, spec, args.seconds, tracer, outcome, clock)
        metrics = workloads.end_to_end(rounds, peak_rss_mb, setup_s)
        if spec.scales is None:
            workloads.check_training(npmca, videos, args.seed, rounds, outcome)
        else:
            workloads.check_inference(npmca, videos, params, spec, rounds, outcome, tracer)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    info = machine()
    wall_ms = [v for r in rounds if not r.traced for v in r.wall_ms]
    workloads.log(f"{name} seed {args.seed}: {len(rounds)} rounds, {info}")
    workloads.log(f"  wall clock: {statistics.median(wall_ms):.2f} ms per frame-object (median of {len(wall_ms)}), "
                  f"speed probe {statistics.median(clock.probes) * 1e3:.2f} ms (reference "
                  f"{workloads.REFERENCE_PROBE_S * 1e3:g} ms)")
    if tracer is not None:
        for key, (value, unit) in metrics.items():
            workloads.log(f"  untraced {key:<24} {value:14.4f} {unit}")
        metrics = workloads.per_layer(tracer, rounds, 0 if spec.scales is None else len(videos), clock.probes)
        path = os.path.join(OUT, "traces", f"{name}-s{args.seed}.json")
        tracer.write(path, {"workload": name, "seed": args.seed, **info})
        workloads.log(f"  {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}; "
                      f"tracing overhead {metrics['trace.overhead_pct'][0]:.1f}% over untraced rounds")
        if tracer.absent:
            workloads.log(f"  absent layers: {', '.join(sorted(tracer.absent))}")
    for key, (value, unit) in metrics.items():
        workloads.log(f"  {key:<33} {value:14.4f} {unit}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(name, json.dumps(result), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("NPMCA_SEED", None)  # the CLI would let it override --seed
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
