"""Alternating benchmark pairs of two commits, written to one JSON file.

Exports both revisions with ``git archive`` into fresh temporary
directories, runs ``perfbench/run.py`` (untraced) in each for the given
number of pairs per workload, and writes every run's last-line JSON, a
per-metric summary and the machine's description to ``--out``. Pair k of a
workload uses seed ``1 + k`` on both sides; even pairs run the
base first, odd pairs the head first. Run length is ``run_seconds`` of the
head's ``BENCHMARK.json``. Standard library only.

    python3 scripts/bench_pairs.py infer-128x192-occl=10 train-64x96=5 \\
        --base HEAD~1 --head HEAD --out BENCH.json
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_plan(text: str) -> tuple[str, int]:
    name, sep, count = text.partition("=")
    if not sep or not name or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS such as train-64x96=5, got {text!r}")
    return name, int(count)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan", nargs="+", type=parse_plan, metavar="WORKLOAD=PAIRS")
    parser.add_argument("--base", default="HEAD~1", help="parent revision (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--scratch", default=None, help="directory for the two exports (default: system temp)")
    return parser.parse_args(argv)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, parent_dir: str) -> str:
    """Write the committed files of ``rev`` into a new directory."""
    dest = tempfile.mkdtemp(prefix="bench-", dir=parent_dir)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bench_pairs: git archive {rev} failed")
    return dest


def machine_info() -> dict:
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu_model"] = platform.processor()
    probe = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True)
    info["numpy"] = probe.stdout.strip() or "unavailable"
    return info


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    run = {"returncode": proc.returncode, "wall_s": round(time.monotonic() - start, 1)}
    lines = proc.stdout.strip().splitlines()
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["result"] = None
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-20:]
    return run


def metric_value(run: dict, name: str):
    """A metric of one run's result, or None when the run printed none."""
    return ((run["result"] or {}).get("metrics", {}).get(name) or {}).get("value")


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs, end_to_end) -> dict:
    """Per workload and metric: each side's quartiles, the head's wins over
    the base in pairs (ties count for neither), the head median's change
    relative to the base median, and whether that change is worse than the
    metric's ``bound`` (null when the base median is 0)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        failed = {side: sum(1 for p in pairs.values() if side in p and (p[side]["result"] or {}).get("failed", 1))
                  for side in ("base", "head")}
        metrics = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            sides = {"base": [], "head": []}
            wins = 0
            for p in pairs.values():
                vals = {s: metric_value(p[s], name) for s in ("base", "head") if s in p}
                if None in vals.values() or len(vals) < 2:
                    continue
                for s in sides:
                    sides[s].append(vals[s])
                wins += vals["head"] < vals["base"] if lower else vals["head"] > vals["base"]
            if sides["base"]:
                base, head = quartiles(sides["base"]), quartiles(sides["head"])
                change = head["median"] / base["median"] - 1.0 if base["median"] else None
                metrics[name] = {"base": base, "head": head, "head_wins": wins, "pairs": len(sides["base"]),
                                 "better": metric["better"], "head_change": change,
                                 "worse_than_bound": None if change is None
                                 else (change if lower else -change) > metric["bound"]}
        summary[workload] = {"runs_with_failed_checks": failed, "metrics": metrics}
    return summary


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    revs = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    checkouts = {}
    try:
        for side, rev in revs.items():
            checkouts[side] = export(rev, args.scratch)
        with open(os.path.join(checkouts["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        report = {"base": revs["base"], "head": revs["head"], "run_seconds": seconds,
                  "machine": machine_info(), "runs": [], "summary": {}}
        for workload, count in args.plan:
            for k in range(count):
                seed = 1 + k
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                for side in order:
                    run = run_bench(checkouts[side], workload, seed, seconds)
                    report["runs"].append({"workload": workload, "pair": k, "seed": seed, "side": side,
                                           "first": order[0], **run})
                    print(f"{workload} pair {k} seed {seed} {side}: exit {run['returncode']}, "
                          f"frame_object_ms_p50 {metric_value(run, 'frame_object_ms_p50')}", file=sys.stderr, flush=True)
                report["summary"] = summarize(report["runs"], bench["end_to_end"])
                with open(args.out, "w", encoding="utf-8") as fh:  # rewritten after every pair
                    json.dump(report, fh, indent=1)
    finally:
        for path in checkouts.values():
            shutil.rmtree(path, ignore_errors=True)
    for workload, entry in report["summary"].items():
        for name, m in entry["metrics"].items():
            if m["worse_than_bound"]:
                print(f"{workload} {name}: head median {m['head']['median']:.4g} against base "
                      f"{m['base']['median']:.4g} is worse than the bound", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
