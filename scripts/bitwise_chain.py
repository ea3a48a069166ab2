"""Run one small CLI chain on two commits and compare every output byte.

Exports both revisions with ``bench_pairs.export`` and, in each export,
runs the chain below as subprocesses with ``PYTHONPATH=<export>/src``,
``OPENBLAS_NUM_THREADS=1`` and no ``NPMCA_SEED``: 32x48 ``gen`` with both
presets and one 128x192 occlusion-heavy clip, a short pretrain, a finetune
with ``--disable-cm --max-skip 2``, a single-encoder pretrain, ``infer``
covering every switch with ``--dump-probs``, ``eval`` and ``verify --out``.
The CLI writes inference probabilities only as 8-bit rasters, so one more
step, ``stack-hashes``, runs the export's ``infer_sequence`` with the
pretrained checkpoint and prints the sha256 of each float64 (M+1, H, W)
stack: on every 32x48 clip with default options and with
``first_frame_only``, and eight times on the 128x192 clip at one scale,
with the pretrained model and with a fixed-seed (4, 6, 8)-plan one, whose
narrow convs round differently in halves and blocks at some sizes, each
with both objects and with the first object alone. With both, a frame's
two passes run at once on a pass pool where two CPUs are usable. With
one, the clip's 1536-pixel feature grid is large enough for
``infer_sequence`` to compute the pass's large steps as fixed halves
(``ops.row_halves``), with a helper thread where two CPUs are usable. Each
of the four runs once as the host allows and once with ``blas.workers``
held to 1, where the calling thread computes every pass and both
halves. Each step's standard output is kept as ``<step>.stdout``. Every
file of the two output trees is then compared byte for byte; in
``run.cfg`` and ``*.stdout`` files the export's path is replaced by a
placeholder first, since it differs by construction. Within each
revision, the one-thread hashes are also compared with the others, so one
run shows whether the pool or the helper changes a bit. Lists the files that differ
or exist on one side only and the frames whose two one-scale hashes
differ; exits 0 when there are none, 1 when there are some, 2 when a step
of the chain fails. Standard library only.

    python3 scripts/bitwise_chain.py --base HEAD~1 --head HEAD
"""

import argparse
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import export, git  # noqa: E402

PLACEHOLDER = b"<export>"

# the stack-hashes step: run with the chain's output directory as argv[1]
STACK_HASHES = """
import hashlib, os, sys
import numpy as np
from npmca import blas
from npmca.datagen import list_sequences, load_sequence
from npmca.model import ModelConfig, init_model_params, load_checkpoint
from npmca.propagation import InferenceOptions, infer_sequence

out = sys.argv[1]
params = init_model_params(0)
load_checkpoint(os.path.join(out, "pretrain", "model.ckpt"), params)
for data in ("data", "occl"):
    for name in list_sequences(os.path.join(out, data)):
        video = load_sequence(os.path.join(out, data), name)
        for label, first_only in (("default", False), ("first-frame-only", True)):
            options = InferenceOptions(first_frame_only=first_only)
            for t, stack in enumerate(infer_sequence(video, video.masks[0], params, options).stacks):
                print(data, name, label, t, hashlib.sha256(stack.tobytes()).hexdigest())
video = load_sequence(os.path.join(out, "large"), "seq00000")
first = video.masks[0]
one_object = np.where(first == first[first > 0].min(), first, 0)
workers = blas.workers
small = init_model_params(55, ModelConfig(stage_channels=(4, 6, 8)))
for plan, model in (("pretrained", params), ("small-plan", small)):
    for objects, first_mask in (("", first), ("-one-object", one_object)):
        for label in ("one-scale", "one-scale-one-thread"):
            blas.workers = workers if label == "one-scale" else (lambda tasks: 1)
            result = infer_sequence(video, first_mask, model, InferenceOptions(scales=(1.0,)))
            for t, stack in enumerate(result.stacks):
                print("large seq00000", plan + objects, label, t, hashlib.sha256(stack.tobytes()).hexdigest())
"""

# (step, argv); "{out}" is the chain's output directory inside the export.
# argv runs as ``python -m npmca.cli argv``, or as ``python argv`` when it
# starts with "-c".
CHAIN = [
    ("gen-default", ["gen", "--n", "3", "--out", "{out}/data", "--seed", "7", "--resolution", "32x48",
                     "--frames", "5"]),
    ("gen-occl", ["gen", "--n", "2", "--out", "{out}/occl", "--seed", "8", "--resolution", "32x48",
                  "--frames", "5", "--preset", "occlusion-heavy"]),
    ("gen-large", ["gen", "--n", "1", "--out", "{out}/large", "--seed", "9", "--resolution", "128x192",
                   "--frames", "3", "--preset", "occlusion-heavy"]),
    ("pretrain", ["train", "--data", "{out}/data", "--out", "{out}/pretrain", "--stage", "pretrain",
                  "--iterations", "12", "--batch", "2", "--seed", "1"]),
    ("finetune", ["train", "--data", "{out}/data", "--out", "{out}/finetune", "--stage", "finetune",
                  "--init-checkpoint", "{out}/pretrain/model.ckpt", "--iterations", "6", "--batch", "2",
                  "--seed", "2", "--disable-cm", "--max-skip", "2"]),
    ("pretrain-single", ["train", "--data", "{out}/data", "--out", "{out}/single", "--stage", "pretrain",
                         "--iterations", "6", "--batch", "2", "--seed", "3", "--single-encoder"]),
    ("infer-default", ["infer", "--data", "{out}/data", "--checkpoint", "{out}/finetune/model.ckpt",
                       "--out", "{out}/infer-default", "--dump-probs"]),
    ("infer-occl", ["infer", "--data", "{out}/occl", "--checkpoint", "{out}/finetune/model.ckpt",
                    "--out", "{out}/infer-occl", "--scales", "1.0", "--dump-probs"]),
    ("infer-first-only", ["infer", "--data", "{out}/occl", "--checkpoint", "{out}/finetune/model.ckpt",
                          "--out", "{out}/infer-first-only", "--first-frame-only", "--hard-guidance",
                          "--dump-probs"]),
    ("infer-soft-ref", ["infer", "--data", "{out}/data", "--checkpoint", "{out}/finetune/model.ckpt",
                        "--out", "{out}/infer-soft-ref", "--soft-reference", "--disable-cm",
                        "--scales", "0.5,1.0,1.5", "--sequence", "seq00001", "--dump-probs"]),
    ("infer-single", ["infer", "--data", "{out}/occl", "--checkpoint", "{out}/single/model.ckpt",
                      "--out", "{out}/infer-single", "--single-encoder", "--dump-probs"]),
    ("stack-hashes", ["-c", STACK_HASHES, "{out}"]),
    ("eval-default", ["eval", "--pred", "{out}/infer-default", "--data", "{out}/data", "--out", "{out}/eval-default"]),
    ("eval-occl", ["eval", "--pred", "{out}/infer-occl", "--data", "{out}/occl", "--out", "{out}/eval-occl"]),
    ("eval-first-only", ["eval", "--pred", "{out}/infer-first-only", "--data", "{out}/occl",
                         "--out", "{out}/eval-first-only"]),
    ("verify", ["verify", "--out", "{out}/verify"]),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="parent revision (default HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument("--scratch", default=None, help="directory for the two exports (default: system temp)")
    return parser.parse_args(argv)


def run_chain(checkout: str) -> str:
    """Run CHAIN in ``checkout``; returns the output directory."""
    out = os.path.join(checkout, "chain-out")
    os.makedirs(out)
    env = {k: v for k, v in os.environ.items() if k != "NPMCA_SEED"}
    env.update(PYTHONPATH=os.path.join(checkout, "src"), OPENBLAS_NUM_THREADS="1")
    for step, argv in CHAIN:
        if argv[0] == "-c":
            cmd = [sys.executable, "-c", argv[1], *(a.format(out=out) for a in argv[2:])]
        else:
            cmd = [sys.executable, "-m", "npmca.cli", *(a.format(out=out) for a in argv)]
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True)
        if proc.returncode:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-10:]
            raise SystemExit(f"bitwise_chain: step {step} exited {proc.returncode} in {checkout}\n" + "\n".join(tail))
        with open(os.path.join(out, f"{step}.stdout"), "wb") as fh:
            fh.write(proc.stdout)
    return out


def tree_files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, files in os.walk(root) for f in files}


def read_normalised(root: str, rel: str, prefix: str) -> bytes:
    """A file's bytes, with ``prefix`` replaced by PLACEHOLDER in the text
    files that record paths."""
    with open(os.path.join(root, rel), "rb") as fh:
        data = fh.read()
    if os.path.basename(rel) == "run.cfg" or rel.endswith(".stdout"):
        data = data.replace(os.fsencode(prefix), PLACEHOLDER)
    return data


def compare_trees(base_root: str, head_root: str, base_prefix: str, head_prefix: str) -> dict:
    """Relative paths that differ, or exist on one side only, and how many
    files both sides hold."""
    base, head = tree_files(base_root), tree_files(head_root)
    both = sorted(base & head)
    return {
        "compared": len(both),
        "differ": [rel for rel in both if read_normalised(base_root, rel, base_prefix)
                   != read_normalised(head_root, rel, head_prefix)],
        "only_base": sorted(base - head),
        "only_head": sorted(head - base),
    }


def thread_dependent_frames(out: str) -> tuple[int, list[str]]:
    """How many frames of the one-scale 128x192 runs ``stack-hashes.stdout``
    holds, counted once per model and object set, and those ("<model>
    <frame>", "<model>-one-object <frame>" for the first object alone) whose stack
    hash differs between the run as the host allows and the one with one
    thread, or is missing from one of them."""
    runs = {"one-scale": {}, "one-scale-one-thread": {}}
    with open(os.path.join(out, "stack-hashes.stdout"), encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == "large" and fields[3] in runs:
                runs[fields[3]][f"{fields[2]} {fields[4]}"] = fields[5]
    frames = sorted(runs["one-scale"].keys() | runs["one-scale-one-thread"].keys(),
                    key=lambda key: (key.split()[0], int(key.split()[1])))
    return len(frames), [key for key in frames if runs["one-scale"].get(key) != runs["one-scale-one-thread"].get(key)]


def report(result: dict, stream) -> int:
    for key, label in (("differ", "differs"), ("only_base", "only in base"), ("only_head", "only in head")):
        for rel in result[key]:
            print(f"{label}: {rel}", file=stream)
    bad = len(result["differ"]) + len(result["only_base"]) + len(result["only_head"])
    print(f"{result['compared']} files on both sides, {bad} differing or missing", file=stream)
    threads = result.get("thread_dependent")
    if threads is not None:
        for side, (count, frames) in threads.items():
            for key in frames:
                print(f"{side}: one-scale stack {key} differs with one thread", file=stream)
            # no frame at all means the comparison did not run
            bad += len(frames) if count else 1
        counts = ", ".join(f"{side} {count}" for side, (count, _) in threads.items())
        differing = sum(len(frames) for _, frames in threads.values())
        print(f"one-scale stacks with one thread: frames compared {counts}, {differing} differing", file=stream)
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    revs = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    checkouts = {}
    try:
        outs = {}
        for side, rev in revs.items():
            checkouts[side] = export(rev, args.scratch)
            print(f"{side} {rev[:12]}: running the chain", file=sys.stderr, flush=True)
            outs[side] = run_chain(checkouts[side])
        result = compare_trees(outs["base"], outs["head"], checkouts["base"], checkouts["head"])
        result["thread_dependent"] = {side: thread_dependent_frames(out) for side, out in outs.items()}
    finally:
        for path in checkouts.values():
            shutil.rmtree(path, ignore_errors=True)
    return report(result, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
