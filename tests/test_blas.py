"""One BLAS thread on import: output bytes that do not depend on the BLAS
environment variables, the serial fallback where no setter exists, and
the worker-count rule that follows from it."""

import hashlib
import os
import subprocess
import sys

import pytest
from numpy.random import _generator

from npmca import blas, cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# 36x48 is the smallest clip at which two BLAS threads changed both the
# checkpoint and the stacks before the pin; 32x48 changed only the stacks
RESOLUTION = "36x48"

STACK_HASH = """
import hashlib, os, sys
from npmca.datagen import list_sequences, load_sequence
from npmca.model import init_model_params, load_checkpoint
from npmca.propagation import infer_sequence

out = sys.argv[1]
params = init_model_params(0)
load_checkpoint(os.path.join(out, "train", "model.ckpt"), params)
for name in list_sequences(os.path.join(out, "data")):
    video = load_sequence(os.path.join(out, "data"), name)
    for stack in infer_sequence(video, video.masks[0], params).stacks:
        print(hashlib.sha256(stack.tobytes()).hexdigest())
"""


def run_python(args, threads):
    """``python args`` in a fresh process, with ``OPENBLAS_NUM_THREADS``
    set to ``threads`` or unset when it is None."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "NPMCA_SEED")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Checkpoint bytes and stack hashes of one gen + train + infer chain
    per BLAS setting."""
    results = {}
    for threads in (None, "1", "2"):
        out = str(tmp_path_factory.mktemp(f"blas-{threads}"))
        data = os.path.join(out, "data")
        run_python(["-m", "npmca.cli", "gen", "--n", "2", "--out", data, "--seed", "3",
                    "--resolution", RESOLUTION, "--frames", "4"], threads)
        run_python(["-m", "npmca.cli", "train", "--data", data, "--out", os.path.join(out, "train"),
                    "--stage", "pretrain", "--iterations", "2", "--batch", "2", "--seed", "1"], threads)
        with open(os.path.join(out, "train", "model.ckpt"), "rb") as fh:
            ckpt = hashlib.sha256(fh.read()).hexdigest()
        results[threads] = (ckpt, run_python(["-c", STACK_HASH, out], threads))
    return results


class TestBytesIgnoreBlasEnvironment:
    def test_checkpoint_bytes(self, runs):
        assert runs[None][0] == runs["1"][0] == runs["2"][0]

    def test_stack_hashes(self, runs):
        assert len(runs[None][1].split()) == 8  # 2 clips of 4 frames
        assert runs[None][1] == runs["1"][1] == runs["2"][1]


@pytest.mark.parametrize("libraries", ["none", "no-setter"])
def test_without_a_setter_samples_run_one_at_a_time(monkeypatch, tmp_path, capsys, libraries):
    found = [] if libraries == "none" else [_generator.__file__]  # a loaded library with no setter
    monkeypatch.setattr(blas, "_openblas_libraries", lambda: found)
    pinned = blas.pin_one_thread()
    assert pinned is False
    monkeypatch.setattr(blas, "PINNED", pinned)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert blas.workers(4) == 1

    data = str(tmp_path / "data")
    assert cli.main(["gen", "--n", "1", "--out", data, "--resolution", "32x48", "--frames", "3"]) == 0
    argv = ["train", "--data", data, "--out", str(tmp_path / "train"), "--stage", "pretrain",
            "--iterations", "1", "--batch", "4"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    err = capsys.readouterr().err
    assert "on 1 sample thread(s); BLAS could not be pinned to one thread" in err, err


def test_core_name(monkeypatch):
    # numpy's OpenBLAS names its kernel set; without the library there is no name
    if blas.PINNED:
        assert isinstance(blas.CORE, str) and blas.CORE
        assert blas.core_name() == blas.CORE
    monkeypatch.setattr(blas, "_openblas_libraries", lambda: [])
    assert blas.core_name() is None
    monkeypatch.setattr(blas, "_openblas_libraries", lambda: [_generator.__file__])
    assert blas.core_name() is None



@pytest.mark.parametrize(
    "pinned, tasks, cpus, expected",
    [(True, 3, 2, 2), (True, 4, 8, 4), (True, 1, 4, 1), (True, 3, 1, 1), (False, 3, 4, 1)],
)
def test_workers_for_an_objects_scale_passes(monkeypatch, pinned, tasks, cpus, expected):
    """The rule training applies to a batch's samples, applied to S scale passes."""
    monkeypatch.setattr(blas, "PINNED", pinned)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert blas.workers(tasks) == expected
