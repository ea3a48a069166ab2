"""``scripts/bitwise_chain.py``'s tree comparison on small trees, and its
``stack-hashes`` step on small clips; no other step of the chain runs."""

import importlib.util
import io
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bitwise_chain.py")
_spec = importlib.util.spec_from_file_location("bitwise_chain", _PATH)
bitwise_chain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitwise_chain)


def make_tree(export, files):
    """Write ``files`` (relative path -> bytes, with "{export}" replaced by
    the export's path) under ``export/chain-out``; returns that directory."""
    out = export / "chain-out"
    for rel, data in files.items():
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data.replace(b"{export}", os.fsencode(str(export))))
    return out


FILES = {
    "data/seq00000/frames/00000.ppm": b"P6\n2 1\n255\n\x00\x01\x02\x03\x04\x05",
    "finetune/model.ckpt": bytes(range(40)),
    "finetune/run.cfg": b"command=train\ndata={export}/chain-out/data\nseed=2\n",
    "infer-default.stdout": b"segmented 3 sequences into {export}/chain-out/infer-default\n",
}


def compare(tmp_path, head_files):
    base, head = tmp_path / "base", tmp_path / "head"
    result = bitwise_chain.compare_trees(str(make_tree(base, FILES)), str(make_tree(head, head_files)),
                                         str(base), str(head))
    stream = io.StringIO()
    return result, bitwise_chain.report(result, stream), stream.getvalue()


def test_identical_trees_pass(tmp_path):
    result, code, text = compare(tmp_path, FILES)
    assert code == 0
    assert result == {"compared": 4, "differ": [], "only_base": [], "only_head": []}
    assert text == "4 files on both sides, 0 differing or missing\n"


def test_one_changed_byte_is_listed(tmp_path):
    changed = dict(FILES)
    ckpt = bytearray(FILES["finetune/model.ckpt"])
    ckpt[17] ^= 1
    changed["finetune/model.ckpt"] = bytes(ckpt)
    result, code, text = compare(tmp_path, changed)
    assert code == 1
    assert result["differ"] == ["finetune/model.ckpt"]
    assert "differs: finetune/model.ckpt" in text


@pytest.mark.parametrize("side", ["base", "head"])
def test_a_file_on_one_side_only_is_listed(tmp_path, side):
    extra = "infer-default/seq00000/00001.pgm"
    base, head = tmp_path / "base", tmp_path / "head"
    fuller = {**FILES, extra: b"P5\n1 1\n255\n\x01"}
    trees = {"base": fuller if side == "base" else FILES, "head": fuller if side == "head" else FILES}
    result = bitwise_chain.compare_trees(str(make_tree(base, trees["base"])), str(make_tree(head, trees["head"])),
                                         str(base), str(head))
    stream = io.StringIO()
    assert bitwise_chain.report(result, stream) == 1
    assert result[f"only_{side}"] == [extra] and result["differ"] == []
    assert f"only in {side}: {extra}" in stream.getvalue()


def test_paths_of_the_export_are_normalised_but_nothing_else(tmp_path):
    # the export paths differ between base and head, so the "{export}"
    # files above already differ on disk yet compare equal
    assert compare(tmp_path / "same", FILES)[1] == 0
    reseeded = {**FILES, "finetune/run.cfg": FILES["finetune/run.cfg"].replace(b"seed=2", b"seed=3")}
    result, code, _ = compare(tmp_path / "reseeded", reseeded)
    assert code == 1 and result["differ"] == ["finetune/run.cfg"]
    # a path in a binary output is not normalised
    in_ckpt = {**FILES, "finetune/model.ckpt": b"{export}"}
    both = {**FILES, "finetune/model.ckpt": b"{export}"}
    base, head = tmp_path / "bin" / "base", tmp_path / "bin" / "head"
    result = bitwise_chain.compare_trees(str(make_tree(base, in_ckpt)), str(make_tree(head, both)), str(base), str(head))
    assert result["differ"] == ["finetune/model.ckpt"]


def write_stack_hashes(out, one_scale, one_thread, small_plan=("s", "t")):
    """A ``stack-hashes.stdout`` with one small-clip line, the given
    one-scale hashes of each run of the pretrained model, frame by frame,
    and the small-plan model's, the same in both runs."""
    lines = ["data seq00000 default 0 aa"]
    lines += [f"large seq00000 pretrained one-scale {t} {h}" for t, h in enumerate(one_scale)]
    lines += [f"large seq00000 pretrained one-scale-one-thread {t} {h}" for t, h in enumerate(one_thread)]
    for label in ("one-scale", "one-scale-one-thread"):
        lines += [f"large seq00000 small-plan {label} {t} {h}" for t, h in enumerate(small_plan)]
    out.mkdir(parents=True)
    (out / "stack-hashes.stdout").write_text("\n".join(lines) + "\n")
    return str(out)


def test_one_scale_hashes_are_compared_with_one_thread(tmp_path):
    same = write_stack_hashes(tmp_path / "same", ["a", "b", "c"], ["a", "b", "c"])
    assert bitwise_chain.thread_dependent_frames(same) == (5, [])
    other = write_stack_hashes(tmp_path / "other", ["a", "b", "c"], ["a", "x", "c"])
    assert bitwise_chain.thread_dependent_frames(other) == (5, ["pretrained 1"])
    short = write_stack_hashes(tmp_path / "short", ["a", "b", "c"], ["a", "b"])
    assert bitwise_chain.thread_dependent_frames(short) == (5, ["pretrained 2"])
    # the same hash under another model is not a match
    lines = (tmp_path / "same" / "stack-hashes.stdout").read_text().replace(
        "small-plan one-scale-one-thread 1 t", "small-plan one-scale-one-thread 1 x")
    (tmp_path / "same" / "stack-hashes.stdout").write_text(lines)
    assert bitwise_chain.thread_dependent_frames(same) == (5, ["small-plan 1"])

    def reported(threads):
        result = {"compared": 4, "differ": [], "only_base": [], "only_head": [], "thread_dependent": threads}
        stream = io.StringIO()
        return bitwise_chain.report(result, stream), stream.getvalue()

    code, text = reported({"base": (5, []), "head": (5, [])})
    assert code == 0
    assert text.endswith("one-scale stacks with one thread: frames compared base 5, head 5, 0 differing\n")
    code, text = reported({"base": (5, []), "head": (5, ["small-plan 1"])})
    assert code == 1 and "head: one-scale stack small-plan 1 differs with one thread" in text
    # a side that printed no one-scale hash compared nothing
    assert reported({"base": (5, []), "head": (0, [])})[0] == 1


def test_one_object_hashes_are_compared_on_their_own(tmp_path):
    one_object = write_stack_hashes(tmp_path / "one", ["a", "b"], ["a", "b"])
    path = os.path.join(one_object, "stack-hashes.stdout")
    with open(path, "a") as fh:
        for label, hashes in (("one-scale", "cd"), ("one-scale-one-thread", "cx")):
            fh.writelines(f"large seq00000 pretrained-one-object {label} {t} {h}\n" for t, h in enumerate(hashes))
    assert bitwise_chain.thread_dependent_frames(one_object) == (6, ["pretrained-one-object 1"])


def test_the_stack_hashes_step_runs_both_object_sets_with_and_without_threads(tmp_path):
    from npmca import cli
    from npmca.model import init_model_params, save_checkpoint

    out = tmp_path / "chain-out"
    for data, size, preset in (("data", "32x48", "default"), ("occl", "32x48", "occlusion-heavy"),
                               ("large", "128x192", "occlusion-heavy")):
        argv = ["gen", "--n", "1", "--out", str(out / data), "--seed", "9", "--resolution", size, "--frames", "3",
                "--preset", preset]
        assert cli.main(argv) == 0
    (out / "pretrain").mkdir()
    save_checkpoint(out / "pretrain" / "model.ckpt", init_model_params(0))
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(_PATH), "..", "src")}
    proc = subprocess.run([sys.executable, "-c", bitwise_chain.STACK_HASHES, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (out / "stack-hashes.stdout").write_text(proc.stdout)
    large = [line.split()[2:5] for line in proc.stdout.splitlines() if line.startswith("large ")]
    models = ("pretrained", "pretrained-one-object", "small-plan", "small-plan-one-object")
    assert large == [[model, label, str(t)] for model in models for label in ("one-scale", "one-scale-one-thread")
                     for t in range(3)]
    assert bitwise_chain.thread_dependent_frames(str(out)) == (12, [])
