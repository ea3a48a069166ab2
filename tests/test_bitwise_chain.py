"""``scripts/bitwise_chain.py``'s tree comparison on small trees; no chain runs."""

import importlib.util
import io
import os

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


def write_stack_hashes(out, one_scale, one_thread):
    """A ``stack-hashes.stdout`` with one small-clip line and the given
    one-scale hashes of each run, frame by frame."""
    lines = ["data seq00000 default 0 aa"]
    lines += [f"large seq00000 one-scale {t} {h}" for t, h in enumerate(one_scale)]
    lines += [f"large seq00000 one-scale-one-thread {t} {h}" for t, h in enumerate(one_thread)]
    out.mkdir(parents=True)
    (out / "stack-hashes.stdout").write_text("\n".join(lines) + "\n")
    return str(out)


def test_one_scale_hashes_are_compared_with_one_thread(tmp_path):
    same = write_stack_hashes(tmp_path / "same", ["a", "b", "c"], ["a", "b", "c"])
    assert bitwise_chain.thread_dependent_frames(same) == (3, [])
    other = write_stack_hashes(tmp_path / "other", ["a", "b", "c"], ["a", "x", "c"])
    assert bitwise_chain.thread_dependent_frames(other) == (3, ["1"])
    short = write_stack_hashes(tmp_path / "short", ["a", "b", "c"], ["a", "b"])
    assert bitwise_chain.thread_dependent_frames(short) == (3, ["2"])

    def reported(threads):
        result = {"compared": 4, "differ": [], "only_base": [], "only_head": [], "thread_dependent": threads}
        stream = io.StringIO()
        return bitwise_chain.report(result, stream), stream.getvalue()

    code, text = reported({"base": (3, []), "head": (3, [])})
    assert code == 0
    assert text.endswith("one-scale stacks with one thread: frames compared base 3, head 3, 0 differing\n")
    code, text = reported({"base": (3, []), "head": (3, ["1"])})
    assert code == 1 and "head: one-scale frame 1 differs with one thread" in text
    # a side that printed no one-scale hash compared nothing
    assert reported({"base": (3, []), "head": (0, [])})[0] == 1
