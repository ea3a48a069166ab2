"""End-to-end exercises of the command-line interface.

Commands run in-process through ``cli.main`` so failures surface as
ordinary assertions and the slow subprocess spin-up is avoided.
"""

import json
import os
import re
import shutil
import struct

import numpy as np
import pytest

from npmca import blas, cli, ops
from npmca.datagen import generate_sequence, load_sequence, random_scene, write_sequence
from npmca.metrics import EvalReport, evaluate_sequence
from npmca.model import CHECKPOINT_MAGIC, ModelConfig, init_model_params, load_checkpoint, save_checkpoint
from npmca.netpbm import read_pgm, write_pgm
from npmca.tensor import Tensor
from npmca.training import TrainingDiverged


def run_cli(argv):
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


def tree_bytes(root):
    """All file contents under root keyed by relative path, run.cfg excluded.

    run.cfg embeds absolute output paths, so two otherwise identical runs
    into different directories would differ on that one file.
    """
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in sorted(files):
            if fname == "run.cfg":
                continue
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("clidata") / "seqs")
    code = run_cli(["gen", "--n", 4, "--out", root, "--seed", 11, "--resolution", "32x48", "--frames", 6])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    out = str(tmp_path_factory.mktemp("clitrain"))
    code = run_cli(
        ["train", "--data", dataset, "--out", out, "--stage", "pretrain", "--iterations", 2, "--batch", 2, "--seed", 3]
    )
    assert code == 0
    return out


class TestGen:
    def test_rerun_is_bitwise_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run_cli(["gen", "--n", 2, "--out", out, "--seed", 5, "--resolution", "32x48", "--frames", 4]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_config_reproduces_tree(self, dataset, tmp_path):
        again = str(tmp_path / "again")
        assert run_cli(["gen", "--config", os.path.join(dataset, "run.cfg"), "--out", again]) == 0
        assert tree_bytes(again) == tree_bytes(dataset)

    def test_zero_count_is_usage_error(self, tmp_path):
        assert run_cli(["gen", "--n", 0, "--out", str(tmp_path / "x")]) == 2

    def test_missing_required_flag_is_usage_error(self):
        assert run_cli(["gen", "--n", 2]) == 2

    def test_bad_resolution_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["gen", "--n", 1, "--out", str(tmp_path / "x"), "--resolution", "abc"]) == 2
        assert "HxW" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution", ["30x50", "0x96"])
    def test_resolution_outside_the_rule_is_usage_error(self, tmp_path, capsys, resolution):
        rule = {"30x50": "must be multiples of 4", "0x96": "must be at least 12"}[resolution]
        assert run_cli(["gen", "--n", 1, "--out", str(tmp_path / "x"), "--resolution", resolution]) == 2
        err = capsys.readouterr().err
        assert rule in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("preset", ["default", "occlusion-heavy"])
    @pytest.mark.parametrize("frames", [0, 1])
    def test_fewer_than_two_frames_is_usage_error(self, tmp_path, capsys, preset, frames):
        out = tmp_path / "x"
        assert run_cli(["gen", "--n", 1, "--out", out, "--preset", preset, "--frames", frames]) == 2
        err = capsys.readouterr().err
        assert f"a sequence needs at least 2 frames, got {frames}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        plain = str(tmp_path / "plain")
        assert run_cli(["gen", "--n", 1, "--out", plain, "--seed", 99, "--resolution", "32x48", "--frames", 4]) == 0
        monkeypatch.setenv("NPMCA_SEED", "99")
        overridden = str(tmp_path / "env")
        assert run_cli(["gen", "--n", 1, "--out", overridden, "--seed", 7, "--resolution", "32x48", "--frames", 4]) == 0
        assert tree_bytes(overridden) == tree_bytes(plain)
        cfg = open(os.path.join(overridden, "run.cfg"), encoding="utf-8").read()
        assert "seed=99" in cfg.splitlines()

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NPMCA_SEED", "abc")
        assert run_cli(["gen", "--n", 1, "--out", str(tmp_path / "x"), "--resolution", "32x48"]) == 2
        err = capsys.readouterr().err
        assert "NPMCA_SEED" in err and "'abc'" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "x")

    def test_negative_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NPMCA_SEED", "-3")
        assert run_cli(["gen", "--n", 1, "--out", str(tmp_path / "x"), "--resolution", "32x48"]) == 2
        err = capsys.readouterr().err
        assert "NPMCA_SEED must be a non-negative integer, got '-3'" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_negative_seed_is_usage_error_naming_flag_and_value(self, dataset, tmp_path, capsys, command):
        out = tmp_path / "x"
        argv = {"gen": ["gen", "--n", 1], "train": ["train", "--data", dataset, "--stage", "pretrain"]}[command]
        assert run_cli(argv + ["--out", out, "--seed", -3]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got '-3'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_run_cfg_records_resolved_arguments(self, dataset):
        lines = open(os.path.join(dataset, "run.cfg"), encoding="utf-8").read().splitlines()
        assert "command=gen" in lines
        assert "n=4" in lines
        assert "resolution=32x48" in lines
        assert "preset=default" in lines


class TestTrain:
    def test_smoke_run_writes_loadable_checkpoint(self, trained):
        params = init_model_params(0, ModelConfig())
        load_checkpoint(os.path.join(trained, "model.ckpt"), params)
        rows = open(os.path.join(trained, "loss.csv"), encoding="utf-8").read().splitlines()
        assert rows[0] == "iter,loss"
        assert len(rows) == 3
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows[1:])

    def test_config_not_utf8_is_usage_error_naming_the_file(self, dataset, tmp_path, capsys):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "x"
        cfg.write_bytes(b"\xff\xfecommand=train\n")
        assert run_cli(["train", "--config", cfg, "--data", dataset, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"npmca: config {cfg}: not UTF-8") and err.count("\n") == 1, err
        assert not out.exists()

    def test_run_cfg_records_resolved_lr(self, trained):
        lines = open(os.path.join(trained, "run.cfg"), encoding="utf-8").read().splitlines()
        assert "stage=pretrain" in lines
        assert "lr=0.0001" in lines

    @pytest.mark.parametrize("line", ["iterations=0", "batch=0"])
    def test_config_values_are_checked_like_flags(self, trained, tmp_path, capsys, line):
        key = line.split("=")[0]
        kept = [r for r in open(os.path.join(trained, "run.cfg"), encoding="utf-8") if not r.startswith(key + "=")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(kept) + line + "\n", encoding="utf-8")
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert "positive count" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "case", ["misspelt key", "stage=pretrian", "iterations=x", "line without =", "disable_cm=yes", "gen run.cfg",
                 "init=x", "max=3"]
    )
    def test_bad_config_is_usage_error_before_any_output(self, dataset, tmp_path, capsys, case):
        train = ["command=train", "stage=pretrain", "iterations=1", "batch=1"]
        lines, extra, named = {
            "misspelt key": (train + ["iteratons=5"], [], "--iteratons=5"),
            "stage=pretrian": (train + ["stage=pretrian"], [], "'pretrian'"),
            "iterations=x": (train + ["iterations=x"], [], "'x'"),
            "line without =": (train + ["batch 1"], [], "line 5"),
            "disable_cm=yes": (train + ["disable_cm=yes"], [], "'yes'"),
            "gen run.cfg": (open(os.path.join(dataset, "run.cfg"), encoding="utf-8").read().splitlines(),
                            ["--stage", "pretrain", "--iterations", 1, "--batch", 1], "'gen'"),
            # no prefix matching: these are not --init-checkpoint and --max-skip
            "init=x": (train + ["init=x"], [], "--init=x"),
            "max=3": (train + ["max=3"], [], "--max=3"),
        }[case]
        cfg, out = tmp_path / "run.cfg", tmp_path / "x"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli(["train", "--config", cfg, "--data", dataset, "--out", out] + extra) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, err
        assert not out.exists()

    def test_abbreviated_option_is_usage_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli(["train", "--data", dataset, "--out", out, "--stage", "pretrain", "--iter", 5]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --iter 5" in err and "Traceback" not in err
        assert not out.exists()

    def test_finetune_without_init_is_usage_error(self, dataset, tmp_path, capsys):
        code = run_cli(["train", "--data", dataset, "--out", str(tmp_path / "x"), "--stage", "finetune", "--iterations", 1])
        assert code == 2
        assert "--init-checkpoint" in capsys.readouterr().err

    def test_config_reproduces_loss_log(self, trained, tmp_path):
        again = str(tmp_path / "again")
        assert run_cli(["train", "--config", os.path.join(trained, "run.cfg"), "--out", again]) == 0
        assert open(os.path.join(again, "loss.csv")).read() == open(os.path.join(trained, "loss.csv")).read()
        with open(os.path.join(again, "model.ckpt"), "rb") as fh_a, open(os.path.join(trained, "model.ckpt"), "rb") as fh_b:
            assert fh_a.read() == fh_b.read()

    def test_loss_drops_by_iteration_200(self, dataset, tmp_path):
        """Median over three seeds of the final loss sits below the median
        first loss. Run at 32x48 to keep the loop short."""
        first, last = [], []
        for seed in (1, 2, 3):
            out = str(tmp_path / f"run{seed}")
            code = run_cli(
                ["train", "--data", dataset, "--out", out, "--stage", "pretrain",
                 "--iterations", 200, "--batch", 2, "--seed", seed]
            )
            assert code == 0
            rows = open(os.path.join(out, "loss.csv"), encoding="utf-8").read().splitlines()[1:]
            losses = [float(r.split(",")[1]) for r in rows]
            first.append(losses[0])
            last.append(losses[-1])
        assert np.median(last) < np.median(first)

    def test_reports_rate_and_sample_threads_on_stderr(self, trained, tmp_path, capsys):
        again = str(tmp_path / "again")
        assert run_cli(["train", "--config", os.path.join(trained, "run.cfg"), "--out", again]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"train: \d+\.\d samples/s on [1-9]\d* sample thread\(s\)\n", captured.err)
        assert "samples/s" not in captured.out

    @pytest.mark.parametrize("value", ["-0.0001", "0", "nan", "inf", "config"])
    def test_lr_not_finite_and_positive_is_usage_error_naming_flag_and_value(self, dataset, tmp_path, capsys, value):
        out = tmp_path / "x"
        argv = ["--data", dataset, "--out", out, "--stage", "pretrain", "--iterations", 1]
        if value == "config":
            value, cfg = "-1e-4", tmp_path / "run.cfg"
            cfg.write_text(f"command=train\nlr={value}\n", encoding="utf-8")
            argv = ["train", "--config", cfg] + argv
        else:
            argv = ["train", f"--lr={value}"] + argv
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"argument --lr: expected a finite number > 0, got '{value}'" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_empty_mask_is_data_error_naming_the_frame(self, dataset, trained, tmp_path, capsys, stage):
        data = str(tmp_path / "blank")
        shutil.copytree(os.path.join(dataset, "seq00000"), os.path.join(data, "seq00000"))
        masks = os.path.join(data, "seq00000", "masks")
        for name in os.listdir(masks):
            path = os.path.join(masks, name)
            write_pgm(path, np.zeros_like(read_pgm(path)))
        argv = ["train", "--data", data, "--out", str(tmp_path / "x"), "--stage", stage, "--iterations", 1]
        if stage == "finetune":
            argv += ["--init-checkpoint", os.path.join(trained, "model.ckpt")]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert re.search(r"sequence seq00000 frame \d+ has an empty mask", err), err
        assert "Traceback" not in err

    def test_short_clip_fails_before_the_first_iteration(self, tmp_path, capsys):
        # seed 2 first draws the 2-frame clip at iteration 8, after 7 logged rows
        data, out, ckpt = str(tmp_path / "data"), tmp_path / "run", str(tmp_path / "init.ckpt")
        assert run_cli(["gen", "--n", 3, "--out", data, "--seed", 4, "--frames", 6, "--resolution", "32x48"]) == 0
        write_sequence(data, generate_sequence(random_scene(9, "default", (32, 48), 2), 1, "seq00003"))
        save_checkpoint(ckpt, init_model_params(0))
        argv = ["train", "--data", data, "--out", out, "--stage", "finetune", "--init-checkpoint", ckpt,
                "--iterations", 60, "--batch", 1, "--seed", 2]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "sequence seq00003 has 2 frames" in err, err
        assert not (out / "loss.csv").exists()

    def test_size_off_the_grid_fails_before_the_first_iteration(self, tmp_path, capsys):
        # gen refuses 30x50, so the odd clip is written directly; seed 3
        # first draws it at iteration 8, after 7 logged rows
        data, out = str(tmp_path / "data"), tmp_path / "run"
        for i, size in enumerate([(32, 48)] * 3 + [(30, 50)]):
            write_sequence(data, generate_sequence(random_scene(i, "default", size, 4), i, f"seq{i:05d}"))
        argv = ["train", "--data", data, "--out", out, "--stage", "pretrain",
                "--iterations", 40, "--batch", 1, "--seed", 3]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "seq00003" in err and "30x50" in err, err
        log = out / "loss.csv"
        assert not log.exists() or log.read_text().splitlines() == ["iter,loss"]
        assert not (out / "model.ckpt").exists()

    def test_diverged_loss_exits_three(self, dataset, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise TrainingDiverged(5, float("nan"))

        monkeypatch.setattr(cli, "train_loop", explode)
        code = run_cli(["train", "--data", dataset, "--out", str(tmp_path / "x"), "--stage", "pretrain", "--iterations", 1])
        assert code == 3
        assert "iteration 5" in capsys.readouterr().err


class TestInfer:
    def test_frame_count_and_first_frame_passthrough(self, dataset, trained, tmp_path):
        out = str(tmp_path / "preds")
        code = run_cli(
            ["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
             "--out", out, "--sequence", "seq00000", "--scales", "1.0"]
        )
        assert code == 0
        video = load_sequence(dataset, "seq00000")
        written = sorted(os.listdir(os.path.join(out, "seq00000")))
        assert written == [f"{t:05d}.pgm" for t in range(len(video.frames))] + ["stacks.sha256"]
        first = read_pgm(os.path.join(out, "seq00000", "00000.pgm"))
        np.testing.assert_array_equal(first.astype(np.int64), video.masks[0])

    def test_rerun_is_bitwise_identical(self, dataset, trained, tmp_path):
        ckpt = os.path.join(trained, "model.ckpt")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            code = run_cli(["infer", "--data", dataset, "--checkpoint", ckpt, "--out", out,
                            "--sequence", "seq00001", "--scales", "1.0"])
            assert code == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_default_and_single_scale_both_run(self, dataset, trained, tmp_path):
        ckpt = os.path.join(trained, "model.ckpt")
        for tag, extra in (("multi", []), ("single", ["--scales", "1.0"])):
            out = str(tmp_path / tag)
            code = run_cli(["infer", "--data", dataset, "--checkpoint", ckpt, "--out", out,
                            "--sequence", "seq00002"] + extra)
            assert code == 0
            assert len(os.listdir(os.path.join(out, "seq00002"))) == 7  # 6 label rasters and stacks.sha256

    def test_bad_scales_is_usage_error(self, dataset, trained, tmp_path, capsys):
        code = run_cli(["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
                        "--out", str(tmp_path / "x"), "--scales", "abc"])
        assert code == 2
        assert "comma-separated floats" in capsys.readouterr().err
        for scales in ("inf", "nan", "1.0,inf"):
            code = run_cli(["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
                            "--out", str(tmp_path / "x"), "--scales", scales])
            assert code == 2, scales
            err = capsys.readouterr().err
            assert "scales must be finite and > 0" in err and "Traceback" not in err, scales
        # a scale that makes the frame too large to represent, or its similarity too large to hold
        for scales, message in (("1e308", "scale 1e+308 makes a side of 32 pixels too large to represent"),
                                ("1e300", "argument --scales: scales 1e+300 give sequence seq00000")):
            code = run_cli(["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
                            "--out", str(tmp_path / "x"), "--scales", scales])
            assert code == 2, scales
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, scales

    @pytest.mark.parametrize("scale", ["1e300", "1e6"])
    def test_scales_beyond_memory_are_refused_up_front(self, dataset, trained, tmp_path, monkeypatch,
                                                                capsys, scale):
        # at 1e6 a 32x48 clip's first resize alone would take about 8 GB, so
        # the pass must not start: it fails the test instead of allocating
        def no_pass(*args, **kwargs):
            raise AssertionError("infer_sequence ran")

        monkeypatch.setattr(cli, "infer_sequence", no_pass)
        out = tmp_path / "x"
        code = run_cli(["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
                        "--out", str(out), "--scales", f"1.0,{scale}"])
        assert code == 2
        err = capsys.readouterr().err
        value = {"1e300": "1e+300", "1e6": "1000000.0"}[scale]
        assert err.startswith(f"infer: argument --scales: scales 1.0, {value} give sequence seq00000 (32x48 frames)")
        assert "bytes of memory this process may use" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_replays_flags_bitwise(self, dataset, trained, tmp_path):
        first, again = str(tmp_path / "first"), str(tmp_path / "again")
        code = run_cli(["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
                        "--out", first, "--sequence", "seq00001", "--scales", "1.0", "--disable-cm", "--dump-probs"])
        assert code == 0
        assert "disable_cm=true" in open(os.path.join(first, "run.cfg"), encoding="utf-8").read().splitlines()
        assert run_cli(["infer", "--config", os.path.join(first, "run.cfg"), "--out", again]) == 0
        assert tree_bytes(again) == tree_bytes(first)

    @pytest.mark.parametrize("case", ["--soft-reference", "hard_guidance=false"])
    def test_retired_switches_are_usage_errors_naming_the_flag(self, dataset, trained, tmp_path, capsys, case):
        # infer run.cfg files written while infer had these switches hold
        # hard_guidance=false and soft_reference=false lines
        argv = ["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
                "--sequence", "seq00000", "--scales", "1.0"]
        if case.startswith("--"):
            argv.append(case)
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("\n".join(["command=infer", "first_frame_only=false", case]) + "\n", encoding="utf-8")
            argv += ["--config", cfg]
        out = tmp_path / "x"
        assert run_cli(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        flag = {"--soft-reference": "--soft-reference", "hard_guidance=false": "--hard-guidance=false"}[case]
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err, err
        assert not out.exists()

    def test_empty_out_is_usage_error(self, dataset, trained, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
                        "--out", "", "--sequence", "seq00000", "--scales", "1.0"])
        assert code == 2
        assert "--out: expected a non-empty path" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_non_finite_checkpoint_is_data_error(self, dataset, trained, tmp_path, capsys):
        params = init_model_params(0, ModelConfig())
        load_checkpoint(os.path.join(trained, "model.ckpt"), params)
        head_b = params.named_parameters()["decoder/head/b"]
        head_b.value = Tensor(np.full(head_b.value.shape, np.nan))
        ckpt = str(tmp_path / "nan.ckpt")
        save_checkpoint(ckpt, params)
        for argv in (["infer", "--data", dataset, "--checkpoint", ckpt, "--out", tmp_path / "x"],
                     ["train", "--data", dataset, "--out", tmp_path / "y", "--stage", "finetune",
                      "--init-checkpoint", ckpt, "--iterations", 1]):
            assert run_cli(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert "decoder/head/b holds non-finite values" in err, argv[0]

    def test_checkpoint_dims_past_int64_are_a_truncation(self, dataset, tmp_path, capsys):
        # 4194304**3 elements: counted in int64 they wrap to 0 and numpy's
        # reshape failed without naming the file or the offset
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 5) + b"big/w"
                         + struct.pack("<5I", 4, 4194304, 4194304, 4194304, 1) + bytes(16))
        assert run_cli(["infer", "--data", dataset, "--checkpoint", str(ckpt), "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: truncated while reading data of big/w (byte offset 35)" in err
        assert "Traceback" not in err and not (tmp_path / "x").exists()

    def test_checkpoint_name_not_utf8_is_a_format_error(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "name.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 5) + b"\xff\xfe\xfd\xfc\xfb")
        assert run_cli(["infer", "--data", dataset, "--checkpoint", str(ckpt), "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err == f"npmca: {ckpt}: parameter name is not UTF-8 (byte offset {len(CHECKPOINT_MAGIC) + 4})\n"
        assert not (tmp_path / "x").exists()

    def test_reports_rate_and_scale_threads_on_stderr(self, dataset, trained, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        trees = []
        for pinned, line in ((True, "on 2 pass thread(s)"),
                             (False, "on 1 pass thread(s); BLAS could not be pinned to one thread, "
                                     "so passes ran one at a time")):
            monkeypatch.setattr(blas, "PINNED", pinned)
            out = str(tmp_path / f"pinned-{pinned}")
            assert run_cli(["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt"),
                            "--out", out, "--sequence", "seq00002", "--dump-probs"]) == 0
            captured = capsys.readouterr()
            assert re.fullmatch(r"infer: \d+\.\d frame-objects/s " + re.escape(line) + "\n", captured.err), captured.err
            assert "frame-objects/s" not in captured.out
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_one_object_at_one_scale_reports_the_pair_threads(self, dataset, trained, tmp_path, monkeypatch,
                                                              capsys):
        # a frame of one pass runs its two branch pairs on two threads where two CPUs are usable
        single = str(tmp_path / "single")
        shutil.copytree(os.path.join(dataset, "seq00001"), os.path.join(single, "seq00001"))
        first = os.path.join(single, "seq00001", "masks", "00000.pgm")
        mask = read_pgm(first)
        lowest = mask[mask > 0].min()
        write_pgm(first, np.where(mask == lowest, lowest, 0).astype(np.uint8))
        trees = []
        for pinned, cpus, line in ((True, {0, 1}, "on 2 pass thread(s)"), (True, {0}, "on 1 pass thread(s)"),
                                   (False, {0, 1}, "on 1 pass thread(s); BLAS could not be pinned to one thread, "
                                                   "so passes ran one at a time")):
            monkeypatch.setattr(blas, "PINNED", pinned)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            out = str(tmp_path / f"pinned-{pinned}-{len(cpus)}")
            assert run_cli(["infer", "--data", single, "--checkpoint", os.path.join(trained, "model.ckpt"),
                            "--out", out, "--scales", "1.0", "--dump-probs"]) == 0
            err = capsys.readouterr().err
            assert re.fullmatch(r"infer: \d+\.\d frame-objects/s " + re.escape(line) + "\n", err), err
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1] == trees[2]

    def test_missing_first_mask_is_data_error(self, dataset, trained, tmp_path, capsys):
        bare = tmp_path / "bare" / "seq00000"
        shutil.copytree(os.path.join(dataset, "seq00000", "frames"), bare / "frames")
        code = run_cli(["infer", "--data", str(tmp_path / "bare"), "--checkpoint",
                        os.path.join(trained, "model.ckpt"), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "00000.pgm" in capsys.readouterr().err


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["gen", "infer"])
    def test_exits_two_with_one_line_naming_the_command(self, dataset, trained, tmp_path, monkeypatch, capsys, command):
        message = "Unable to allocate 137. GiB for an array with shape (192000, 96000) and data type float64"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, {"gen": "generate_sequence", "infer": "infer_sequence"}[command], exhausted)
        argv = {"gen": ["gen", "--n", 1],
                "infer": ["infer", "--data", dataset, "--checkpoint", os.path.join(trained, "model.ckpt")]}[command]
        assert run_cli(argv + ["--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"npmca {command}: out of memory: {message}"]


class TestEval:
    @staticmethod
    def copy_gt_as_predictions(dataset, pred_root):
        for name in sorted(os.listdir(dataset)):
            mask_dir = os.path.join(dataset, name, "masks")
            if not os.path.isdir(mask_dir):
                continue
            os.makedirs(os.path.join(pred_root, name), exist_ok=True)
            for fname in os.listdir(mask_dir):
                shutil.copy(os.path.join(mask_dir, fname), os.path.join(pred_root, name, fname))

    def test_self_evaluation_is_perfect(self, dataset, tmp_path, capsys):
        pred = str(tmp_path / "pred")
        self.copy_gt_as_predictions(dataset, pred)
        out = str(tmp_path / "report")
        assert run_cli(["eval", "--pred", pred, "--data", dataset, "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "report.json"), encoding="utf-8").read())
        assert payload["mean_j"] == 1.0
        assert payload["mean_f"] == 1.0
        assert "J: 1.000 F: 1.000" in capsys.readouterr().out

    def test_matches_direct_metric_calls(self, dataset, tmp_path):
        pred = str(tmp_path / "pred")
        self.copy_gt_as_predictions(dataset, pred)
        names = sorted(os.listdir(pred))
        shifted = {}
        for name in names:
            video = load_sequence(dataset, name)
            rolled = [np.roll(m, (1, 2), axis=(0, 1)) for m in video.masks]
            shifted[name] = rolled
            for t, mask in enumerate(rolled):
                write_pgm(os.path.join(pred, name, f"{t:05d}.pgm"), mask.astype(np.uint8))
        out = str(tmp_path / "report")
        assert run_cli(["eval", "--pred", pred, "--data", dataset, "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "report.json"), encoding="utf-8").read())

        direct = EvalReport([])
        for name in names:
            video = load_sequence(dataset, name)
            direct = direct.merged(evaluate_sequence(shifted[name], video.masks, name))
        assert payload["mean_j"] == pytest.approx(direct.mean_j, abs=1e-12)
        assert payload["mean_f"] == pytest.approx(direct.mean_f, abs=1e-12)

    def test_missing_frames_listed(self, dataset, tmp_path, capsys):
        pred = str(tmp_path / "pred")
        self.copy_gt_as_predictions(dataset, pred)
        victim = os.path.join(pred, "seq00001", "00003.pgm")
        os.remove(victim)
        assert run_cli(["eval", "--pred", pred, "--data", dataset, "--out", str(tmp_path / "r")]) == 2
        assert victim in capsys.readouterr().err

    def test_loads_each_sequence_once(self, dataset, tmp_path, monkeypatch):
        pred = str(tmp_path / "pred")
        self.copy_gt_as_predictions(dataset, pred)
        loaded = []

        def counting(root, name, *args, **kwargs):
            loaded.append(name)
            return load_sequence(root, name, *args, **kwargs)

        monkeypatch.setattr(cli, "load_sequence", counting)
        assert run_cli(["eval", "--pred", pred, "--data", dataset, "--out", str(tmp_path / "r")]) == 0
        assert sorted(loaded) == sorted(os.listdir(pred))

    def test_empty_prediction_dir(self, dataset, tmp_path):
        pred = str(tmp_path / "empty")
        os.makedirs(pred)
        assert run_cli(["eval", "--pred", pred, "--data", dataset, "--out", str(tmp_path / "r")]) == 2


class TestMixedSizes:
    """A clip whose frames differ in size is refused by name before any output."""

    @staticmethod
    def mixed_clip(root, odd_frame, clips=1):
        """``clips`` 32x48 clips; the last one's frame ``odd_frame`` and its
        mask are 64x96."""
        data = str(root / "data")
        assert run_cli(["gen", "--n", clips, "--out", data, "--seed", 5, "--resolution", "32x48", "--frames", 5]) == 0
        big = generate_sequence(random_scene(6, "default", (64, 96), 5), 6, "big")
        write_sequence(str(root / "big"), big)
        for kind, suffix in (("frames", "ppm"), ("masks", "pgm")):
            shutil.copy(os.path.join(root, "big", "big", kind, f"{odd_frame:05d}.{suffix}"),
                        os.path.join(data, f"seq{clips - 1:05d}", kind, f"{odd_frame:05d}.{suffix}"))
        return data

    @pytest.mark.parametrize("odd_frame", [3, 4])
    def test_every_command_exits_two_naming_the_file(self, tmp_path, capsys, odd_frame):
        data = self.mixed_clip(tmp_path, odd_frame)
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, init_model_params(0))
        named = f"sequence seq00000: frames/{odd_frame:05d}.ppm is 64x96, but frames/00000.ppm is 32x48"
        pred = tmp_path / "pred"
        shutil.copytree(os.path.join(data, "seq00000", "masks"), pred / "seq00000")
        runs = {
            "infer": (["infer", "--data", data, "--checkpoint", ckpt, "--out", tmp_path / "infer"], tmp_path / "infer"),
            "train": (["train", "--data", data, "--out", tmp_path / "train", "--stage", "pretrain",
                       "--iterations", 2, "--batch", 1], tmp_path / "train"),
            "eval": (["eval", "--pred", pred, "--data", data, "--out", tmp_path / "eval"], tmp_path / "eval"),
        }
        for command, (argv, out) in runs.items():
            capsys.readouterr()
            assert run_cli(argv) == 2, command
            err = capsys.readouterr().err
            assert named in err, (command, err)
            assert "Traceback" not in err
            assert not out.exists() or not any(f for _, _, files in os.walk(out) for f in files), command

    @pytest.mark.parametrize("bad", ["frame", "first-mask", "empty-first-mask"])
    def test_infer_writes_nothing_when_a_later_clip_is_bad(self, tmp_path, capsys, bad):
        if bad == "frame":
            data = self.mixed_clip(tmp_path, 3, clips=2)
            named = "sequence seq00001: frames/00003.ppm is 64x96, but frames/00000.ppm is 32x48"
        else:
            data = str(tmp_path / "data")
            assert run_cli(["gen", "--n", 2, "--out", data, "--seed", 5, "--resolution", "32x48", "--frames", 5]) == 0
            mask = np.ones((64, 96), np.uint8) if bad == "first-mask" else np.zeros((32, 48), np.uint8)
            write_pgm(os.path.join(data, "seq00001", "masks", "00000.pgm"), mask)
            named = {"first-mask": "sequence seq00001: first mask (64, 96) does not match frames (32, 48)",
                     "empty-first-mask": "sequence seq00001: first-frame mask contains no objects"}[bad]
        ckpt = str(tmp_path / "init.ckpt")
        save_checkpoint(ckpt, init_model_params(0))
        out = tmp_path / "infer"
        assert run_cli(["infer", "--data", data, "--checkpoint", ckpt, "--out", out]) == 2
        err = capsys.readouterr().err
        assert named in err, err
        assert "Traceback" not in err
        assert not out.exists() or not any(f for _, _, files in os.walk(out) for f in files)

    def test_first_mask_of_another_size_names_the_sequence(self, dataset, trained, tmp_path, capsys):
        data = str(tmp_path / "data")
        shutil.copytree(os.path.join(dataset, "seq00000"), os.path.join(data, "seq00000"))
        write_pgm(os.path.join(data, "seq00000", "masks", "00000.pgm"), np.ones((64, 96), dtype=np.uint8))
        out = tmp_path / "preds"
        argv = ["infer", "--data", data, "--checkpoint", os.path.join(trained, "model.ckpt"), "--out", out]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "sequence seq00000: first mask (64, 96) does not match frames (32, 48)" in err, err
        assert not out.exists()

    def test_eval_names_the_prediction_of_another_size(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred"
        TestEval.copy_gt_as_predictions(dataset, str(pred))
        write_pgm(str(pred / "seq00002" / "00003.pgm"), np.zeros((64, 96), dtype=np.uint8))
        out = tmp_path / "report"
        assert run_cli(["eval", "--pred", pred, "--data", dataset, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "sequence seq00002 frame 3: prediction (64, 96) and truth (32, 48) differ" in err, err
        assert not out.exists()


class TestVerify:
    def test_fresh_suite_passes(self, capsys):
        assert run_cli(["verify"]) == 0
        out = capsys.readouterr().out
        checks = [line for line in out.splitlines() if line.startswith("[ok  ]")]
        assert len(checks) >= 12
        assert "checks passed" in out

    def test_corrupted_softmax_fails_stochasticity(self, monkeypatch, capsys):
        def naive(x):
            with np.errstate(over="ignore", invalid="ignore"):
                e = np.exp(x.array)
                return Tensor(e / e.sum(axis=0, keepdims=True))

        monkeypatch.setattr(ops, "softmax_columns", naive)
        assert run_cli(["verify"]) == 1
        out = capsys.readouterr().out
        bad = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert any("softmax_column_stochastic" in line for line in bad)

    def test_skewed_matmul_fails_gram_check(self, monkeypatch, capsys):
        matmul = ops.matmul

        def skewed(a, b):
            out = matmul(a, b).array.copy()
            out[0, -1] += 1.0
            return Tensor(out)

        monkeypatch.setattr(ops, "matmul", skewed)
        assert run_cli(["verify"]) == 1
        bad = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
        assert any("gram_symmetry_psd" in line for line in bad)
