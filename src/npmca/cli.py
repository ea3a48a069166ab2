"""Command-line entry point: gen / train / infer / eval / verify.

Every run resolves its arguments fully (environment overrides and
stage-dependent defaults included) and records them as ``run.cfg`` next to
its outputs, so any run can be repeated with ``--config <run.cfg>``.
Exit codes: 0 success, 1 verification failure, 2 usage or data error,
3 numeric abort during training.
"""

import argparse
import os
import sys

import numpy as np

from .datagen import (
    format_scene_cfg,
    generate_sequence,
    list_sequences,
    load_sequence,
    random_scene,
    write_sequence,
)
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .metrics import EvalReport, evaluate_sequence
from .model import ModelConfig, init_model_params, load_checkpoint, save_checkpoint
from .netpbm import read_pgm
from .propagation import InferenceOptions, infer_sequence, write_predictions
from .training import TrainingDiverged, make_finetune_sampler, make_pretrain_sampler, train_loop

_SKIP_KEYS = {"func", "config"}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {value}")
    return value


def _parse_resolution(text: str) -> tuple[int, int]:
    """HxW with both sides multiples of 4, since the encoders halve twice;
    ``random_scene`` enforces the smallest side."""
    try:
        h, w = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW such as 64x96, got {text!r}")
    if h % 4 or w % 4:
        raise argparse.ArgumentTypeError(f"resolution {h}x{w}: height and width must be multiples of 4")
    return h, w


def _parse_scales(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _load_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, text = line.split("=", 1)
            values[key.strip()] = text.strip()
    return values


def _write_run_cfg(out_dir: str, command: str, args: argparse.Namespace) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"command={command}"]
    for key in sorted(vars(args)):
        if key in _SKIP_KEYS or key == "command":
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif key == "resolution":
            text = "%dx%d" % value
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    with open(os.path.join(out_dir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _derive_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _apply_env_seed(args: argparse.Namespace) -> None:
    if "seed" in vars(args) and os.environ.get("NPMCA_SEED"):
        args.seed = int(os.environ["NPMCA_SEED"])


# --- commands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    for i in range(args.n):
        cfg = random_scene(_derive_seed(args.seed, i, 0), args.preset, args.resolution, args.frames)
        gen_seed = _derive_seed(args.seed, i, 1)
        video = generate_sequence(cfg, gen_seed, f"seq{i:05d}")
        write_sequence(args.out, video, format_scene_cfg(cfg, gen_seed))
    _write_run_cfg(args.out, "gen", args)
    print(f"wrote {args.n} sequences under {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.stage == "finetune" and not args.init_checkpoint:
        print("train: --stage finetune requires --init-checkpoint", file=sys.stderr)
        return 2
    if args.lr is None:
        args.lr = 1e-4 if args.stage == "pretrain" else 1e-5
    names = list_sequences(args.data)
    if not names:
        print(f"train: no sequences found under {args.data}", file=sys.stderr)
        return 2
    videos = [load_sequence(args.data, name) for name in names]

    params = init_model_params(args.seed, ModelConfig(single_encoder=args.single_encoder))
    if args.init_checkpoint:
        load_checkpoint(args.init_checkpoint, params)
    if args.stage == "pretrain":
        sampler = make_pretrain_sampler(videos)
    else:
        sampler = make_finetune_sampler(videos, args.max_skip)

    os.makedirs(args.out, exist_ok=True)
    _write_run_cfg(args.out, "train", args)
    log_path = os.path.join(args.out, "loss.csv")
    with open(log_path, "w", encoding="utf-8") as log:
        losses = train_loop(
            params,
            sampler,
            iterations=args.iterations,
            lr=args.lr,
            batch_size=args.batch,
            seed=args.seed,
            log_stream=log,
            disable_cm=args.disable_cm,
        )
    ckpt_path = os.path.join(args.out, "model.ckpt")
    save_checkpoint(ckpt_path, params)
    print(f"trained {args.iterations} iterations, final loss {losses[-1]:.6f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_infer(args) -> int:
    params = init_model_params(0, ModelConfig(single_encoder=args.single_encoder))
    load_checkpoint(args.checkpoint, params)
    options = InferenceOptions(
        scales=args.scales,
        first_frame_only=args.first_frame_only,
        disable_cm=args.disable_cm,
        soft_guidance=not args.hard_guidance,
        soft_reference_mask=args.soft_reference,
    )
    names = [args.sequence] if args.sequence else list_sequences(args.data)
    if not names:
        print(f"infer: no sequences found under {args.data}", file=sys.stderr)
        return 2
    for name in names:
        video = load_sequence(args.data, name, with_masks=False)
        mask_path = os.path.join(args.data, name, "masks", "00000.pgm")
        if not os.path.exists(mask_path):
            print(f"infer: {name} has no first-frame mask at {mask_path}", file=sys.stderr)
            return 2
        first_mask = read_pgm(mask_path).astype(np.int64)
        result = infer_sequence(video, first_mask, params, options)
        write_predictions(args.out, name, result, dump_probs=args.dump_probs)
    _write_run_cfg(args.out, "infer", args)
    print(f"segmented {len(names)} sequences into {args.out}")
    return 0


def cmd_eval(args) -> int:
    names = list_sequences(args.data)
    if not names:
        print(f"eval: no ground-truth sequences under {args.data}", file=sys.stderr)
        return 2
    missing = []
    for name in names:
        gt = load_sequence(args.data, name)
        for t in range(len(gt.frames)):
            path = os.path.join(args.pred, name, f"{t:05d}.pgm")
            if not os.path.exists(path):
                missing.append(path)
    if missing:
        print("eval: missing predictions:", file=sys.stderr)
        for path in missing:
            print(f"  {path}", file=sys.stderr)
        return 2

    report = EvalReport([])
    for name in names:
        gt = load_sequence(args.data, name)
        preds = [
            read_pgm(os.path.join(args.pred, name, f"{t:05d}.pgm")).astype(np.int64)
            for t in range(len(gt.frames))
        ]
        report = report.merged(evaluate_sequence(preds, gt.masks, name))

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    _write_run_cfg(args.out, "eval", args)
    print(report.to_text().splitlines()[-1])
    return 0


def cmd_verify(args) -> int:
    from . import verify

    ok = verify.run_suite(sys.stdout)
    if args.out:
        _write_run_cfg(args.out, "verify", args)
    return 0 if ok else 1


# --- parser -------------------------------------------------------------------


def _build_parser(config: dict | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="npmca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def apply_config(p, name):
        # Values stay text, so argparse converts and checks each one with
        # its argument's own type, exactly as if it came from the command
        # line. Only flags (bool defaults) are read here.
        if config and config.get("command") == name:
            p.set_defaults(**{
                k: v == "true" if isinstance(p.get_default(k), bool) else v
                for k, v in config.items() if k != "command"
            })

    gen = sub.add_parser("gen", help="generate synthetic sequences")
    gen.add_argument("--n", type=_positive_int, required=False, default=None)
    gen.add_argument("--out", required=False)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--preset", choices=("default", "occlusion-heavy"), default="default")
    gen.add_argument("--resolution", type=_parse_resolution, default="64x96")
    gen.add_argument("--frames", type=int, default=8)
    gen.add_argument("--config", default=None, help=argparse.SUPPRESS)
    apply_config(gen, "gen")
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train a model on a generated dataset")
    train.add_argument("--data", required=False)
    train.add_argument("--out", required=False)
    train.add_argument("--stage", choices=("pretrain", "finetune"), default="finetune")
    train.add_argument("--init-checkpoint", dest="init_checkpoint", default=None)
    train.add_argument("--iterations", type=_positive_int, default=2000)
    train.add_argument("--lr", type=float, default=None, help="default: 1e-4 pretrain, 1e-5 finetune")
    train.add_argument("--batch", type=_positive_int, default=4)
    train.add_argument("--max-skip", dest="max_skip", type=_positive_int, default=5)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--single-encoder", dest="single_encoder", action="store_true")
    train.add_argument("--disable-cm", dest="disable_cm", action="store_true")
    train.add_argument("--config", default=None, help=argparse.SUPPRESS)
    apply_config(train, "train")
    train.set_defaults(func=cmd_train)

    infer = sub.add_parser("infer", help="propagate first-frame masks through sequences")
    infer.add_argument("--data", required=False)
    infer.add_argument("--checkpoint", required=False)
    infer.add_argument("--out", required=False)
    infer.add_argument("--sequence", default=None, help="restrict to one sequence name")
    infer.add_argument("--scales", type=_parse_scales, default="0.75,1.0,1.25")
    infer.add_argument("--first-frame-only", dest="first_frame_only", action="store_true")
    infer.add_argument("--disable-cm", dest="disable_cm", action="store_true")
    infer.add_argument("--single-encoder", dest="single_encoder", action="store_true")
    infer.add_argument("--hard-guidance", dest="hard_guidance", action="store_true")
    infer.add_argument("--soft-reference", dest="soft_reference", action="store_true")
    infer.add_argument("--dump-probs", dest="dump_probs", action="store_true")
    infer.add_argument("--config", default=None, help=argparse.SUPPRESS)
    apply_config(infer, "infer")
    infer.set_defaults(func=cmd_infer)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--pred", required=False)
    ev.add_argument("--data", required=False)
    ev.add_argument("--out", required=False)
    ev.add_argument("--config", default=None, help=argparse.SUPPRESS)
    apply_config(ev, "eval")
    ev.set_defaults(func=cmd_eval)

    ver = sub.add_parser("verify", help="run the built-in invariant suite")
    ver.add_argument("--out", default=None)
    ver.add_argument("--config", default=None, help=argparse.SUPPRESS)
    apply_config(ver, "verify")
    ver.set_defaults(func=cmd_verify)

    return parser


def _extract_config(argv: list[str]) -> dict | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return _load_config_file(argv[i + 1])
        if token.startswith("--config="):
            return _load_config_file(token.split("=", 1)[1])
    return None


_REQUIRED = {
    "gen": ("n", "out"),
    "train": ("data", "out"),
    "infer": ("data", "checkpoint", "out"),
    "eval": ("pred", "data", "out"),
    "verify": (),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _extract_config(argv)
    except (OSError, ValueError) as exc:
        print(f"npmca: cannot read config: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser(config)
    args = parser.parse_args(argv)
    for key in _REQUIRED[args.command]:
        if getattr(args, key) in (None, ""):
            parser.error(f"{args.command}: --{key.replace('_', '-')} is required")
    _apply_env_seed(args)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"npmca: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, NotADirectoryError, PermissionError) as exc:
        print(f"npmca: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ConfigError, ShapeError, NumericError, ValueError) as exc:
        print(f"npmca: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
