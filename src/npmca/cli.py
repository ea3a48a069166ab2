"""Command-line entry point: gen / train / infer / eval / verify.

Every run resolves its arguments fully (environment overrides and
stage-dependent defaults included) and records them as ``run.cfg`` next to
its outputs, so any run can be repeated with ``--config <run.cfg>``.
Exit codes: 0 success, 1 verification failure, 2 usage or data error,
3 numeric abort during training.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from . import blas, ops
from .datagen import (
    format_scene_cfg,
    generate_sequence,
    list_sequences,
    load_sequence,
    random_scene,
    write_sequence,
)
from .errors import ConfigError, NumericError
from .metrics import EvalReport, evaluate_sequence
from .model import GRID_STRIDE, ModelConfig, init_model_params, load_checkpoint, save_checkpoint
from .netpbm import read_pgm
from .propagation import (
    InferenceOptions,
    check_scales_fit,
    first_mask_objects,
    infer_sequence,
    loop_threads,
    write_predictions,
)
from .training import TrainingDiverged, make_finetune_sampler, make_pretrain_sampler, train_loop


def _nonempty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty path")
    return text


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive count, got {value}")
    return value


def _seed(text: str) -> int:
    """A seed for ``np.random.SeedSequence``, which takes no negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _learning_rate(text: str) -> float:
    """A step size for Adam: zero learns nothing, a negative one climbs the
    loss, and a NaN or an infinity poisons every parameter."""
    try:
        value = float(text)
        if math.isfinite(value) and value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")


def _parse_resolution(text: str) -> tuple[int, int]:
    """HxW with both sides multiples of GRID_STRIDE; ``random_scene``
    enforces the smallest side."""
    try:
        h, w = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW such as 64x96, got {text!r}")
    if h % GRID_STRIDE or w % GRID_STRIDE:
        raise argparse.ArgumentTypeError(f"resolution {h}x{w}: height and width must be multiples of {GRID_STRIDE}")
    return h, w


def _parse_scales(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _config_tokens(path: str, command: str, sub: argparse.ArgumentParser) -> list[str]:
    """The ``key=value`` lines of a config file as command-line tokens.

    A key is a flag when its argument's default is a bool, so ``true``
    gives ``--key`` and ``false`` gives nothing; any other key gives
    ``--key=value``, which keeps values such as ``-3`` values.
    """
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            where = f"config {path} line {number}"
            if not sep or not key:
                raise ConfigError(f"{where}: expected key=value, got {line!r}")
            flag = "--" + key.replace("_", "-")
            if key == "command":
                if value != command:
                    raise ConfigError(f"{where}: the file is for {value!r}, not {command!r}")
            elif isinstance(sub.get_default(key), bool):
                if value not in ("true", "false"):
                    raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")
                if value == "true":
                    tokens.append(flag)
            else:
                tokens.append(f"{flag}={value}")
    return tokens


def _expand_config(argv: list[str], commands: dict) -> list[str]:
    """Replace ``--config PATH`` with the file's tokens, placed right after
    the command name so that flags typed on the command line come later and
    win. argparse then checks every value, whichever source it came from."""
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 == len(argv):
                raise ConfigError("--config needs a file path")
            path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
        elif token.startswith("--config="):
            path, rest = token.split("=", 1)[1], argv[:i] + argv[i + 1:]
        else:
            continue
        if not rest or rest[0] not in commands:
            return rest  # argparse reports the missing or unknown command
        return rest[:1] + _config_tokens(path, rest[0], commands[rest[0]]) + rest[1:]
    return argv


def _write_run_cfg(out_dir: str, command: str, args: argparse.Namespace) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"command={command}"]
    for key in sorted(vars(args)):
        if key in ("command", "func"):
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
    text = os.environ.get("NPMCA_SEED")
    if "seed" in vars(args) and text:
        try:
            args.seed = _seed(text)
        except argparse.ArgumentTypeError:
            raise ConfigError(f"NPMCA_SEED must be a non-negative integer, got {text!r}") from None


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
    start = time.perf_counter()
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
    rate = args.iterations * args.batch / (time.perf_counter() - start)
    note = "" if blas.PINNED else "; BLAS could not be pinned to one thread, so samples ran one at a time"
    print(f"train: {rate:.1f} samples/s on {blas.workers(args.batch)} sample thread(s){note}", file=sys.stderr)
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
    # every clip and first mask is read and checked before the first
    # forward pass, so a bad clip fails before anything is written
    clips = []
    for name in names:
        video = load_sequence(args.data, name, with_masks=False)
        mask_path = os.path.join(args.data, name, "masks", "00000.pgm")
        if not os.path.exists(mask_path):
            print(f"infer: {name} has no first-frame mask at {mask_path}", file=sys.stderr)
            return 2
        first_mask = read_pgm(mask_path)
        objects = len(first_mask_objects(video, first_mask))
        try:
            check_scales_fit(options.scales, first_mask.shape, video.name)
        except ValueError as exc:
            print(f"infer: argument --scales: {exc}", file=sys.stderr)
            return 2
        clips.append((video, first_mask, objects))
    frame_objects, busy, helped, threads = 0, 0.0, 0, 1
    for video, first_mask, objects in clips:
        clip_threads, halves = loop_threads(objects, options.scales, first_mask.shape)
        threads = max(threads, clip_threads)
        helped += halves and ops.lends_helper()
        start = time.perf_counter()
        result = infer_sequence(video, first_mask, params, options)
        busy += time.perf_counter() - start
        frame_objects += (len(result.masks) - 1) * len(result.object_ids)
        write_predictions(args.out, video.name, result, dump_probs=args.dump_probs)
    _write_run_cfg(args.out, "infer", args)
    note = "" if blas.PINNED else "; BLAS could not be pinned to one thread, so passes ran one at a time"
    if helped:
        note += f" and a row-half helper thread on {helped} of {len(clips)} clip(s)"
    print(f"infer: {frame_objects / busy:.1f} frame-objects/s on {threads} pass thread(s){note}", file=sys.stderr)
    print(f"segmented {len(names)} sequences into {args.out}")
    return 0


def cmd_eval(args) -> int:
    names = list_sequences(args.data)
    if not names:
        print(f"eval: no ground-truth sequences under {args.data}", file=sys.stderr)
        return 2
    truth = {name: load_sequence(args.data, name).masks for name in names}
    missing = []
    for name, masks in truth.items():
        for t in range(len(masks)):
            path = os.path.join(args.pred, name, f"{t:05d}.pgm")
            if not os.path.exists(path):
                missing.append(path)
    if missing:
        print("eval: missing predictions:", file=sys.stderr)
        for path in missing:
            print(f"  {path}", file=sys.stderr)
        return 2

    report = EvalReport([])
    for name, masks in truth.items():
        preds = [read_pgm(os.path.join(args.pred, name, f"{t:05d}.pgm")) for t in range(len(masks))]
        report = report.merged(evaluate_sequence(preds, masks, name))

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


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by command name."""
    # no prefix matching: a truncated option, typed or from a config line, is refused
    parser = argparse.ArgumentParser(prog="npmca", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic sequences", allow_abbrev=False)
    gen.add_argument("--n", type=_positive_int, required=True)
    gen.add_argument("--out", type=_nonempty, required=True)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--preset", choices=("default", "occlusion-heavy"), default="default")
    gen.add_argument("--resolution", type=_parse_resolution, default="64x96")
    gen.add_argument("--frames", type=int, default=8)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train a model on a generated dataset", allow_abbrev=False)
    train.add_argument("--data", type=_nonempty, required=True)
    train.add_argument("--out", type=_nonempty, required=True)
    train.add_argument("--stage", choices=("pretrain", "finetune"), default="finetune")
    train.add_argument("--init-checkpoint", dest="init_checkpoint", default=None)
    train.add_argument("--iterations", type=_positive_int, default=2000)
    train.add_argument("--lr", type=_learning_rate, default=None, help="default: 1e-4 pretrain, 1e-5 finetune")
    train.add_argument("--batch", type=_positive_int, default=4)
    train.add_argument("--max-skip", dest="max_skip", type=_positive_int, default=5)
    train.add_argument("--seed", type=_seed, default=0)
    train.add_argument("--single-encoder", dest="single_encoder", action="store_true")
    train.add_argument("--disable-cm", dest="disable_cm", action="store_true")
    train.set_defaults(func=cmd_train)

    infer = sub.add_parser("infer", help="propagate first-frame masks through sequences", allow_abbrev=False)
    infer.add_argument("--data", type=_nonempty, required=True)
    infer.add_argument("--checkpoint", type=_nonempty, required=True)
    infer.add_argument("--out", type=_nonempty, required=True)
    infer.add_argument("--sequence", default=None, help="restrict to one sequence name")
    infer.add_argument("--scales", type=_parse_scales, default="0.75,1.0,1.25")
    infer.add_argument("--first-frame-only", dest="first_frame_only", action="store_true")
    infer.add_argument("--disable-cm", dest="disable_cm", action="store_true")
    infer.add_argument("--single-encoder", dest="single_encoder", action="store_true")
    infer.add_argument("--hard-guidance", dest="hard_guidance", action="store_true")
    infer.add_argument("--soft-reference", dest="soft_reference", action="store_true")
    infer.add_argument("--dump-probs", dest="dump_probs", action="store_true")
    infer.set_defaults(func=cmd_infer)

    ev = sub.add_parser("eval", help="score predictions against ground truth", allow_abbrev=False)
    ev.add_argument("--pred", type=_nonempty, required=True)
    ev.add_argument("--data", type=_nonempty, required=True)
    ev.add_argument("--out", type=_nonempty, required=True)
    ev.set_defaults(func=cmd_eval)

    ver = sub.add_parser("verify", help="run the built-in invariant suite", allow_abbrev=False)
    ver.add_argument("--out", type=_nonempty, default=None)
    ver.set_defaults(func=cmd_verify)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = None
    try:
        args = parser.parse_args(_expand_config(list(sys.argv[1:] if argv is None else argv), commands))
        _apply_env_seed(args)
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"npmca: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, NumericError) as exc:  # ValueError covers ConfigError, FormatError, ShapeError
        print(f"npmca: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to hold, such as gen --resolution 40000x40000
        command = f" {args.command}" if args is not None else ""
        print(f"npmca{command}: out of memory: {str(exc) or 'the input is too large to process'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
