"""The three workloads: set-up, timed rounds, and the checks that follow.

Every run attempts whole rounds of identical operations. A training round
starts from the same fresh initialisation and runs ``TRAIN_STEPS`` Adam
iterations; an inference round propagates the first-frame mask through
every clip of the workload. Rounds repeat until ``--seconds`` have passed,
and never fewer than two, so reruns within one invocation can be compared
bit for bit.
"""

import contextlib
import functools
import io
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import checks
from spans import OP_GROUPS

FRAMES = 8
SETUP_REPEATS = 3
INIT_SEED = 0
MIN_ROUNDS = 2
TRAIN_STEPS = 16
TRAIN_BATCH = 4
TRAIN_LR = 3e-4
TRAIN_MAX_SKIP = 5


@dataclass(frozen=True)
class Spec:
    preset: str
    resolution: tuple[int, int]
    clips: int
    scales: tuple[float, ...] | None  # None: the training workload


WORKLOADS = {
    "train-64x96": Spec("default", (64, 96), 16, None),
    "infer-64x96-3scale": Spec("default", (64, 96), 3, (0.75, 1.0, 1.25)),
    "infer-128x192-occl": Spec("occlusion-heavy", (128, 192), 2, (1.0,)),
}


class Outcome:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def operations(self, count: int, failed: bool) -> None:
        self.attempted += count
        if failed:
            self.failed += count

    def check(self, name: str, run) -> None:
        """Run one check; a check that fails or raises is a failed operation."""
        self.attempted += 1
        try:
            ok, detail = run()
        except Exception:
            ok, detail = False, traceback.format_exc()
        if not ok:
            self.failed += 1
            self.correct = False
        log(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)`` inside the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _maybe(tracer, npmca, phase):
    return tracer.active(npmca, phase) if tracer is not None else contextlib.nullcontext()


# -- the speed probe ----------------------------------------------------------------

# Operations are reported at the machine speed where the probe reads this long.
REFERENCE_PROBE_S = 0.005


class SpeedClock:
    """Marks operation boundaries and times a fixed reference probe at each one.

    On a shared host the speed of the machine drifts by tens of percent
    over minutes, and different kinds of work drift by different amounts.
    The probe times three numpy-only kernels that no change to npmca can
    alter, each lasting a few milliseconds: a workload-like mix (an
    im2col-style gather, one GEMM, a column softmax and a short Python
    loop), cache-resident arithmetic, and a memory-bound stream over 10 MB
    arrays. It reads the geometric mean of the three times, which tracked
    the drift of all three workloads better than any one kernel alone.
    Each operation's wall time is divided by the mean of the probes just
    before and after it and multiplied by ``REFERENCE_PROBE_S``. The probes
    run between operations, outside the intervals they scale.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._padded = rng.normal(size=(34, 98, 16))
        self._cols = np.empty((32, 96, 3, 3, 16))
        self._weights = rng.normal(size=(144, 16))
        self._scores = rng.normal(size=(384, 384))
        self._small = rng.normal(size=(96, 96))
        self._narrow = rng.normal(size=(96, 32))
        self._cube = rng.normal(size=(32, 32, 8))
        self._stream = rng.normal(size=1_250_000)
        self._sink = np.empty_like(self._stream)
        self.probes = []  # seconds of every probe
        self._marks = []  # (operation end, next operation start, probe seconds)

    def _probe(self) -> float:
        clock = time.perf_counter
        t0 = clock()
        for i in range(3):
            for j in range(3):
                self._cols[:, :, i, j, :] = self._padded[i : i + 32, j : j + 96, :]
        self._cols.reshape(32 * 96, 144) @ self._weights
        e = np.exp(self._scores - self._scores.max(axis=0, keepdims=True))
        e /= e.sum(axis=0, keepdims=True)
        total = 0
        for k in range(1500):
            total += k
        t1 = clock()
        for _ in range(80):
            self._small @ self._narrow
            np.exp(self._cube)
        for k in range(6000):
            total += k
        t2 = clock()
        np.exp(self._stream, out=self._sink)
        np.add(self._sink, self._stream, out=self._sink)
        self._sink.sum()
        t3 = clock()
        took = ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1.0 / 3.0)
        self.probes.append(took)
        return took

    def mark(self) -> None:
        """End the running operation, probe, and start the next one."""
        end = time.perf_counter()
        probe = self._probe()
        self._marks.append((end, time.perf_counter(), probe))

    def write(self, text: str) -> None:
        """``train_loop`` writes one log line before its first step and one after each."""
        self.mark()

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """(wall seconds, scaled seconds) of the operations since the last take."""
        marks, self._marks = self._marks, []
        wall = np.asarray([b[0] - a[1] for a, b in zip(marks, marks[1:])])
        probe = np.asarray([(a[2] + b[2]) / 2.0 for a, b in zip(marks, marks[1:])])
        return wall, wall * (REFERENCE_PROBE_S / probe)


# -- set-up ---------------------------------------------------------------------


def set_up(npmca, name: str, seed: int, root: str, tracer, clock: SpeedClock):
    """Generate clips with ``npmca gen``, load them, make the model, warm up.

    Repeated ``SETUP_REPEATS`` times into fresh directories; returns the
    last repetition's state and the scaled seconds each repetition took.
    """
    spec = WORKLOADS[name]
    ckpt = os.path.join(root, "model.ckpt")
    if spec.scales is not None:
        npmca.model.save_checkpoint(ckpt, npmca.model.init_model_params(INIT_SEED))
    seconds = []
    for k in range(SETUP_REPEATS):
        data = os.path.join(root, f"setup{k}")
        gen = ["gen", "--n", str(spec.clips), "--out", data, "--seed", str(seed), "--preset", spec.preset,
               "--resolution", "%dx%d" % spec.resolution, "--frames", str(FRAMES)]
        with _maybe(tracer, npmca, "setup"):
            clock.mark()
            with contextlib.redirect_stdout(io.StringIO()):
                status = npmca.cli.main(gen)
            if status != 0:
                raise RuntimeError(f"npmca {' '.join(gen)} exited with {status}")
            videos = [npmca.datagen.load_sequence(data, n) for n in npmca.datagen.list_sequences(data)]
            params = npmca.model.init_model_params(INIT_SEED)
            if spec.scales is None:
                sampler = npmca.training.make_finetune_sampler(videos, TRAIN_MAX_SKIP)
                npmca.training.train_loop(params, sampler, 1, TRAIN_LR, TRAIN_BATCH, seed=seed)
            else:
                npmca.model.load_checkpoint(ckpt, params)
                _warm_up_inference(npmca, videos[0], params, spec)
            clock.mark()
        seconds.append(float(clock.take()[1][0]))
    return videos, params, seconds


def _warm_up_inference(npmca, video, params, spec) -> None:
    """One predicted frame of one object, whatever the clip holds."""
    first = video.masks[0]
    lowest = int(first[first > 0].min())
    clip = npmca.datagen.VideoSequence(video.name, video.frames[:2], None)
    options = npmca.propagation.InferenceOptions(scales=spec.scales)
    npmca.propagation.infer_sequence(clip, np.where(first == lowest, lowest, 0), params, options)


# -- timed rounds ---------------------------------------------------------------


@dataclass
class Round:
    traced: bool
    wall_ms: list  # wall milliseconds per frame-object, one entry per step or frame
    unit_ms: list  # the same, scaled to the reference speed
    units: int  # frame-objects: training samples, or objects times predicted frames
    busy_s: float  # summed scaled step or clip times
    outputs: list  # losses, or each clip's label rasters
    kept: object = None  # trained parameters, or the first round's InferResults


def _run_rounds(seconds: float, tracer, one_round):
    """Untraced rounds, or alternating untraced/traced rounds when tracing.

    Returns the rounds and the peak resident memory in MB after the first
    ``MIN_ROUNDS`` of them: a fixed amount of work, however fast the
    machine runs and however many rounds fit in ``seconds``.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(one_round(len(rounds), tracer is not None and len(rounds) % 2 == 1))
        if len(rounds) == MIN_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, peak_rss_mb


def time_training(npmca, videos, seed, seconds, tracer, outcome, clock: SpeedClock):
    sampler = npmca.training.make_finetune_sampler(videos, TRAIN_MAX_SKIP)

    def one_round(index: int, traced: bool) -> Round:
        params = npmca.model.init_model_params(INIT_SEED)
        draw = tracer.wrap("training.sampler", sampler) if traced else sampler
        losses = []
        with _maybe(tracer if traced else None, npmca, "timed"):
            try:
                losses = npmca.training.train_loop(
                    params, draw, TRAIN_STEPS, TRAIN_LR, TRAIN_BATCH, seed=seed, log_stream=clock
                )
            except Exception:
                log(traceback.format_exc())
        wall, scaled = clock.take()
        outcome.operations(TRAIN_STEPS, not losses)
        if not losses:
            return Round(traced, [], [], 0, 0.0, [])
        if wall.size != TRAIN_STEPS:
            raise RuntimeError(f"train_loop logged {wall.size + 1} lines for {TRAIN_STEPS} steps")
        per_sample = 1e3 / TRAIN_BATCH
        return Round(traced, list(wall * per_sample), list(scaled * per_sample), TRAIN_STEPS * TRAIN_BATCH,
                     float(scaled.sum()), losses, params)

    return _run_rounds(seconds, tracer, one_round)


def time_inference(npmca, videos, params, spec, seconds, tracer, outcome, clock: SpeedClock):
    propagation = npmca.propagation
    options = propagation.InferenceOptions(scales=spec.scales)

    def marked(aggregate):
        def aggregate_and_mark(*args, **kwargs):
            result = aggregate(*args, **kwargs)
            clock.mark()
            return result

        return aggregate_and_mark

    def one_round(index: int, traced: bool) -> Round:
        done = Round(traced, [], [], 0, 0.0, [], [] if index == 0 else None)
        # the marking hook goes on top of the tracer's, so probes stay out of every span
        with _maybe(tracer if traced else None, npmca, "timed"), patched(propagation, "aggregate_multi_object", marked):
            for video in videos:
                clock.mark()
                try:
                    result = propagation.infer_sequence(video, video.masks[0], params, options)
                except Exception:
                    log(traceback.format_exc())
                    clock.take()
                    outcome.operations(1, True)
                    continue
                outcome.operations(1, False)
                wall, scaled = clock.take()
                objects = len(result.object_ids)
                done.wall_ms += list(wall * 1e3 / objects)
                done.unit_ms += list(scaled * 1e3 / objects)
                done.units += objects * wall.size
                done.busy_s += float(scaled.sum())
                done.outputs.append(result.masks)
                if index == 0:
                    done.kept.append(result)
        return done

    return _run_rounds(seconds, tracer, one_round)


# -- checks -----------------------------------------------------------------------


def check_training(npmca, videos, seed, rounds, outcome) -> None:
    runs = [r.outputs for r in rounds if r.outputs]
    outcome.check("losses finite and in [0, 1]", lambda: checks.check_losses(np.concatenate(runs)))
    outcome.check("loss sequences repeat", lambda: checks.check_repeat("loss sequences", runs))
    outcome.check("loss falls from the fresh initialisation",
                  lambda: checks.check_loss_falls(runs[0], TRAIN_STEPS // 3))
    outcome.check("gradients agree with central differences",
                  lambda: _gradient_audit(npmca, videos, seed, rounds[0].kept))


def _gradient_audit(npmca, videos, seed, params):
    """Reverse mode against central differences on one sample, at the trained state.

    The fresh initialisation has zero biases, so a background-masked
    reference puts whole ReLU layers exactly at their kink, where central
    differences and the one-sided adjoint disagree by definition. After a
    round of Adam the biases sit clear of zero.
    """
    sample = npmca.training.make_finetune_sampler(videos, TRAIN_MAX_SKIP)(np.random.default_rng(seed))
    npmca.autodiff.zero_gradients(params.named_parameters().values())
    inputs = (sample.first_masked, sample.prev_masked, sample.cur_rgb, sample.guidance)

    tape = npmca.autodiff.Tape()
    prob = npmca.model.forward_single_object(params, *inputs, tape=tape)
    tape.backward(npmca.metrics.iou_loss(prob, sample.target))

    def loss():
        return npmca.metrics.iou_loss(npmca.model.forward_single_object(params, *inputs), sample.target).item()

    groups = {n: (p.value.array, p.gradient.array.copy()) for n, p in params.named_parameters().items()}
    return checks.check_gradients(groups, checks.relu_region_loss(npmca, loss))


def check_inference(npmca, videos, params, spec, rounds, outcome, tracer) -> None:
    first = rounds[0].kept
    for video, result in zip(videos, first):
        tag = video.name
        outcome.check(f"{tag} frame 0 echo", lambda: checks.check_echo(result.masks, video.masks[0]))
        outcome.check(f"{tag} stacks are distributions", lambda: checks.check_stacks(result.stacks))
        outcome.check(f"{tag} labels are the argmax",
                      lambda: checks.check_labels(result.masks, result.stacks, result.object_ids))
    labels = [[m for masks in r.outputs for m in masks] for r in rounds]
    outcome.check("label rasters repeat", lambda: checks.check_repeat("label rasters", labels))
    _reference_checks(npmca, videos[0], params, spec, outcome)

    with _maybe(tracer, npmca, "check"):
        scores = [npmca.metrics.evaluate_sequence(r.masks, v.masks, v.name) for v, r in zip(videos, first)]
    log("untrained model scores " + ", ".join(f"{s.sequences()[0]} J {s.mean_j:.3f} F {s.mean_f:.3f}" for s in scores))


CAPTURED = (("ops", "conv2d"), ("ops", "bilinear_resize"), ("ops", "softmax_columns"),
            ("model", "nlpmm_forward"), ("model", "cm_forward"), ("propagation", "aggregate_multi_object"))


def _reference_checks(npmca, video, params, spec, outcome) -> None:
    """Record the calls of one predicted frame and recompute each with the references."""
    calls = {attr: [] for _, attr in CAPTURED}

    def recorder(attr):
        def make(fn):
            def record(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[attr].append((args, kwargs, out))
                return out

            return record

        return make

    clip = npmca.datagen.VideoSequence(video.name, video.frames[:2], video.masks[:2])
    options = npmca.propagation.InferenceOptions(scales=spec.scales)
    with contextlib.ExitStack() as stack:
        for module, attr in CAPTURED:
            stack.enter_context(patched(getattr(npmca, module), attr, recorder(attr)))
        npmca.propagation.infer_sequence(clip, clip.masks[0], params, options)

    references = dict(checks.REFERENCE_CHECKS, aggregate_multi_object=functools.partial(
        checks.check_aggregate, default_eps=npmca.propagation.CLAMP_EPS))
    for attr, check in references.items():

        def run(recorded=calls[attr], check=check):
            if not recorded:
                return False, "no calls recorded"
            results = [check(*call) for call in recorded]
            shown = next((r for r in results if not r[0]), results[-1])
            return all(ok for ok, _ in results), f"{len(results)} calls; {shown[1]}"

        outcome.check(f"{attr} agrees with the reference", run)


# -- metrics ------------------------------------------------------------------------


def end_to_end(rounds, peak_rss_mb, setup_seconds) -> dict:
    timed = [r for r in rounds if not r.traced]
    unit_ms = [v for r in timed for v in r.unit_ms]
    return {
        "frame_object_ms_p50": (statistics.median(unit_ms), "ms"),
        "frame_objects_per_s": (sum(r.units for r in timed) / sum(r.busy_s for r in timed), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_seconds), "s"),
    }


def per_layer(tracer, rounds, clips: int, probes) -> dict:
    """Layer metrics from the traced rounds; README.md gives each denominator.

    Times are self times unless the name ends in ``_total_ms``, scaled to
    the reference speed by the run's median probe. A metric whose span was
    absent from the package is left out.
    """
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    units = sum(r.units for r in traced)
    steps = 0 if clips else units // TRAIN_BATCH
    phases = {phase: tracer.self_times(phase) for phase in ("timed", "setup", "check")}
    counters = tracer.counters
    speed = REFERENCE_PROBE_S / statistics.median(probes)
    out = {}

    def put(key, span, unit, value):
        if span not in tracer.absent:
            out[key] = (value, unit)

    def per(value, count):
        return value / count if count else 0.0

    def ms(span, phase="timed", per_call=False, total=False, count=None):
        calls, own, inclusive = phases[phase]
        seconds = (inclusive if total else own)[span]
        return per(seconds, calls[span] if per_call else count if count is not None else units) * 1e3 * speed

    calls = phases["timed"][0]
    for group in OP_GROUPS:
        put(f"ops.{group}.fwd_ms", f"ops.{group}.fwd", "ms", ms(f"ops.{group}.fwd"))
        put(f"ops.{group}.bwd_ms", f"ops.{group}.bwd", "ms", ms(f"ops.{group}.bwd"))
        put(f"ops.{group}.calls", f"ops.{group}.fwd", "count", per(calls[f"ops.{group}.fwd"], units))
    put("ops.conv2d.gflop_per_s", "ops.conv2d.fwd", "GFLOP/s",
        per(counters[("timed", "conv2d_flops")], phases["timed"][1]["ops.conv2d.fwd"] * speed) / 1e9)
    put("autodiff.backward_ms", "autodiff.backward", "ms", ms("autodiff.backward"))
    put("autodiff.backward_total_ms", "autodiff.backward", "ms", ms("autodiff.backward", total=True))
    put("autodiff.nodes_per_sample", "autodiff.backward", "count",
        per(counters[("timed", "tape_nodes")], calls["autodiff.backward"]))
    put("autodiff.tapes_live_max", "autodiff.tapes", "count", float(tracer.live_tapes_max))
    for block in ("encode_reference", "encode_target", "fuse", "decode", "forward"):
        put(f"model.{block}_ms", f"model.{block}", "ms", ms(f"model.{block}"))
    put("model.forward_total_ms", "model.forward", "ms", ms("model.forward", total=True))
    put("model.load_checkpoint_ms", "model.load_checkpoint", "ms", ms("model.load_checkpoint", "setup", per_call=True))
    put("matching.nlpmm_ms", "matching.nlpmm", "ms", ms("matching.nlpmm"))
    put("matching.nlpmm_total_ms", "matching.nlpmm", "ms", ms("matching.nlpmm", total=True))
    put("matching.similarity_entries", "matching.nlpmm", "count",
        per(counters[("timed", "similarity_entries")], calls["matching.nlpmm"]))
    put("attention.cm_ms", "attention.cm", "ms", ms("attention.cm"))
    put("propagation.aggregate_ms", "propagation.aggregate", "ms", ms("propagation.aggregate"))
    encodes = calls["propagation.first_ref_encode"]
    lookups = calls["model.forward"] if clips else 0
    put("propagation.first_ref_encodes", "propagation.first_ref_encode", "count", per(encodes, clips * len(traced)))
    put("propagation.first_ref_hit_ratio", "propagation.first_ref_encode", "ratio", per(lookups - encodes, lookups))
    put("training.adam_step_ms", "training.adam_step", "ms", ms("training.adam_step", total=True, count=steps))
    put("training.sampler_ms", "training.sampler", "ms", ms("training.sampler", total=True, count=steps))
    put("metrics.iou_loss_ms", "metrics.iou_loss", "ms", ms("metrics.iou_loss"))
    put("metrics.evaluate_ms", "metrics.evaluate", "ms", ms("metrics.evaluate", "check", per_call=True))
    put("datagen.generate_ms", "datagen.generate", "ms", ms("datagen.generate", "setup", per_call=True))
    put("netpbm.read_ms", "netpbm.read", "ms", ms("netpbm.read", "setup", per_call=True))
    put("netpbm.write_ms", "netpbm.write", "ms", ms("netpbm.write", "setup", per_call=True))
    put("netpbm.bytes", "netpbm.read", "bytes", counters[("setup", "netpbm_bytes")] / SETUP_REPEATS)
    overhead = statistics.median(v for r in traced for v in r.unit_ms) / statistics.median(
        v for r in untraced for v in r.unit_ms)
    out["trace.overhead_pct"] = ((overhead - 1.0) * 100.0, "%")
    out["bench.probe_ms"] = (statistics.median(probes) * 1e3, "ms")
    return out
