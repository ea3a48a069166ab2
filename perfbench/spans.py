"""Span tracing of npmca's layers, installed from outside the package.

The tracer replaces public entry points with timing wrappers by setting
module and class attributes, and restores them afterwards, so the untraced
runs execute the package exactly as shipped. A name that another module
imported is wrapped where that module looks it up (``model.nlpmm_forward``,
``training.iou_loss``, ...). A hook whose target no longer exists is
reported as absent and its metrics are left out of the result.

Every span records its parent, so a layer's self time is its duration minus
the time its child spans cover (``nlpmm_forward`` contains conv2d and
softmax_columns, for example). Spans are kept in memory and written out once
at the end of the run.
"""

import functools
import inspect
import json
import os
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

OP_GROUPS = ("conv2d", "bilinear_resize", "softmax_columns", "matmul", "other")


def op_group(op_name: str) -> str:
    return op_name if op_name in OP_GROUPS else "other"


class Tracer:
    """Collects (parent, name, start, end, phase) spans and per-phase counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = "setup"
        self.counters = defaultdict(float)  # (phase, key) -> value
        self.absent = set()
        self.live_tapes = 0
        self.live_tapes_max = 0
        self._restore = []

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[(self.phase, key)] += amount

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper; ``after(tracer, args, kwargs, result)`` adds counters."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (stack[-1] if stack else -1, name, start, end, tracer.phase)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing hooks ----------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return
        setattr(owner, attr, self.wrap(name, original, after))
        self._restore.append((owner, attr, original))

    def _patch_tape(self, autodiff) -> None:
        tape_cls = getattr(autodiff, "Tape", None)
        if tape_cls is None or not hasattr(tape_cls, "record"):
            self.absent.update([f"ops.{g}.bwd" for g in OP_GROUPS] + ["autodiff.tapes"])
            return
        tracer = self
        record = tape_cls.record
        init = tape_cls.__init__

        def traced_record(tape, op, inputs, out_array, vjp):
            return record(tape, op, inputs, out_array, tracer.wrap(f"ops.{op_group(op)}.bwd", vjp))

        def released():
            tracer.live_tapes -= 1

        def traced_init(tape, *args, **kwargs):
            init(tape, *args, **kwargs)
            tracer.live_tapes += 1
            tracer.live_tapes_max = max(tracer.live_tapes_max, tracer.live_tapes)
            weakref.finalize(tape, released)

        tape_cls.record = functools.wraps(record)(traced_record)
        tape_cls.__init__ = functools.wraps(init)(traced_init)
        self._restore += [(tape_cls, "record", record), (tape_cls, "__init__", init)]

    def install(self, npmca) -> None:
        """Wrap every traced entry point of the package modules in ``npmca``."""
        ops = npmca.ops
        for attr, fn in inspect.getmembers(ops, inspect.isfunction):
            if attr.startswith("_") or fn.__module__ != ops.__name__:
                continue
            after = _conv_flops if attr == "conv2d" else None
            self._patch(ops, attr, f"ops.{op_group(attr)}.fwd", after)
        self._patch_tape(npmca.autodiff)
        self._patch(getattr(npmca.autodiff, "Tape", None), "backward", "autodiff.backward", _tape_nodes)
        model = npmca.model
        for attr in ("encode_reference", "encode_target", "fuse", "decode", "load_checkpoint"):
            self._patch(model, attr, f"model.{attr}")
        self._patch(model, "nlpmm_forward", "matching.nlpmm", _similarity_entries)
        self._patch(model, "cm_forward", "attention.cm")
        self._patch(npmca.propagation, "forward_single_object", "model.forward")
        self._patch(npmca.training, "forward_single_object", "model.forward")
        self._patch(npmca.propagation, "encode_reference_image", "propagation.first_ref_encode")
        self._patch(npmca.propagation, "aggregate_multi_object", "propagation.aggregate")
        self._patch(getattr(npmca.training, "Adam", None), "step", "training.adam_step")
        self._patch(npmca.training, "iou_loss", "metrics.iou_loss")
        self._patch(npmca.metrics, "evaluate_sequence", "metrics.evaluate")
        self._patch(npmca.cli, "generate_sequence", "datagen.generate")
        for attr in ("read_ppm", "read_pgm"):
            self._patch(npmca.datagen, attr, "netpbm.read", _file_bytes)
        for attr in ("write_ppm", "write_pgm"):
            self._patch(npmca.datagen, attr, "netpbm.write", _file_bytes)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, npmca, phase: str):
        """Trace everything inside the block under ``phase``."""
        self.phase = phase
        self.install(npmca)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def self_times(self, phase: str):
        """Per span name: (calls, self seconds, total seconds) within ``phase``."""
        covered = defaultdict(float)
        for span in self.spans:
            parent, _, start, end, _ = span
            if parent >= 0:
                covered[parent] += end - start
        calls = defaultdict(int)
        own = defaultdict(float)
        total = defaultdict(float)
        for sid, (_, name, start, end, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            calls[name] += 1
            own[name] += end - start - covered[sid]
            total[name] += end - start
        return calls, own, total

    def write(self, path: str, meta: dict) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        phases = sorted({s[4] for s in self.spans})
        phase_index = {p: i for i, p in enumerate(phases)}
        payload = {
            "meta": meta,
            "columns": ["parent", "name", "start_s", "end_s", "phase"],
            "names": names,
            "phases": phases,
            "spans": [
                [p, index[n], round(s, 7), round(e, 7), phase_index[ph]] for p, n, s, e, ph in self.spans
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _conv_flops(tracer, args, kwargs, result):
    w = args[1] if len(args) > 1 else kwargs["w"]
    kh, kw, cin, cout = w.shape
    oh, ow, _ = result.shape
    tracer.count("conv2d_flops", 2.0 * oh * ow * kh * kw * cin * cout)


def _tape_nodes(tracer, args, kwargs, result):
    tracer.count("tape_nodes", len(args[0].nodes))


def _similarity_entries(tracer, args, kwargs, result):
    ref = getattr(args[0], "tensor", args[0])
    h, w = ref.shape[:2]
    tracer.count("similarity_entries", float(h * w) ** 2)


def _file_bytes(tracer, args, kwargs, result):
    tracer.count("netpbm_bytes", os.path.getsize(args[0]))
