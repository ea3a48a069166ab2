"""What a second thread costs a training sample and an inference pass.

Times one taped sample (forward, soft-IoU loss and parameter adjoints,
as ``train_loop`` runs each sample) and one untaped forward pass on the
same clip three ways: alone, while a second thread runs the same work in
a loop, and while a second process does. Each line gives the three
medians in milliseconds. The thread figure over the process figure is
what the interpreter lock costs: two processes share the cores, caches
and memory bus as two threads do, but not the lock.

    python3 scripts/thread_tax.py                 # 64x96, 20 repeats per mode
    python3 scripts/thread_tax.py --size 12x12 --repeats 3
    python3 scripts/thread_tax.py --src ../other-checkout/src

Standard library and npmca only; ``--src`` picks the npmca sources
(default: this checkout's ``src``).
"""

import argparse
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("taped", "untaped")
SEED = 1


def parse_size(text: str) -> tuple[int, int]:
    h, sep, w = text.partition("x")
    if not sep or not h.isdigit() or not w.isdigit() or int(h) % 4 or int(w) % 4 or min(int(h), int(w)) < 12:
        raise argparse.ArgumentTypeError(f"expected HxW with sides multiples of 4, at least 12, got {text!r}")
    return int(h), int(w)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=parse_size, default=(64, 96), metavar="HxW", help="clip size (default 64x96)")
    parser.add_argument("--repeats", type=int, default=20, help="timed calls per mode and kind (default 20)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the npmca package")
    # the loop a second process runs: the work of one kind, until it is killed or orphaned
    parser.add_argument("--busy", choices=KINDS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def make_work(kind: str, size):
    """A callable doing one unit of ``kind`` work on a fixed sample."""
    from npmca import autodiff, datagen, metrics, model, ops, rng, training

    video = datagen.generate_sequence(datagen.random_scene(SEED, "default", size, frames=3), SEED)
    sample = training.make_finetune_sampler([video], max_skip=1)(rng.spawn_rng(SEED, 1))
    params = model.init_model_params(SEED)

    def taped():
        tape = autodiff.Tape()
        prob = model.forward_single_object(params, sample.first_masked, sample.prev_masked, sample.cur_rgb,
                                           sample.guidance, tape=tape)
        tape.param_gradients(ops.scale(metrics.iou_loss(prob, sample.target), 0.25))

    def untaped():
        model.forward_single_object(params, sample.first_masked, sample.prev_masked, sample.cur_rgb, sample.guidance)

    work = taped if kind == "taped" else untaped
    work()  # first call: caches and allocator warm-up, not timed
    return work


def timed(work, repeats: int) -> tuple[float, float]:
    """Median milliseconds of ``repeats`` calls, and the minor page faults
    of this thread per call: freed memory that the allocator handed back
    to the system and the next call faults in again shows here."""
    times = []
    faults = _faults()
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times), (_faults() - faults) / repeats


def _faults() -> int:
    return resource.getrusage(getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)).ru_minflt


def with_thread(kind: str, args, work) -> tuple[float, float]:
    """``work``'s median while a second thread loops over its own copy."""
    ready, stop = threading.Event(), threading.Event()
    errors = []

    def loop():
        try:
            other = make_work(kind, args.size)
            ready.set()
            while not stop.is_set():
                other()
        except Exception as exc:  # raised again on the calling thread
            errors.append(exc)
            ready.set()

    thread = threading.Thread(target=loop, name="thread-tax-busy")
    thread.start()
    try:
        ready.wait()
        if errors:
            raise errors[0]
        return timed(work, args.repeats)
    finally:
        stop.set()
        thread.join()


def with_process(kind: str, args, work) -> tuple[float, float]:
    """``work``'s median while a second process loops over the same work."""
    command = [sys.executable, os.path.abspath(__file__), "--busy", kind, "--size", "%dx%d" % args.size,
               "--src", args.src]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        if child.stdout.readline().strip() != "ready":
            raise SystemExit(f"thread_tax: the second process exited with {child.wait()} before it was ready")
        return timed(work, args.repeats)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.busy:
        parent = os.getppid()
        work = make_work(args.busy, args.size)
        print("ready", flush=True)
        while os.getppid() == parent:  # an orphan stops by itself: its parent could not kill it
            work()
        return 0
    print("%dx%d, median ms of %d calls (minor page faults per call): alone, with a second thread, "
          "with a second process" % (*args.size, args.repeats))
    for kind in KINDS:
        work = make_work(kind, args.size)
        modes = {"alone": timed(work, args.repeats), "thread": with_thread(kind, args, work),
                 "process": with_process(kind, args, work)}
        print(f"{kind:8s}" + "".join(f"  {mode} {ms:.3f} ({faults:.0f})" for mode, (ms, faults) in modes.items()),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
