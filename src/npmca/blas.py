"""One BLAS thread for every run, set when the package is imported.

OpenBLAS splits a large product between its threads, and how it splits
changes the order of the float sums, so checkpoints and probability
stacks would depend on the host's BLAS thread count. With one BLAS
thread they do not, and the package runs independent work on threads of
its own instead (``workers``): a training batch's samples, and at
inference a frame's (object, scale) passes, its frame-0 encodes and a
lone pass's branch pairs. numpy's wheel ships OpenBLAS under
``numpy.libs/``, already loaded by the time this module runs; opening it
again with ``ctypes`` returns the loaded library, whose thread-count
setter still takes effect. Where no setter is found (numpy on MKL,
Accelerate or a system BLAS), BLAS keeps its own thread count and
``PINNED`` is false.

numpy's OpenBLAS is built with ``DYNAMIC_ARCH``: it picks a kernel set
per CPU model, and rounding can differ between kernel sets, so bits are
reproducible on one host, not between hosts of other CPU models.
"""

import ctypes
import glob
import os

import numpy as np

# the names numpy's OpenBLAS builds have exported the setter under
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")


def _openblas_libraries() -> list[str]:
    """The OpenBLAS files numpy's wheel ships next to the numpy package."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    return sorted(glob.glob(os.path.join(libs, "*openblas*")))


def pin_one_thread() -> bool:
    """Set numpy's OpenBLAS to one thread; whether a setter was found."""
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return True
    return False


PINNED = pin_one_thread()


def workers(tasks: int) -> int:
    """Threads that ``tasks`` independent passes run on.

    One per usable CPU, up to ``tasks``, when numpy's OpenBLAS is pinned
    to one thread (``PINNED``); otherwise 1, since pass threads competing
    with BLAS's own threads for the cores were measured slower than one
    pass at a time.
    """
    if not PINNED:
        return 1
    # the CPUs this process may run on; not every platform can tell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(tasks, cpus))
