"""One BLAS thread for every run, set when the package is imported.

OpenBLAS splits a large product between its threads, and how it splits
changes the order of the float sums, so checkpoints and probability
stacks would depend on the host's BLAS thread count. With one BLAS
thread they do not, and the package runs independent passes on threads
of its own instead (``workers``): a training batch's samples, and each
object's scale passes at inference. numpy's wheel ships OpenBLAS under
``numpy.libs/``, already loaded by the time this module runs; opening it
again with ``ctypes`` returns the loaded library, whose thread-count
setter still takes effect. Where no setter is found (numpy on MKL,
Accelerate or a system BLAS), BLAS keeps its own thread count and
``PINNED`` is false.

``CORE`` names the kernel set the same library picked for this CPU:
numpy's OpenBLAS is built with ``DYNAMIC_ARCH``, which picks one per CPU
model, and rounding can differ between kernel sets.
"""

import ctypes
import glob
import os

import numpy as np

# the names numpy's OpenBLAS builds have exported the setter and the
# core-name getter under
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")
_CORE_NAMES = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


def _openblas_libraries() -> list[str]:
    """The OpenBLAS files numpy's wheel ships next to the numpy package."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    return sorted(glob.glob(os.path.join(libs, "*openblas*")))


def _exported(names: tuple[str, ...]):
    """The first function exported under one of ``names`` by a library
    of ``_openblas_libraries``, or None."""
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            function = getattr(lib, name, None)
            if function is not None:
                return function
    return None


def pin_one_thread() -> bool:
    """Set numpy's OpenBLAS to one thread; whether a setter was found."""
    setter = _exported(_SETTERS)
    if setter is None:
        return False
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)
    return True


def core_name() -> str | None:
    """The kernel set numpy's OpenBLAS picked for this CPU, such as
    "SkylakeX" or "Haswell"; None where no getter is found."""
    getter = _exported(_CORE_NAMES)
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_char_p
    return getter().decode()


PINNED = pin_one_thread()
CORE = core_name()


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
