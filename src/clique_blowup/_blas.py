"""BLAS thread count of a command-line process, chosen by matrix order.

The command line loads numpy with one BLAS thread (``cli`` sets the count
before numpy loads). The twin quotients and grounded minors most commands
factor are small, and on them a second thread only burns CPU time. A
twin-free input keeps its quotient at full order, and there more threads
do pay: two threads take 0.64x the one-thread wall time of eigvalsh at
order 800 and 0.77x of the Cholesky inverse, 0.66x and 0.68x at order 2000
(a 2-vCPU x86-64 host, one process per count; at order 400 the ratios are
1.06x and 0.86x). So ``threads_for(order)`` runs a factorization of order
``PARALLEL_ORDER`` or more on every core the process may use, through
OpenBLAS's own ``openblas_set_num_threads``, and returns to one thread
afterwards.

Only after ``enable()`` does it change anything: the command line calls it
when it set the one-thread count itself, never when the user set a count,
so library code keeps numpy's default. Where the OpenBLAS numpy loaded
cannot be found (numpy built against another BLAS), the count stays one.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

PARALLEL_ORDER = 800

# the set-count entry points of numpy's bundled OpenBLAS, then a plain build
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

_set_threads = None  # OpenBLAS's setter, once enable() found it
_cores = 1


def enable() -> None:
    """Let threads_for raise the count of the OpenBLAS numpy has loaded."""
    global _set_threads, _cores
    import numpy

    rtld_noload = getattr(os, "RTLD_NOLOAD", None)
    if rtld_noload is None:
        return
    root = os.path.dirname(numpy.__file__)
    # where the numpy wheels keep their OpenBLAS (Linux, then macOS)
    for path in (glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                 + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:  # RTLD_NOLOAD: the copy numpy loaded, never a second one
            lib = ctypes.CDLL(os.path.normpath(path), mode=rtld_noload)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _SETTERS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            _set_threads = setter
            if hasattr(os, "sched_getaffinity"):
                _cores = len(os.sched_getaffinity(0))
            else:
                _cores = os.cpu_count() or 1
            # forked workers (verify --jobs) share the cores: one thread each
            os.register_at_fork(after_in_child=_disable)
            return


def _disable() -> None:
    global _set_threads
    _set_threads = None


@contextmanager
def threads_for(order: int):
    """Run the block on every core if the matrix has order PARALLEL_ORDER or more."""
    if _set_threads is None or _cores < 2 or order < PARALLEL_ORDER:
        yield
        return
    _set_threads(_cores)
    try:
        yield
    finally:
        _set_threads(1)
