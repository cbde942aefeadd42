"""The command line's BLAS thread policy, and numpy's bundled OpenBLAS through ctypes.

``cli`` calls ``pin()`` before numpy loads. Unless OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS or MKL_NUM_THREADS is set, it sets all three to 1:
the twin quotients and grounded minors most commands factor are small, and
on them a second thread only burns CPU time. A twin-free input keeps its
quotient at full order, where more threads do pay: two threads take 0.64x
the one-thread wall time of eigvalsh at order 800 and 0.77x of the Cholesky
inverse, 0.66x and 0.68x at order 2000 (a 2-vCPU x86-64 host, one process
per count; at order 400 the ratios are 1.06x and 0.86x). So
``threads_for(order)`` runs a factorization of order ``PARALLEL_ORDER`` or
more on ``cores()``, every CPU the process may use, through OpenBLAS's own
``openblas_set_num_threads``, looked up at the first such factorization.
It raises only a count ``pin()`` set before numpy loaded, and only in the
process that set it: ``pin()`` records that process's pid, so a forked
worker (``verify --jobs``, whose workers ``cores()`` also caps) is told
apart by its own pid and keeps one thread. It never raises a count where
numpy's OpenBLAS cannot be found (numpy built against another BLAS).

``syevd()`` returns the same library's LAPACK ``dsyevd`` (the ILP64 build
numpy's wheels bundle), the routine ``numpy.linalg.eigvalsh`` calls, so
``spectral.eig_sym`` can solve an array in place instead of handing
eigvalsh an array it always copies first. It binds the Fortran routine,
not the ``LAPACKE_dsyevd`` wrapper: the wrapper's code lies apart from it
in the library and faulted in 192 kB more of it on the default ``verify``.
Where the symbol is missing it returns None and eig_sym calls eigvalsh.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from functools import cache

PARALLEL_ORDER = 800
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the set-count entry points of numpy's bundled OpenBLAS, then a plain build
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
# dsyevd of the ILP64 OpenBLAS in numpy's wheels (64-bit integers), which eigvalsh calls
_SYEVD = "scipy_dsyevd_64_"

_owner = None  # the pid of the process whose count pin() set before numpy loaded


def pin() -> None:
    """Run BLAS on one thread unless the user set a count: call it before numpy loads."""
    global _owner
    if THREAD_VARS & os.environ.keys():
        return
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if "numpy" not in sys.modules:
        _owner = os.getpid()


def cores() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@cache
def _openblas():
    """The ``ctypes.CDLL`` of the OpenBLAS numpy has loaded, or None where it cannot be found."""
    import ctypes
    import glob
    import numpy

    rtld_noload = getattr(os, "RTLD_NOLOAD", None)
    if rtld_noload is None:
        return None
    root = os.path.dirname(numpy.__file__)
    # where the numpy wheels keep their OpenBLAS (Linux, then macOS)
    for path in (glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                 + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:  # RTLD_NOLOAD: the copy numpy loaded, never a second one
            lib = ctypes.CDLL(os.path.normpath(path), mode=rtld_noload)
        except OSError:
            continue
        if any(hasattr(lib, name) for name in _SETTERS):
            return lib
    return None


@cache
def _setter():
    """OpenBLAS's set-count entry point, or None where numpy's OpenBLAS cannot be found."""
    import ctypes
    lib = _openblas()
    setter = lib and next(getattr(lib, name) for name in _SETTERS if hasattr(lib, name))
    if setter:
        setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


@cache
def syevd():
    """LAPACK dsyevd of that OpenBLAS as ``solve(a, w) -> info``, or None where it is missing.

    ``solve`` reads the lower triangle of the square float64 array ``a`` as
    stored column-major, destroys it, and writes the eigenvalues, ascending,
    to ``w``. Like eigvalsh it first asks dsyevd for its workspace
    (lwork = -1) and then passes what dsyevd asked for, so the blocking,
    and with it every bit, is eigvalsh's.
    """
    routine = getattr(_openblas(), _SYEVD, None)
    if routine is None:
        return None
    import ctypes
    import numpy as np

    ref, long = ctypes.byref, ctypes.POINTER(ctypes.c_int64)
    pointer, length = ctypes.c_void_p, ctypes.c_size_t
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then
    # gfortran's hidden lengths of jobz and uplo
    routine.argtypes = [ctypes.c_char_p, ctypes.c_char_p, long, pointer, long, pointer,
                        pointer, long, pointer, long, long, length, length]
    routine.restype = None

    def solve(a, w) -> int:
        order, lead = ctypes.c_int64(len(a)), ctypes.c_int64(max(1, len(a)))
        lwork, liwork, info = ctypes.c_int64(-1), ctypes.c_int64(-1), ctypes.c_int64()
        work, iwork = np.empty(1), np.empty(1, dtype=np.int64)

        def call():
            routine(b"N", b"L", ref(order), a.ctypes.data, ref(lead), w.ctypes.data,
                    work.ctypes.data, ref(lwork), iwork.ctypes.data, ref(liwork), ref(info),
                    1, 1)

        call()  # the workspace query
        lwork.value, liwork.value = int(work[0]), int(iwork[0])
        work, iwork = np.empty(lwork.value), np.empty(liwork.value, dtype=np.int64)
        call()
        return info.value

    return solve


@contextmanager
def threads_for(order: int):
    """Run the block on every core if the matrix has order PARALLEL_ORDER or more."""
    mine = _owner == os.getpid()  # False in a forked worker, whose count its parent pinned
    setter = _setter() if mine and order >= PARALLEL_ORDER and cores() > 1 else None
    if setter is None:
        yield
        return
    setter(cores())
    try:
        yield
    finally:
        setter(1)
