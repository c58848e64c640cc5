"""One BLAS thread for a block of matrix products.

Shared by the estimator (``dml.fit_final_stage``) and the raw-signal
path (``signals.filtfilt``); it imports no other drivedml module, so the
raw path loads no estimator module.
"""

import ctypes
import threading
from contextlib import contextmanager

import numpy as np


def _find_blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local``, or None.

    dlsym on numpy's own extension module also searches the BLAS it
    links. The call exists from OpenBLAS 0.3.27; another BLAS, or an
    older OpenBLAS, has none.
    """
    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


_SET_BLAS_THREADS = _find_blas_thread_setter()
_BLAS_PIN_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the block's BLAS and LAPACK calls on the calling thread alone.

    The final stage of presets b and d multiplies an 820 x 36 design, just
    large enough for OpenBLAS to hand its Gram and meat products to a
    worker thread. On a 2-CPU host an idle worker takes 22-31 ms to wake
    for a product that takes 0.2-0.3 ms on one thread, and the main
    thread's numpy throughput halves for about 0.1 s after it. The one-
    thread Gram (a dsyrk) has the same bits as the threaded one; the one-
    thread meat (a dgemm) sums in one fixed order, so the standard errors
    no longer depend on ``OPENBLAS_NUM_THREADS``.

    The setter returns the previous count, which is restored on exit. In
    a pthreads OpenBLAS the count it sets is the process's, so another
    thread's BLAS work also runs on one thread while the block runs; the
    lock keeps two pinned blocks from restoring each other's counts.
    Without the setter the block runs unchanged.
    """
    if _SET_BLAS_THREADS is None:
        yield
        return
    with _BLAS_PIN_LOCK:
        previous = _SET_BLAS_THREADS(1)
        try:
            yield
        finally:
            _SET_BLAS_THREADS(previous)
