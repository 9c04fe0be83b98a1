"""Process-wide OpenBLAS thread count, set through ctypes.

The main-equation systems are 2K x 2K with K of a few dozen; on matrices this
small a second OpenBLAS thread costs more in hand-off than it saves, and the
LU factorisation and the 1-norm condition estimate run several times faster
on one thread.  single_thread() pins every OpenBLAS library loaded into the
process (NumPy's and SciPy's are separate copies) to one thread and restores
each previous count on exit.  The libraries are found through
/proc/self/maps at first use; where none is found (another BLAS, no procfs)
it does nothing.
"""
from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager


@functools.cache
def openblas_handles() -> tuple:
    """(get_num_threads, set_num_threads) of every loaded OpenBLAS library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "/" in line}
    except OSError:
        return ()
    handles = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_", "openblas{}"):
            get = getattr(lib, name.format("_get_num_threads"), None)
            put = getattr(lib, name.format("_set_num_threads"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                handles.append((get, put))
                break
    return tuple(handles)


@contextmanager
def single_thread():
    """Run the body with every loaded OpenBLAS on one thread.

    The setting is process-wide: other threads calling BLAS meanwhile run
    single-threaded too."""
    handles = openblas_handles()
    before = [get() for get, _ in handles]
    try:
        for _, put in handles:
            put(1)
        yield
    finally:
        for (_, put), n in zip(handles, before):
            put(n)
