"""Run numpy's BLAS work on one thread, so its results do not depend on the machine."""

import ctypes
import functools
import itertools
import sys
from contextlib import contextmanager


def _openblas_controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS loaded into
    this process. They are found again only after a module was imported
    (scipy loads its OpenBLAS with scipy.special), since reading
    /proc/self/maps costs a hundred times a pin. A forked process inherits
    what was found."""
    return _find_openblas(len(sys.modules))


@functools.lru_cache(maxsize=1)
def _find_openblas(_modules_loaded: int) -> tuple:
    """Empty with another BLAS, or without /proc/self/maps."""
    controls = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
        for path in paths:
            lib = ctypes.CDLL(path)  # the loaded library, not a second copy
            for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
                name = f"{prefix}openblas_{{}}_num_threads{suffix}"
                if hasattr(lib, name.format("get")):
                    get, set_ = (getattr(lib, name.format(op)) for op in ("get", "set"))
                    controls.append((get, set_))
                    break
    except OSError:
        pass
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Hold every loaded OpenBLAS (numpy and scipy each load one) to one
    thread, and give each its thread count back on exit. The count changes
    the last bits of a matmul, and of a dot product of over 10,000 samples.
    Does nothing with another BLAS, or without /proc/self/maps."""
    restore = []
    for get, set_ in _openblas_controls():
        restore.append((set_, get()))
        set_(1)
    try:
        yield
    finally:
        for set_, threads in restore:
            set_(threads)
