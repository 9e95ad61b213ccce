"""Run numpy's BLAS work on one thread, so its results do not depend on the machine."""

import ctypes
import itertools
from contextlib import contextmanager


@contextmanager
def one_blas_thread():
    """Hold every loaded OpenBLAS (numpy and scipy each load one) to one
    thread, and give each its thread count back on exit. The count changes
    the last bits of a matmul, and of a dot product of over 10,000 samples.
    Does nothing with another BLAS, or without /proc/self/maps."""
    restore = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
        for path in paths:
            lib = ctypes.CDLL(path)  # the loaded library, not a second copy
            for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
                name = f"{prefix}openblas_{{}}_num_threads{suffix}"
                if hasattr(lib, name.format("get")):
                    set_ = getattr(lib, name.format("set"))
                    restore.append((set_, getattr(lib, name.format("get"))()))
                    set_(1)
                    break
    except OSError:
        pass
    try:
        yield
    finally:
        for set_, threads in restore:
            set_(threads)
