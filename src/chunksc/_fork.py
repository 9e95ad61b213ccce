"""Forked processes: the fine-tune children of `compare`, and the workers
that share out the examples of a stage that runs alone.

Fork, not spawn: a child starts with the parent's modules, settings and
data, so nothing is pickled to start it. Every child ignores SIGINT (Ctrl-C
reaches the whole process group; the parent alone handles it and ends its
children), answers over a pipe, and sends an error back with its traceback
as text. A child that cannot be forked, or that ends without an answer,
raises FineTuneLost naming it.
"""

from __future__ import annotations

import io
import math
import mmap
import multiprocessing
import os
import pickle
import signal
import traceback

import numpy as np

from ._blas import one_blas_thread
from .errors import FineTuneLost

_CONTEXT = multiprocessing.get_context("fork")


def worker_count() -> int:
    """Workers beside this process: one per other CPU it may run on."""
    return len(os.sched_getaffinity(0)) - 1


class ChildTraceback(Exception):
    """The traceback, as text, of an error raised in a forked process."""


def answer(conn, call):
    """Send back call()'s result, or the exception it raised; the traceback
    does not pickle, so its text goes along."""
    try:
        reply = (True, call())
    except Exception as exc:
        reply = (False, (exc, traceback.format_exc()))
    conn.send(reply)


def _child(conn, body):
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    body(conn)


class Forked:
    """A forked process, called `name` in errors, that runs body(conn)."""

    def __init__(self, name: str, body):
        self.name = name
        self._conn, child_end = _CONTEXT.Pipe()
        self._process = _CONTEXT.Process(
            target=_child, args=(child_end, body), name=f"chunksc {name}", daemon=True
        )
        # the parent closes its copy of the child's end, so that recv sees
        # end-of-file once the child has ended
        try:
            with child_end:
                self._process.start()
        except OSError as exc:  # e.g. EAGAIN: no process could be forked
            self._conn.close()
            raise FineTuneLost(f"could not start the {name} process: {exc}") from None

    def send(self, data: bytes):
        try:
            self._conn.send_bytes(data)
        except OSError:  # it has ended
            self._lost()

    def result(self):
        """The child's next answer, or the error it sent back, raised from its traceback."""
        try:
            ok, value = self._conn.recv()
        except (EOFError, OSError):  # OSError: it ended mid-message
            self._lost()
        if not ok:
            error, text = value
            raise error from ChildTraceback(f"in the {self.name}:\n{text}")
        return value

    def _lost(self):
        self._process.join()
        raise FineTuneLost(
            f"the {self.name} process ended with exit code {self._process.exitcode} "
            "before sending a result"
        ) from None

    def stop(self):
        self._process.terminate()  # a child that has ended is left as it is
        self._process.join()
        self._conn.close()


class Workers:
    """Processes forked to share out the examples of a stage with this one.

    They map one anonymous shared buffer of `floats` float64 values with the
    parent, and `array` hands out pieces of it. A message to a worker is
    pickled with each array in that buffer, and each object already
    `share`d, sent as a reference; so a corpus crosses the pipes once, and a
    call sends little more than its indices. A worker that cannot be forked
    leaves the work to those that did start; `Workers()` has none, and
    `map` then runs everything here.
    """

    def __init__(self, n_workers: int = 0, floats: int = 0):
        if n_workers and not floats:
            raise ValueError("workers need a shared buffer: floats must be positive")
        self._arena = mmap.mmap(-1, floats * 8) if floats else None
        self._base = np.frombuffer(self._arena, np.uint8).ctypes.data if floats else 0
        self._used = 0
        self._shared = {}  # id(obj) -> (key, obj); holding obj keeps its id unique
        self._workers = []
        for k in range(n_workers):
            try:
                self._workers.append(Forked(f"worker {k + 1}", self._serve))
            except FineTuneLost:
                break

    def array(self, shape) -> np.ndarray:
        """A float64 array of zeros, in the shared buffer when there is one."""
        if self._arena is None:
            return np.zeros(shape)
        offset, self._used = self._used, self._used + 8 * math.prod(shape)
        if self._used > len(self._arena):
            raise MemoryError(f"the shared buffer of {len(self._arena)} bytes is full")
        return np.ndarray(shape, np.float64, self._arena, offset)

    def share(self, *objects):
        """Send each object to every worker, once; later messages refer to it."""
        for obj in objects:
            if self._workers and id(obj) not in self._shared:
                data = self._dumps(("share", len(self._shared), obj))
                for worker in self._workers:
                    worker.send(data)
                self._shared[id(obj)] = (len(self._shared), obj)

    def split(self, items) -> list[list]:
        """`items` in contiguous blocks, at most one per process, this
        process's first; sizes differ by at most one, the larger first."""
        items = list(items)
        q, r = divmod(len(items), 1 + len(self._workers))
        blocks, lo = [], 0
        for k in range(1 + len(self._workers)):
            hi = lo + q + (k < r)
            blocks.append(items[lo:hi])
            lo = hi
        return blocks[:1] + [b for b in blocks[1:] if b]

    def map(self, fn, blocks, *args) -> list:
        """[fn(*args, block) for block in blocks], for blocks from `split`:
        the first block here, each other in its own worker, all at once.
        Once every worker has answered, raises the first error in block
        order."""
        busy = self._workers[: len(blocks) - 1]
        for worker, block in zip(busy, blocks[1:]):
            worker.send(self._dumps(("call", fn, (*args, block))))
        outcomes = [_outcome(fn, *args, blocks[0])]
        outcomes += [_outcome(worker.result) for worker in busy]
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    def stop(self):
        """End every worker; the shared buffer stays for the arrays in it."""
        for worker in self._workers:
            worker.stop()
        self._workers = []

    def _dumps(self, message) -> bytes:
        buf = io.BytesIO()
        _Pickler(buf, self).dump(message)
        return buf.getvalue()

    def _serve(self, conn):
        """A worker: keep what is shared, answer each call, on one BLAS thread."""
        shared = {}
        with one_blas_thread():
            while True:
                try:
                    data = conn.recv_bytes()
                except EOFError:  # the parent has ended
                    return
                message = _Unpickler(io.BytesIO(data), self._arena, shared).load()
                if message[0] == "share":
                    shared[message[1]] = message[2]
                else:
                    _, fn, args = message
                    answer(conn, lambda: fn(*args))


def _outcome(fn, *args):
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


class _Pickler(pickle.Pickler):
    def __init__(self, file, workers: Workers):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._workers = workers

    def persistent_id(self, obj):
        shared = self._workers._shared.get(id(obj))
        if shared is not None:
            return ("shared", shared[0])
        if type(obj) is np.ndarray and self._workers._arena is not None:
            offset = obj.__array_interface__["data"][0] - self._workers._base
            if 0 <= offset < len(self._workers._arena):
                return ("arena", offset, obj.shape, obj.strides)
        return None


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, arena, shared: dict):
        super().__init__(file)
        self._arena = arena
        self._shared = shared

    def persistent_load(self, pid):
        if pid[0] == "shared":
            return self._shared[pid[1]]
        _, offset, shape, strides = pid
        return np.ndarray(shape, np.float64, self._arena, offset, strides)
