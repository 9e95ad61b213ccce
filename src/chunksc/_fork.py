"""Forked processes: the fine-tune children of `compare`, and the workers
that share out the examples of one call.

Fork, not spawn: a child starts with the parent's modules, settings and
data, so nothing is pickled to start it. Every child ignores SIGINT (Ctrl-C
reaches the whole process group; the parent alone handles it and ends its
children), answers over a pipe, and sends an error back with its traceback
as text. A child that cannot be forked, or that ends without an answer,
raises FineTuneLost naming it. On Linux the kernel kills a child when the
thread that forked it ends (`PR_SET_PDEATHSIG`), so a child never outlives
a killed parent; elsewhere a child ends at its next answer, which finds
the pipe closed.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import multiprocessing
import os
import signal
import traceback

import numpy as np

from ._blas import one_blas_thread
from .errors import FineTuneLost

_CONTEXT = multiprocessing.get_context("fork")
_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>
_M_TRIM_THRESHOLD, _M_TOP_PAD = -1, -2  # <malloc.h>


def worker_count() -> int:
    """Workers beside this process: one per other CPU it may run on."""
    return len(os.sched_getaffinity(0)) - 1


def shared_zeros(shape) -> np.ndarray:
    """A float64 array of zeros in memory that a process forked after it
    shares with this one: a write on either side shows on the other."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


class ChildTraceback(Exception):
    """The traceback, as text, of an error raised in a forked process."""


def answer(conn, call):
    """Send back call()'s result, or the exception it raised; the traceback
    does not pickle, so its text goes along. A closed pipe means the parent
    has ended, and nobody is left to answer."""
    try:
        reply = (True, call())
    except Exception as exc:
        reply = (False, (exc, traceback.format_exc()))
    try:
        conn.send(reply)
    except BrokenPipeError:
        pass


def _end_with(parent_pid):
    """Have the kernel kill this process when its parent ends, and end now
    if the parent has already; a no-op where prctl is missing."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is None:
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent_pid:  # it ended before prctl took effect
        os._exit(0)


def keep_freed_heap():
    """Have glibc keep up to 256 MiB of free heap in this process, and grow
    the heap by 64 MiB more than each request, where by default it hands the
    free top of the heap back to the kernel; a no-op where mallopt is missing.

    Each `backward` allocates and frees about 20 arrays just under glibc's
    128 KiB mmap threshold, so they come from the heap, and by default each
    example faults their pages in again. Setting them also freezes the mmap
    threshold where it stands; glibc would otherwise go on raising it as it
    frees larger mapped arrays. glibc has no getter, so the setting cannot
    be undone; processes forked after it inherit it.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_TOP_PAD, 64 << 20)


def _child(conn, parent_end, body, parent_pid):
    _end_with(parent_pid)
    # without the parent's end, recv sees end-of-file once the parent has ended
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    body(conn)


class Forked:
    """A forked process, called `name` in errors, that runs body(conn)."""

    def __init__(self, name: str, body):
        self.name = name
        self._conn, child_end = _CONTEXT.Pipe()
        self._process = _CONTEXT.Process(
            target=_child,
            args=(child_end, self._conn, body, os.getpid()),
            name=f"chunksc {name}",
            daemon=True,
        )
        # the parent closes its copy of the child's end, so that recv sees
        # end-of-file once the child has ended
        try:
            with child_end:
                self._process.start()
        except OSError as exc:  # e.g. EAGAIN: no process could be forked
            self._conn.close()
            raise FineTuneLost(f"could not start the {name} process: {exc}") from None

    def send(self, message):
        try:
            self._conn.send(message)
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
    """`n_workers` processes forked to share out the examples of one call
    with this one, once the `objects` they read exist.

    Fork hands each worker the `objects`: a `map` argument that is one of
    them is sent as its position, and any other argument is pickled. So a
    corpus never crosses a pipe. A worker sees the `objects` as they were
    at the fork, so what this process changes after it for the workers to
    read, and what a worker writes for this process to read, must be in
    arrays of `shared_zeros`, as train's parameters are. A worker that
    cannot be forked leaves the work to those that did start; with none,
    `map` runs everything here.
    """

    def __init__(self, n_workers: int = 0, *objects):
        self._objects = objects
        self._workers = []
        for k in range(n_workers):
            try:
                self._workers.append(Forked(f"worker {k + 1}", self._serve))
            except FineTuneLost:
                break

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
        position = {id(obj): k for k, obj in enumerate(self._objects)}
        sent = [(position[id(a)], None) if id(a) in position else (None, a) for a in args]
        for worker, block in zip(busy, blocks[1:]):
            worker.send((fn, sent, block))
        outcomes = [_outcome(fn, *args, blocks[0])]
        outcomes += [_outcome(worker.result) for worker in busy]
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    def stop(self):
        """End every worker."""
        for worker in self._workers:
            worker.stop()
        self._workers = []

    def _serve(self, conn):
        """A worker: answer each call, on one BLAS thread, reading the
        objects it was forked with."""
        with one_blas_thread():
            while True:
                try:
                    fn, sent, block = conn.recv()
                except EOFError:  # the parent has ended
                    return
                args = [arg if k is None else self._objects[k] for k, arg in sent]
                answer(conn, lambda: fn(*args, block))


def _outcome(fn, *args):
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc
