"""Span tracer for the benchmark: wraps chunksc's public functions from outside.

Each traced function is replaced, in every ``chunksc`` module that binds it,
by a wrapper that records one span per call (name, start, end, parent) and
updates a few work counters at the call boundary. Nothing under ``src/`` is
edited; the wrappers are installed at run time and removed by ``uninstall``.

A layer's self time is the time of its spans minus the time of the traced
spans directly below them, so the self times of all spans under a root plus
the root's own (untraced) remainder add up to the root span exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import warnings

import numpy as np

PACKAGE = "chunksc"

# Public functions traced per layer; a layer is one module of src/chunksc/.
TRACED = {
    "synth": ("make_corpus",),
    "wav_io": ("read_wav",),
    "signal_core": ("make_chunks", "is_active"),
    "metrics": ("sc_statistics", "chunkwise_sisdri", "si_sdr", "si_sdr_improvement"),
    "losses": ("loss_sisdr", "loss_scale_sisdr", "loss_weight_sisdr"),
    "extractor": (
        "forward",
        "backward",
        "evaluate_loss",
        "evaluate_corpus",
        "train",
        "save_checkpoint",
    ),
    "cli": ("main",),
}

ROOT = "root"


# Work counters taken at a call boundary: span name -> (argument names read,
# counter names, function(arguments, result) -> increments in that order).
COUNTERS = {
    "synth.make_corpus": ((), ("synth.examples",), lambda a, r: (len(r),)),
    "wav_io.read_wav": (
        ("path",),
        ("wav_io.read_bytes",),
        lambda a, r: (os.path.getsize(a["path"]),),
    ),
    "signal_core.make_chunks": ((), ("signal_core.chunks_made",), lambda a, r: (len(r),)),
    "metrics.sc_statistics": (
        ("chunks",),
        ("metrics.chunks_scored", "metrics.chunks_valid", "metrics.degenerate_utts"),
        lambda a, r: (len(a["chunks"]), r.n_valid, int(r.degenerate)),
    ),
    "extractor.save_checkpoint": (
        ("path",),
        ("extractor.checkpoint_bytes",),
        lambda a, r: (os.path.getsize(a["path"]),),
    ),
}


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def counter_names() -> list[str]:
    return [name for _, names, _ in COUNTERS.values() for name in names]


class Tracer:
    """Records spans in memory; ``summary`` turns them into per-name totals."""

    def __init__(self, traced: dict[str, tuple[str, ...]] = TRACED):
        self.traced = traced
        self.names = [ROOT] + [f"{m}.{f}" for m, fns in traced.items() for f in fns]
        self._index = {name: i for i, name in enumerate(self.names)}
        # One row per span: name index, start, end, parent span (-1: none).
        self._name = []
        self._start = []
        self._end = []
        self._parent = []
        self._stack = []
        self.failed = np.zeros(len(self.names), dtype=np.int64)
        self.counters = dict.fromkeys(counter_names(), 0)
        self.warnings = []
        self._patched = []  # (module, attribute, original)

    def _warn(self, message: str):
        self.warnings.append(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    def _open(self, name_idx: int) -> int:
        idx = len(self._name)
        self._name.append(name_idx)
        self._start.append(0.0)
        self._end.append(0.0)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def root(self):
        """Span that encloses a measured phase; its self time is untraced work."""
        idx = self._open(self._index[ROOT])
        self._start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        name_idx = self._index[name]
        counter = self._counter_for(name, fn)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[name_idx] += 1
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._start[idx] = start
                tracer._end[idx] = end
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return wrapper

    def _counter_for(self, name: str, fn):
        spec = COUNTERS.get(name)
        if spec is None:
            return None
        needed, outputs, count = spec
        params = list(inspect.signature(fn).parameters)
        missing = [p for p in needed if p not in params]
        if missing:
            self._warn(f"{name}: no parameter {missing}; its counters stay 0")
            return None
        positions = {p: params.index(p) for p in needed}
        broken = []

        def counter(args, kwargs, result):
            if broken:
                return
            chosen = {
                p: (args[i] if i < len(args) else kwargs[p]) for p, i in positions.items()
            }
            try:
                increments = count(chosen, result)
            except Exception as exc:  # a refactor changed the result's shape
                broken.append(exc)
                self._warn(f"{name}: counter failed ({exc!r}); its counters stop")
                return
            for key, value in zip(outputs, increments):
                self.counters[key] += value

        return counter

    def install(self) -> "Tracer":
        """Wrap every binding of every traced function in every chunksc module."""
        modules = {}
        for layer in self.traced:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self._warn(f"module {PACKAGE}.{layer} not found; its layer reports 0 calls")
        package_modules = self.package_modules()
        for layer, module in modules.items():
            for fn_name in self.traced[layer]:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self._warn(f"{layer}.{fn_name} not found; it reports 0 calls")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in package_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def package_modules(self):
        prefix = PACKAGE + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(prefix))
        ]

    def spans(self):
        """Spans as arrays: name index, start, end, parent index."""
        return (
            np.asarray(self._name, dtype=np.int64),
            np.asarray(self._start, dtype=np.float64),
            np.asarray(self._end, dtype=np.float64),
            np.asarray(self._parent, dtype=np.int64),
        )

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct child spans."""
        _, start, end, parent = self.spans()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        return duration - child_time

    def summary(self) -> dict:
        """Per traced name: calls, self time and failed calls; plus counters and root time."""
        names, start, end, _ = self.spans()
        own = self.self_times()
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        is_root = names == self._index[ROOT]
        out = {
            "spans": {
                name: {
                    "calls": int(calls[i]),
                    "self_s": float(self_s[i]),
                    "failed": int(self.failed[i]),
                }
                for i, name in enumerate(self.names)
                if name != ROOT
            },
            "counters": dict(self.counters),
            "root_s": float((end - start)[is_root].sum()),
            "untraced_s": float(own[is_root].sum()),
            "warnings": list(self.warnings),
        }
        return out

    def write_spans(self, path: str):
        """Write every span as CSV: name, start, end, parent."""
        names, start, end, parent = self.spans()
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(names.size):
                fh.write(
                    f"{i},{self.names[names[i]]},{start[i]:.9f},{end[i]:.9f},{parent[i]}\n"
                )


def merge_summaries(parts: list[dict]) -> dict:
    """Add up summaries taken in several processes (calls, times, counters)."""
    merged = {"spans": {}, "counters": {}, "root_s": 0.0, "untraced_s": 0.0, "warnings": []}
    for part in parts:
        for name, stats in part["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
            for key, value in stats.items():
                into[key] += value
        for name, value in part["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["root_s"] += part["root_s"]
        merged["untraced_s"] += part["untraced_s"]
        merged["warnings"] += [w for w in part["warnings"] if w not in merged["warnings"]]
    return merged
