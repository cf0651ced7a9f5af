"""Timing spans around the public functions of belldyn's layers.

`Tracer.install()` wraps every public function defined in the layer modules
and rebinds the wrapper wherever a `belldyn` module holds the original,
because `from .x import y` copies the name (`discord` is bound in
`correlations`, `scenarios`, `cli` and the package). Spans therefore nest
cli -> scenarios -> correlations / kernel / channels -> states.

A figures pass closes millions of spans, so each span is folded into a
call-path tree (path -> calls, total time, self time) as it closes; the tree
is what the benchmark writes out at the end of a run. Self time is a span's
duration minus the part of it that its child spans cover; the per-function
`self_s` metrics add up the self times of a function's same-layer callees, so
they measure time in the function's layer. A span that opens
on a worker thread with nothing open on that thread (verify's thread pool)
is a child of the span open on the installing thread at that moment; its
interval is removed from that parent's self time once, however many workers
overlap it. Each thread keeps its own tables, merged after the pass, so
counts are exact under threads.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np

PACKAGE = "belldyn"
LAYERS = ("cli", "scenarios", "correlations", "kernel", "channels", "states")


class _Frame:
    __slots__ = ("key", "child", "foreign")

    def __init__(self, key):
        self.key = key
        self.child = 0.0  # summed duration of same-thread child spans
        self.foreign = None  # (start, end) of worker-thread child spans


class _ThreadTables:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.paths: dict[tuple, list] = {}  # path -> [calls, total_s, self_s]
        self.variants: dict[tuple, int] = defaultdict(int)
        self.durations: dict[str, list] = defaultdict(list)


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    if not intervals:
        return 0.0
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans for one traced pass; install, run, uninstall, summary."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[_ThreadTables] = []
        self._lock = threading.Lock()
        self._owner: _ThreadTables | None = None
        self._restore: list[tuple] = []

    def _thread_tables(self) -> _ThreadTables:
        tables = _ThreadTables()
        self._local.tables = tables
        with self._lock:
            self._tables.append(tables)
        return tables

    def _wrap(self, name: str, fn):
        local = self._local
        perf = time.perf_counter
        # decay_factor's calls are also counted by argument kind, and the
        # brute-force search keeps each duration for its percentiles
        variants = name == "kernel.decay_factor"
        keep = name == "correlations.classical_correlation_bruteforce"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                tables = local.tables
            except AttributeError:
                tables = tracer._thread_tables()
            stack = tables.stack
            adopted = None
            if stack:
                key = stack[-1].key + (name,)
            else:
                owner = tracer._owner
                if owner is not tables and owner is not None and owner.stack:
                    adopted = owner.stack[-1]
                key = (adopted.key if adopted else ()) + (name,)
            if variants:
                t = args[1] if len(args) > 1 else kwargs["t"]
                tables.variants[name, "scalar" if np.ndim(t) == 0 else "array"] += 1
            frame = _Frame(key)
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                own = duration - frame.child - _covered(frame.foreign, start, end)
                row = tables.paths.get(key)
                if row is None:
                    row = tables.paths[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += own
                if keep:
                    tables.durations[name].append(duration)
                if stack:
                    stack[-1].child += duration
                elif adopted is not None:
                    with tracer._lock:
                        if adopted.foreign is None:
                            adopted.foreign = []
                        adopted.foreign.append((start, end))

        return traced

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(prefix)
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._owner = self._thread_tables()

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> "TraceSummary":
        paths: dict[tuple, list] = {}
        variants: dict[tuple, int] = defaultdict(int)
        durations: dict[str, list] = defaultdict(list)
        for tables in self._tables:
            for key, (calls, total, own) in tables.paths.items():
                row = paths.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
            for key, n in tables.variants.items():
                variants[key] += n
            for name, values in tables.durations.items():
                durations[name].extend(values)
        return TraceSummary(paths, dict(variants), dict(durations))


class TraceSummary:
    """Merged call-path tree of one traced pass."""

    def __init__(self, paths, variants, durations):
        self.paths = paths
        self.variants = variants
        self.durations = durations

    def calls(self, name: str) -> int:
        return sum(row[0] for key, row in self.paths.items() if key[-1] == name)

    def self_s(self, name: str) -> float:
        """Time spent in `name`'s own layer: its spans' duration minus the
        spans of other layers below them. Same-layer callees (`discord` ->
        `mutual_information`, `cli.main` -> `cli.cmd_figure`) count as part of
        it, so `cli.main.self_s` is all of the CLI's own work."""
        layer = _layer(name)
        total = 0.0
        for key, row in self.paths.items():
            if _layer(key[-1]) != layer:
                continue
            start = len(key) - 1
            while start > 0 and _layer(key[start - 1]) == layer:
                start -= 1
            if name in key[start:]:
                total += row[2]
        return total

    def total_s(self, name: str) -> float:
        """Time inside the outermost spans of `name` (recursion counted once)."""
        return sum(row[1] for key, row in self.paths.items()
                   if key[-1] == name and name not in key[:-1])

    def calls_under(self, name: str, ancestor: str) -> int:
        return sum(row[0] for key, row in self.paths.items()
                   if key[-1] == name and ancestor in key[:-1])

    def layer_self_s(self, layer: str) -> float:
        return sum(row[2] for key, row in self.paths.items() if _layer(key[-1]) == layer)

    def root_total_s(self) -> float:
        return sum(row[1] for key, row in self.paths.items() if len(key) == 1)

    def self_total_s(self) -> float:
        return sum(row[2] for row in self.paths.values())

    def to_json(self) -> dict:
        return {
            "paths": {
                ">".join(key): {"calls": c, "total_s": t, "self_s": s}
                for key, (c, t, s) in sorted(self.paths.items())
            },
            "variants": {f"{n}:{v}": c for (n, v), c in sorted(self.variants.items())},
        }
