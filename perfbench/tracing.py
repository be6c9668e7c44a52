"""In-memory span tracer for the traced benchmark run.

``install`` wraps every public function of the traced coeye modules and
rebinds each reference to it inside the ``coeye`` package, so a call that
one module makes into another is recorded too. Nothing under ``src/coeye``
changes; the wrappers live only in the benchmark's process. Each pool the
program starts is replaced by an in-process executor that counts the start
and runs the tasks in order, so the whole traced run happens in one process
and every span lands in the same tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("data", "symbolic", "resample", "forest", "lenses", "ensemble", "cli")
POOL_LAYERS = ("lenses", "ensemble")
ROOT_NAME = "bench"


class Tracer:
    """Spans as [name, parent, start, end] lists, in start order; ids are list indices."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        sid = len(self.spans) - 1
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(self.counts, out)
            return out

        return traced

    def install(self) -> None:
        """Trace every public function of LAYERS and count pool starts."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"coeye.{layer}")
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    qualified = f"{layer}.{name}"
                    wrapped[id(fn)] = (fn, self.wrap(qualified, fn, _AFTER.get(qualified)))
        for modname, module in list(sys.modules.items()):
            if modname != "coeye" and not modname.startswith("coeye."):
                continue
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, name, hit[1])
        for layer in POOL_LAYERS:
            module = importlib.import_module(f"coeye.{layer}")
            self._rebind(module, "ProcessPoolExecutor", _counting_executor(self.counts, f"{layer}.pools_started"))

    def _rebind(self, module, name, value) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - origin, "end": end - origin}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.sid = tracer, name, -1

    def __enter__(self):
        self.sid = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False


def _counting_executor(counts: Counter, key: str):
    class InProcessExecutor:
        """Stands in for ProcessPoolExecutor: counts the start, runs map() in order here."""

        def __init__(self, *args, **kwargs):
            counts[key] += 1

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    return InProcessExecutor


def _after_fit_forest(counts, forest):
    counts["forest.trees_grown"] += len(forest.trees)
    counts["forest.nodes_grown"] += sum(tree.n_nodes for tree in forest.trees)


def _after_smote(counts, result):
    counts["resample.rows_added"] += sum(result[1].added_counts.values())


_AFTER = {
    "forest.fit_forest": _after_fit_forest,
    "resample.smote": _after_smote,
}


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to a plain call, measured on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)

    def best_of_three(fn) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(0.0, (best_of_three(traced) - best_of_three(noop)) / calls)


def summarize(tracer: Tracer) -> dict:
    """Inclusive time and call count per function, self time per layer.

    A function's inclusive time sums its spans that have no ancestor of the
    same name. A span's self time is its duration minus its children's.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    for sid, (name, parent, start, end) in enumerate(spans):
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time[sid]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            inclusive[name] += end - start
    return {"inclusive": inclusive, "calls": calls, "layer_self": layer_self}


def nested_in(tracer: Tracer, name: str, outer: str) -> float:
    """Inclusive time of the spans called ``name`` that run inside a span called ``outer``."""
    spans = tracer.spans
    total = 0.0
    for span_name, parent, start, end in spans:
        if span_name != name:
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != outer:
            ancestor = spans[ancestor][1]
        if ancestor >= 0:
            total += end - start
    return total
