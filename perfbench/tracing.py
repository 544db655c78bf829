"""In-memory span tracing around qdock's public functions.

`Tracer.install` replaces every public function of the package (the names
in `qdock.__all__`) by a timing wrapper, in every qdock module namespace
that refers to it. That is where callers look functions up: the harness
through the package, `dock` through `qdock.dockeval`, `build_full` through
`qdock.qubo`, and so on. So a span is recorded at each layer boundary the
program crosses, without touching the program's code. The layer of a span
is the module that defines the function.

Spans hold (name, layer, start, end, parent, counts) and stay in memory
until `write` dumps them. All wrapped calls must happen on the thread that
runs the pass; qdock's worker threads only run private helpers, which are
not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Work counts recorded per call: function name -> (arguments, result) -> {count: n}.
COUNTERS = {
    "simulated_anneal": lambda a, r: {
        "proposals": a["problem"].n_vars * a["sched"].n_reads * a["sched"].n_sweeps
    },
    "brute_force": lambda a, r: {"states": 2 ** a["problem"].n_vars},
    "build_grid_graph": lambda a, r: {
        "point_atom_pairs": len(a["complex_input"].grid_points) * len(a["complex_input"].protein)
    },
    "build_ligand_graph": lambda a, r: {"edges": len(r.edges)},
    "build_full": lambda a, r: {"entries": len(r.coeffs)},
    "greedy_tune": lambda a, r: {"evals": len(r.trace)},
    "export_qubo": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts", "children_s")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, layer, time.perf_counter(), parent)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += record.duration

    def wrap(self, fn, layer: str):
        counter = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(f"{layer}.{fn.__name__}", layer) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts = counter(_bound(fn, args, kwargs), result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap each public function of `package` wherever a qdock module names it."""
        wrappers = {}
        for name in package.__all__:
            fn = getattr(package, name)
            if inspect.isfunction(fn):
                wrappers[id(fn)] = (fn, self.wrap(fn, fn.__module__.rsplit(".", 1)[-1]))
        prefix = package.__name__
        for module_name, module in list(sys.modules.items()):
            if module_name != prefix and not module_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def descends_from(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def totals(self) -> dict:
        """Per span name: calls, total duration, self time and summed counts;
        per layer: self time."""
        by_name = defaultdict(
            lambda: {"calls": 0, "duration_s": 0.0, "self_s": 0.0, "counts": defaultdict(int)}
        )
        layer_self = defaultdict(float)
        for record in self.spans:
            entry = by_name[record.name]
            entry["calls"] += 1
            entry["duration_s"] += record.duration
            entry["self_s"] += record.self_s
            for key, value in record.counts.items():
                entry["counts"][key] += value
            layer_self[record.layer] += record.self_s
        return {"spans": by_name, "layers": layer_self}

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "name": s.name,
                "start": s.start - origin,
                "end": s.end - origin,
                "parent": s.parent,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
