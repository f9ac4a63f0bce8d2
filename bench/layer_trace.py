"""Span tracing of mapgvar's public functions, from outside the package.

A ``Tracer`` replaces each traced function in every ``mapgvar`` module
namespace that holds it, so intra-module calls (which resolve through module
globals) and cross-module imports are both caught under the name their
callers use. While ``active`` is false the wrappers pass straight through, so
checks the benchmark runs between operations are not recorded.

Each wrapper records one span (name, start, end, parent) and a call count.
Spans stay in memory until ``save`` writes them out. Self time is a span's
duration minus the durations of its direct children; execution is single
threaded, so children never overlap and that difference is exact.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0  # outermost spans of this name only, so recursion is not counted twice
    self_s: float = 0.0
    work: float = 0.0  # bytes or steps, per the target's work function


@dataclass
class Tracer:
    """Install with ``install()``; set ``active`` around the calls to record."""

    targets: tuple  # (module, function, work_fn or None); work_fn(bound_arguments, result) -> float
    active: bool = False
    names: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # [name_id, start, end, parent_index]
    root_child_s: float = 0.0  # time below each outermost span, summed
    _stack: list = field(default_factory=list)  # [span_index, child_seconds]
    _depth: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mapgvar" or name.startswith("mapgvar."))
        ]
        for module_name, func_name, work in self.targets:
            original = getattr(sys.modules[f"mapgvar.{module_name}"], func_name)
            nid = len(self.names)
            self.names.append(f"{module_name}.{func_name}")
            self.stats.append(LayerStats())
            self._depth.append(0)
            wrapper = self._wrap(nid, original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, nid, fn, work):
        stats = self.stats[nid]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            self._depth[nid] += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._stack.pop()
                self._depth[nid] -= 1
                duration = end - start
                self.spans[index] = (nid, start, end, parent)
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if self._depth[nid] == 0:
                    stats.busy_s += duration
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.root_child_s += frame[1]
            if work is not None:
                stats.work += work(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def layer(self, name: str) -> LayerStats:
        return self.stats[self.names.index(name)]

    def save(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for nid, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent]) + "\n")
