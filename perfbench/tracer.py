"""Outside-in span tracer: wraps attributes of already-imported modules.

The program under test is not edited. Every wrapped callable records one
span (name, start, end, parent) per call into in-memory lists; spans are
written out only after the traced run. `restore` puts every patched
attribute back, and `unrestored` proves it did.
"""
from __future__ import annotations

import csv
import functools
import inspect
import time
from collections.abc import Callable, Iterable
from pathlib import Path
from types import ModuleType

Probe = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        """Return a wrapper of `fn` that records a span named `name` per call.

        `probe(args, kwargs, result)` runs after a call returns, outside
        the span, to count outcomes that are only visible in the result.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, name: str, probe: Probe | None = None) -> Callable:
        """Replace `owner.attr` (a module or class attribute) by a traced wrapper."""
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, probe)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return wrapper

    def patch_module_functions(self, layers: dict[str, ModuleType], rebinders: Iterable[ModuleType],
                               skip: frozenset[str] = frozenset(),
                               probes: dict[str, Probe] | None = None) -> None:
        """Wrap every public function defined in each layer module.

        Names re-bound elsewhere by `from .x import y` hold the original
        object, so every module in `rebinders` is scanned and each such
        binding is pointed at the same wrapper.
        """
        probes = probes or {}
        rebinders = list(rebinders)
        for layer, module in layers.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in skip:
                    continue
                wrapper = self.patch(module, attr, name, probes.get(name))
                for other in rebinders:
                    for other_attr, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, other_attr, wrapper)
                            self._patches.append((other, other_attr, obj))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if vars(owner).get(attr) is not original]

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write_spans(self, path: Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            t0 = self.starts[0] if self.starts else 0.0
            for index, (name, start, end, parent) in enumerate(self.spans()):
                writer.writerow([index, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent])


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Spans must be listed in start order (the order `Tracer` records them),
    so each parent's children arrive sorted by start and their union can be
    accumulated in one pass, clipped to the parent's interval.
    """
    covered = [0.0] * len(spans)
    reach = [-float("inf")] * len(spans)
    for _, start, end, parent in spans:
        if parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        lo = max(start, p_start, reach[parent])
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
        reach[parent] = max(reach[parent], hi)
    return [(end - start) - cov for (_, start, end, _), cov in zip(spans, covered)]


def time_inside(spans: list[tuple[str, float, float, int]], names: frozenset[str]) -> float:
    """Seconds spent inside spans named in `names`, nested ones counted once."""
    inside: list[bool] = []
    total = 0.0
    for name, start, end, parent in spans:
        outer = parent >= 0 and inside[parent]
        inside.append(outer or name in names)
        if name in names and not outer:
            total += end - start
    return total


def aggregate(spans: list[tuple[str, float, float, int]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    return table
