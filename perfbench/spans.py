"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent)``.  Spans are appended to flat lists
while the run executes and analysed only when it ends, so recording costs two
clock reads and a few list appends.  The first component of a span name is
its layer (``nn.matmul`` belongs to ``nn``); a span without a parent is a
*phase* (``fit``, ``score``, ``serve``, ...), and every span below it belongs
to that phase.

Self time is a span's duration minus the part of its interval that its
children cover.  Children are clipped to the parent and overlapping children
are merged first, so two children running at the same time are not
subtracted twice.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "covered_length", "SpanTable"]


def covered_length(lo: float, hi: float,
                   intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


class Tracer:
    """Record nested spans and per-phase counters against ``clock``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        self._stack: List[int] = []
        self._phase = ""
        self.in_leaf = False  # set while an nn op span is open (ops are leaves)

    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span under the innermost open span; returns its id."""
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(sid)
        self.starts.append(self.clock())
        return sid

    def end(self, sid: int) -> None:
        """Close span ``sid``, which must be the innermost open span."""
        self.ends[sid] = self.clock()
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")

    def record(self, name: str, start: float, end: float,
               parent: int = -1) -> int:
        """Append an already finished span, e.g. to build overlapping spans in tests."""
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(float(start))
        self.ends.append(float(end))
        self.parents.append(parent)
        return sid

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    @contextmanager
    def phase(self, name: str) -> Iterator[int]:
        """A root span; counters recorded inside it are keyed by ``name``."""
        if self._stack:
            raise RuntimeError("phases cannot nest")
        self._phase = name
        try:
            with self.span(name) as sid:
                yield sid
        finally:
            self._phase = ""

    def count(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``key`` of the current phase."""
        self.counters[(self._phase, key)] += value

    def sample(self, key: str, value: float) -> None:
        """Record one observation of ``key`` (e.g. a wait) in the current phase."""
        self.samples[(self._phase, key)].append(value)

    # ------------------------------------------------------------------
    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.starts, self.ends, self.parents)

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        index: Dict[str, int] = {}
        rows = []
        for name, start, end, parent in zip(self.names, self.starts,
                                            self.ends, self.parents):
            rows.append([index.setdefault(name, len(index)), start, end, parent])
        with open(path, "w") as handle:
            json.dump({
                "names": list(index),
                "columns": ["name", "start", "end", "parent"],
                "spans": rows,
                "counters": [[phase, key, value] for (phase, key), value
                             in sorted(self.counters.items())],
            }, handle, separators=(",", ":"))


class SpanTable:
    """Derived views of a finished span list: phases, self times, sums."""

    def __init__(self, names: Sequence[str], starts: Sequence[float],
                 ends: Sequence[float], parents: Sequence[int]) -> None:
        self.names = list(names)
        self.starts = list(starts)
        self.ends = list(ends)
        self.parents = list(parents)
        n = len(self.names)
        if any(math.isnan(end) for end in self.ends):
            raise ValueError("span table has unfinished spans")
        children: Dict[int, List[int]] = defaultdict(list)
        self.root: List[int] = [0] * n
        for sid in range(n):
            parent = self.parents[sid]
            if parent < 0:
                self.root[sid] = sid
            else:
                if parent >= sid:
                    raise ValueError("a span's parent must be recorded first")
                children[parent].append(sid)
                self.root[sid] = self.root[parent]
        self.duration = [self.ends[i] - self.starts[i] for i in range(n)]
        self.self_time = [
            self.duration[i] - covered_length(
                self.starts[i], self.ends[i],
                [(self.starts[c], self.ends[c]) for c in children.get(i, ())])
            for i in range(n)
        ]

    def phase_of(self, sid: int) -> str:
        return self.names[self.root[sid]]

    def phases(self) -> Dict[str, float]:
        """Wall time of every phase (summed when a phase name repeats)."""
        walls: Dict[str, float] = defaultdict(float)
        for sid, parent in enumerate(self.parents):
            if parent < 0:
                walls[self.names[sid]] += self.duration[sid]
        return dict(walls)

    def aggregate(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """``(phase, span name) -> {"calls", "total_s", "self_s"}`` over non-root spans."""
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for sid, parent in enumerate(self.parents):
            if parent < 0:
                continue
            key = (self.phase_of(sid), self.names[sid])
            entry = out.setdefault(key, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += self.duration[sid]
            entry["self_s"] += self.self_time[sid]
        return out

    def layer_self(self) -> Dict[str, Dict[str, float]]:
        """``phase -> {layer: self seconds}`` over non-root spans."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, parent in enumerate(self.parents):
            if parent < 0:
                continue
            layer = self.names[sid].split(".", 1)[0]
            out[self.phase_of(sid)][layer] += self.self_time[sid]
        return {phase: dict(layers) for phase, layers in out.items()}

    def count_under(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(1 for sid, parent in enumerate(self.parents)
                   if parent >= 0 and self.names[sid] == name
                   and self.names[parent] == parent_name)

    def coverage(self, phase: str) -> Optional[float]:
        """Sum of layer self times in ``phase`` over its wall time.

        1.0 means the layers account for the whole phase; below 1 part of
        the phase ran outside every traced layer, above 1 spans overlapped.
        ``None`` when the phase did not run.
        """
        wall = self.phases().get(phase)
        if not wall:
            return None
        return sum(self.layer_self().get(phase, {}).values()) / wall
