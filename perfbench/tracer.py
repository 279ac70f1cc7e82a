"""In-memory span tracer installed from outside the traced program.

A span is one call: its name, start and end on one clock, and the index of
the span that was open when it began (its parent). Spans are appended to a
list while the run goes and written out once, when it ends. Self time is a
span's duration minus the part of it that its child spans cover.

The tracer only patches module attributes; the program under test is not
edited. Uninstalling restores every attribute it replaced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        self.spans[index][END] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager recording one span."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, observe=None):
        """Return fn recording a span per call; observe(args, kwargs) runs first."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    def patch(self, owner, attr: str, value) -> None:
        """Set owner.attr to value, remembering the original for uninstall()."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s and self_s.

        busy_s counts a span only when no ancestor has the same name, so a
        function that re-enters itself is not counted twice.
        """
        spans = self.spans
        if self._stack:
            raise RuntimeError("summary() with spans still open")
        selfs = self_times(spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, span in enumerate(spans):
            rec = out[span[NAME]]
            rec["calls"] += 1
            rec["self_s"] += selfs[i]
            if not _has_ancestor_named(spans, i, span[NAME]):
                rec["busy_s"] += span[END] - span[START]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip) with its self time."""
        selfs = self_times(self.spans)
        with gzip.open(path, "wt") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "self": selfs[i]}
                    )
                    + "\n"
                )


def _has_ancestor_named(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(children.get(i, ()))
        for i, span in enumerate(spans)
    ]
