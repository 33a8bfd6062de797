"""The benchmark's own span recorder.

Spans are ``(name, start_ns, end_ns, parent, op_id)`` rows kept in
memory and written as JSON lines when the run ends; a span's id is its
row index.  Nothing under ``src/`` is instrumented: the harness opens
an ``op`` span around each client-visible call and, for a sampled op,
*replays* the same statement through each lower layer's public entry
point under child spans.

A child is therefore one of two things, told apart by its interval:

* **nested** — it overlaps its parent (the harness made the inner call
  from inside the outer span); it covers the part of the parent's
  interval it overlaps;
* **replayed** — it lies outside its parent (the layer was called on
  its own, before or after, with the statement the parent ran); it
  covers its whole duration.

A span's self time is its duration minus what its children cover,
floored at zero.  Replayed children can cover more than their parent
lasted — separately measured layers adding up to more than the call
that contains them — which is what the budget check bounds.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "self_times"]

Row = Tuple[str, int, int, Optional[int], Optional[int]]


class _Open:
    """Handle of a span being timed; ``id`` parents its children."""

    __slots__ = ("tracer", "id", "name", "parent", "op_id", "start")

    def __init__(self, tracer, name, parent, op_id):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.op_id = op_id

    def __enter__(self) -> "_Open":
        rows = self.tracer.rows
        self.id = len(rows)
        rows.append(None)  # reserve the id so children can name it
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        self.tracer.rows[self.id] = (
            self.name, self.start, end, self.parent, self.op_id
        )


class Tracer:
    """In-memory span list."""

    def __init__(self) -> None:
        self.rows: List[Optional[Row]] = []

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: Optional[int] = None,
        op_id: Optional[int] = None,
    ) -> int:
        """Record an already-timed span; returns its id."""
        self.rows.append((name, start_ns, end_ns, parent, op_id))
        return len(self.rows) - 1

    def span(
        self,
        name: str,
        parent: Optional[int] = None,
        op_id: Optional[int] = None,
    ) -> _Open:
        """Time a ``with`` block as one span."""
        return _Open(self, name, parent, op_id)

    def duration(self, span_id: int) -> int:
        """Nanoseconds the finished span ``span_id`` lasted."""
        _name, start, end, _parent, _op = self.rows[span_id]
        return end - start

    def extend(self, other: "Tracer") -> None:
        """Append another tracer's spans (one per client thread, so no
        two threads ever share a row list), re-basing their ids."""
        base = len(self.rows)
        for name, start, end, parent, op_id in other.rows:
            self.rows.append((
                name, start, end,
                None if parent is None else parent + base, op_id,
            ))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, row in enumerate(self.rows):
                name, start, end, parent, op_id = row
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op_id": op_id,
                }) + "\n")


def _union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_times(rows: List[Row]) -> Tuple[List[int], List[int]]:
    """Per span id: (self time ns, ns covered by its children)."""
    children: Dict[int, List[int]] = defaultdict(list)
    for span_id, row in enumerate(rows):
        if row[3] is not None:
            children[row[3]].append(span_id)
    self_ns: List[int] = []
    covered_ns: List[int] = []
    for span_id, (_name, start, end, _parent, _op) in enumerate(rows):
        nested: List[Tuple[int, int]] = []
        replayed = 0
        for child in children.get(span_id, ()):
            _n, c_start, c_end, _p, _o = rows[child]
            if c_end <= start or c_start >= end:
                replayed += c_end - c_start
            else:
                nested.append((max(c_start, start), min(c_end, end)))
        covered = _union_length(nested) + replayed
        duration = end - start
        self_ns.append(max(0, duration - covered))
        covered_ns.append(covered)
    return self_ns, covered_ns
