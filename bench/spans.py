"""Query timing, exact-output records and call spans for one benchmark pass.

A pass runs a workload's fixed list of queries.  A query is one top-level
public call into `skewloop` (plus the benchmark's own checks of its result);
it is opened with `Recorder.query`.  Inside it, every call into the library
goes through `Recorder.call`.  With tracing on, each call becomes a span whose
parent is the query span; spans stay in memory until the run writes them out.
With tracing off, `call` adds nothing but a Python call frame.
"""

from __future__ import annotations

import itertools
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Optional

QUERY = "query"

# span ids are unique within the process, so spans of several recorders combine
_SIDS = itertools.count(1)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    qid: str
    workload: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects query times, outputs, check failures, input-size counts and,
    when `trace` is set, call spans."""

    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.spans: list[Span] = []
        # perf_counter readings at the start and end of each query
        self.query_at: dict[str, tuple[float, float]] = {}
        self.outputs: dict[str, Any] = {}
        self.failures: dict[str, list[str]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.notes: dict[str, Any] = {}
        self._qid: Optional[str] = None
        self._qsid: Optional[int] = None

    @contextmanager
    def query(self, qid: str) -> Iterator[None]:
        """Time one query; an exception inside it marks the query failed and
        the pass goes on with the next query."""
        if qid in self.query_at:
            raise ValueError(f"duplicate query id {qid!r}")
        self._qid = qid
        self._qsid = next(_SIDS)
        start = perf_counter()
        try:
            yield
        except Exception:
            self.failures[qid].append(traceback.format_exc(limit=4).strip())
        finally:
            end = perf_counter()
            self.query_at[qid] = (start, end)
            if self.trace:
                self.spans.append(Span(self._qsid, QUERY, start, end, None, qid,
                                       self.workload))
            self._qid = self._qsid = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call `fn` as part of the open query, as a span named `name`."""
        if self._qid is None:
            raise RuntimeError(f"library call {name} outside a query")
        if not self.trace:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(next(_SIDS), name, start, perf_counter(),
                                   self._qsid, self._qid, self.workload))

    def check(self, problems: Iterable[str]) -> None:
        """Record the problems a checker found for the open query."""
        for problem in problems:
            self.failures[self._qid].append(problem)

    def output(self, value: Any) -> None:
        """Record the open query's exact output."""
        self.outputs[self._qid] = value

    def count(self, name: str, n: int) -> None:
        """Add to an exact count derived from inputs or returned objects."""
        self.counts[name] += n

    def failed_queries(self) -> set[str]:
        return {qid for qid, msgs in self.failures.items() if msgs}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span counted for its duration minus the
    part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] += s.seconds - covered
    return dict(out)


def nesting_problems(spans: list[Span]) -> list[str]:
    """Every call span lies inside its query span and shares its query id;
    query spans do not overlap, nor do the call spans of one query."""
    problems = []
    by_sid = {s.sid: s for s in spans}
    queries = sorted((s for s in spans if s.parent is None), key=lambda s: s.start)
    for s in queries:
        if s.name != QUERY:
            problems.append(f"span {s.sid} ({s.name}) has no parent")
    for a, b in zip(queries, queries[1:]):
        if b.start < a.end:
            problems.append(f"queries {a.qid} and {b.qid} overlap")
    siblings: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.sid} ends before it starts")
        if s.parent is None:
            continue
        parent = by_sid.get(s.parent)
        if parent is None or parent.name != QUERY:
            problems.append(f"span {s.sid} ({s.name}) has no query parent")
            continue
        if s.qid != parent.qid or s.workload != parent.workload:
            problems.append(f"span {s.sid} ({s.name}) is tagged {s.qid}, "
                            f"its parent {parent.qid}")
        if s.start < parent.start or s.end > parent.end:
            problems.append(f"span {s.sid} ({s.name}) leaves query {parent.qid}")
        siblings[s.parent].append(s)
    for group in siblings.values():
        group.sort(key=lambda s: s.start)
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                problems.append(f"calls {a.sid} and {b.sid} of {a.qid} overlap")
    return problems
