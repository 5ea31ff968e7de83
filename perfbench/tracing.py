"""Traced run: spans recorded from outside the program, per-layer roll-up.

The program is never edited.  :class:`Tracer` replaces a fixed list of the
program's public functions with timing wrappers, each patched where its
caller looks the name up (a module attribute, a class attribute, or a field
of the registered ``.rpb`` format), and restores the originals afterwards.

Spans live in memory as :class:`Span` records: name (``<layer>.<what>``),
start, end, parent, request id, process id and a few counts.  Pool workers
are fork-started inside a request, so they inherit the patched functions; a
worker appends the spans it recorded to a spool file when its outermost span
(the pool task) ends, and the parent absorbs the spool after each request.

Per-layer roll-up (:func:`layer_metrics`) reports, per request:

* inclusive time of each named span (busy time, summed over processes);
* self time per layer, on the request's wall clock: a span's duration minus
  the part of it its children cover; the union of worker spans is shared out
  among the workers' innermost spans, so layer self times plus
  ``bench.unattributed_s`` add up to ``bench.request_s`` exactly.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

__all__ = ["Span", "Tracer", "LAYERS", "layer_metrics"]

#: The program's layers (its top-level modules) in report order.
LAYERS = ("cli", "trace", "core", "pipeline", "sweep", "evaluation", "analysis", "service")

#: Spans that fan work out to pool workers; worker task spans become their children.
DISPATCH_SPANS = ("pipeline.reduce", "sweep.run")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    pid: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patch list for one traced run."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request: Optional[int] = None
        #: Session name -> the client request its next command serves; the
        #: service runs commands in its own tasks, so the id travels this way.
        self.session_requests: dict[str, int] = {}
        self.calls: Counter = Counter()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _check_fork(self) -> None:
        # A fork-started pool worker inherits the parent's spans and open
        # stack; it must report only what it records itself.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []
            self.calls = Counter()

    def open(self, name: str) -> int:
        self._check_fork()
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, request=self.request, pid=self.pid)
        )
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if not self.stack and self.pid != self.main_pid:
            self._spool()
        return span

    def _spool(self) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]
        line = json.dumps({"pid": self.pid, "spans": rows, "calls": dict(self.calls)})
        with open(self.spool_dir / f"w-{self.pid}.jsonl", "a") as handle:
            handle.write(line + "\n")
        self.spans = []
        self.calls = Counter()

    def absorb_workers(self, request: int) -> None:
        """Adopt the spans pool workers spooled during ``request``."""
        dispatch = [
            i for i, s in enumerate(self.spans)
            if s.request == request and s.name in DISPATCH_SPANS and s.pid == self.main_pid
        ]
        for path in sorted(self.spool_dir.glob("w-*.jsonl")):
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                base = len(self.spans)
                for name, start, end, parent, counts in entry["spans"]:
                    if parent is None:
                        parent = next(
                            (i for i in dispatch
                             if self.spans[i].start <= start <= self.spans[i].end),
                            None,
                        )
                    else:
                        parent += base
                    self.spans.append(
                        Span(name, start, end, parent, request, entry["pid"], counts)
                    )
                self.calls.update(entry["calls"])
            path.unlink()

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable] = None,
        session: bool = False,
    ) -> Callable:
        """A wrapper recording a ``name`` span around every call of ``fn``.

        ``count(args, kwargs)`` runs before the call and returns a function
        of the result giving the span's counts.  ``session=True`` marks a
        ``ReductionSession`` method: the span joins the request that last
        addressed that session.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if session:
                tracer.request = tracer.session_requests.get(args[0].name, tracer.request)
            after = count(args, kwargs) if count is not None else None
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if after is not None:
                span.counts = after(result)
            return result

        return traced

    def patch(
        self, owner, attr: str, name: str, count: Optional[Callable] = None, session: bool = False
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, count, session))
        else:
            new = self.wrap(raw, name, count, session)
        self._set(owner, attr, new)
        self._undo.append(lambda: self._set(owner, attr, raw))

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` (no span) until :meth:`restore`."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            self._check_fork()
            self.calls[key] += 1
            return original(*args, **kwargs)

        self._set(owner, attr, counted)
        self._undo.append(lambda: self._set(owner, attr, original))

    @staticmethod
    def _set(owner, attr: str, value) -> None:
        try:
            setattr(owner, attr, value)
        except AttributeError:
            # Registered trace formats are frozen dataclasses.
            object.__setattr__(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self) -> None:
        """Patch every traced entry point of the program."""
        import repro.obs
        from repro.core.reduced import ReducedTrace
        from repro.core.reducer import TraceReducer
        from repro.core.frametrace import FrameTrace
        from repro.evaluation import filesize, runner, trends
        from repro.pipeline import engine
        from repro.service import server, session
        from repro.sweep import engine as sweep_engine
        from repro.trace.formats import trace_format
        import repro.cli as cli

        self.patch(filesize, "full_trace_bytes_from_file", "evaluation.full_bytes")
        self.patch(runner, "full_trace_bytes_from_file", "evaluation.full_bytes")
        self.patch(engine.ReductionPipeline, "reduce", "pipeline.reduce")
        self.patch(engine, "_reduce_shard_task", "pipeline.task")
        self.patch(trace_format("rpb"), "rank_frame", "trace.decode")
        self.patch(TraceReducer, "reduce_frame", "core.reduce", count=_reduce_frame_counts)
        self.patch(runner, "reconstruct", "core.reconstruct")
        self.patch(ReducedTrace, "size_bytes", "core.reduced_size")
        self.patch(cli, "write_reduced_trace", "trace.write_reduced")
        self.patch(cli, "read_trace", "trace.read")
        self.patch(server, "serialize_reduced_trace", "trace.write_reduced")
        self.patch(engine, "sweep_pipeline", "sweep.run")
        self.patch(sweep_engine, "_sweep_shard_task", "sweep.task")
        self.patch(runner.PreparedWorkload, "from_file", "evaluation.prepare")
        self.patch(FrameTrace, "from_file", "trace.read")
        self.patch(runner, "result_from_reduced", "evaluation.criteria")
        self.patch(runner, "approximation_distance", "evaluation.approx")
        self.patch(runner, "retains_trends", "evaluation.trends")
        self.patch(runner, "analyze", "analysis.analyze")
        self.patch(trends, "analyze", "analysis.analyze")
        self.patch(session.ReductionSession, "append_segments", "service.append", session=True)
        self.patch(session.ReductionSession, "flush", "service.flush", session=True)
        self.patch(session.ReductionSession, "finish", "service.finish", session=True)
        self.patch(server, "session_state", "service.checkpoint_save")
        self.patch(server, "restore_state", "service.checkpoint_restore")
        self.patch(server, "source_digest", "service.digest")
        self.count_calls(repro.obs, "span", "obs.span")
        self.count_calls(repro.obs, "counter", "obs.counter")


def _reduce_frame_counts(args, kwargs):
    """Counts of one ``reduce_frame`` call, read off its inputs and result."""
    frame = args[1]
    into = kwargs.get("into")
    matches_before = into.n_matches if into is not None else 0
    stored_before = len(into.stored) if into is not None else 0
    match_counters = kwargs.get("match_counters")
    calls_before = match_counters.calls if match_counters is not None else 0
    rows_before = match_counters.rows_compared if match_counters is not None else 0
    materialized_before = frame.materialized

    def after(reduced):
        counts = {
            "segments": frame.n_segments,
            "matches": reduced.n_matches - matches_before,
            "stored": len(reduced.stored) - stored_before,
            "materialized": frame.materialized - materialized_before,
        }
        if match_counters is not None:
            counts["kernel_calls"] = match_counters.calls - calls_before
            counts["kernel_rows"] = match_counters.rows_compared - rows_before
        return counts

    return after


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _worker_shares(spans: list[Span], members: list[int]) -> Counter:
    """Wall time under the worker spans, shared out among their layers.

    At each instant every busy worker contributes its innermost open span;
    the instant is split evenly between them, so the shares add up to the
    union of the worker spans.
    """
    shares: Counter = Counter()
    edges = sorted({t for i in members for t in (spans[i].start, spans[i].end)})
    by_pid: dict[int, list[int]] = {}
    for i in members:
        by_pid.setdefault(spans[i].pid, []).append(i)
    depth = {}
    for i in members:
        d, p = 0, spans[i].parent
        while p is not None and spans[p].pid == spans[i].pid:
            d, p = d + 1, spans[p].parent
        depth[i] = d
    for a, b in zip(edges, edges[1:]):
        mid = (a + b) / 2
        active = []
        for ids in by_pid.values():
            open_ = [i for i in ids if spans[i].start <= mid < spans[i].end]
            if open_:
                active.append(max(open_, key=lambda i: depth[i]))
        for i in active:
            shares[spans[i].layer] += (b - a) / len(active)
    return shares


def layer_metrics(
    spans: list[Span],
    requests: dict[int, tuple[float, float]],
    main_pid: int,
) -> dict:
    """Per-request totals of the traced run: inclusive, self and counts.

    ``requests`` maps request id to its ``(start, end)`` as the client saw
    it.  Returns sums over all requests (divide by the request count for
    per-request means): ``inclusive[name]``, ``self[layer]``,
    ``unattributed``, ``request`` and ``counts[name][key]``, plus
    ``worker_busy[task span]`` and ``dispatch_capacity[dispatch span]``
    (pool size times span duration) for the pool busy fractions.
    """
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    counts: dict[str, Counter] = {}
    calls: Counter = Counter()
    unattributed = 0.0
    request_total = 0.0
    worker_busy: Counter = Counter()
    dispatch_capacity: Counter = Counter()

    by_request: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.request is not None:
            by_request.setdefault(span.request, []).append(i)

    for rid, (start, end) in requests.items():
        members = by_request.get(rid, [])
        request_total += end - start
        children: dict[Optional[int], list[int]] = {}
        for i in members:
            children.setdefault(spans[i].parent, []).append(i)
            inclusive[spans[i].name] += spans[i].duration
            calls[spans[i].name] += 1
            if spans[i].counts:
                counts.setdefault(spans[i].name, Counter()).update(spans[i].counts)
        main = [i for i in members if spans[i].pid == main_pid]
        workers = [i for i in members if spans[i].pid != main_pid]
        for i in main:
            kids = [(max(spans[k].start, spans[i].start), min(spans[k].end, spans[i].end))
                    for k in children.get(i, [])]
            self_time[spans[i].layer] += spans[i].duration - _union(
                [(a, b) for a, b in kids if b > a]
            )
            if spans[i].name in DISPATCH_SPANS:
                pids = {spans[k].pid for k in children.get(i, []) if spans[k].pid != main_pid}
                dispatch_capacity[spans[i].name] += len(pids) * spans[i].duration
        if workers:
            self_time.update(_worker_shares(spans, workers))
            for i in workers:
                if spans[i].parent is None or spans[spans[i].parent].pid == main_pid:
                    worker_busy[spans[i].name] += spans[i].duration
        roots = [(max(spans[i].start, start), min(spans[i].end, end))
                 for i in children.get(None, []) if spans[i].pid == main_pid]
        unattributed += (end - start) - _union([(a, b) for a, b in roots if b > a])

    return {
        "inclusive": inclusive,
        "calls": calls,
        "self": self_time,
        "unattributed": unattributed,
        "request": request_total,
        "counts": counts,
        "worker_busy": worker_busy,
        "dispatch_capacity": dispatch_capacity,
    }
