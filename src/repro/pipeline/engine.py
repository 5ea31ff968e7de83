"""Parallel reduction engine: fan per-rank reduction out over a worker pool.

Intra-process reduction (Section 3.1) is embarrassingly parallel across ranks
— each rank's representative table is private — so the engine dispatches one
reduction task per rank to a :mod:`concurrent.futures` pool and reassembles
the per-rank results **in rank-stream order**.  Because the per-rank algorithm
is untouched and ordering is restored deterministically, the pipeline's output
serializes byte-identically to the serial :class:`~repro.core.reducer.TraceReducer`
path (the equivalence tests assert exactly that, for every similarity metric).

Executors
---------
``serial``
    No pool: each rank is reduced in place, one rank at a time.  Memory is
    bounded by one rank's frame plus the representative store; this is the
    right mode for huge traces on small machines.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap to start and
    shares memory, but similarity matching is mostly pure Python, so threads
    mainly help when metrics spend their time in NumPy.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` (the default).  Each
    worker builds its own representative store, so metric state never crosses
    rank boundaries — the same isolation the serial path provides.  For
    in-memory sources on platforms with ``fork``, the trace is shared with the
    workers copy-on-write and tasks carry only a rank index (zero-copy
    dispatch); otherwise rank payloads are pickled to the workers.

Task dispatch (recorded in ``PipelineStats.dispatch``)
------------------------------------------------------
``inline``
    The serial path: no pool, streams reduced in place.
``shard``
    Indexed file sources (``.rpb``): pooled workers receive ``(path, rank)``
    shard tasks and each opens the file and decodes only its rank's byte
    range — ingestion parallelises and no rank payload is ever pickled.
``fork``
    In-memory sources on fork platforms: workers inherit the trace
    copy-on-write and tasks carry only a rank index.
``payload``
    The fallback: each rank is materialized as a columnar frame and pickled
    to a worker (column arrays pack far tighter than segment-object lists).
    Submission is throttled to a bounded in-flight window so a trace with
    thousands of ranks never has every rank materialized at once.

Whatever the dispatch mode, every rank reaches the reducer as a
:class:`~repro.core.frames.RankFrame` — ``.rpb`` ranks decode straight to
columns, text and in-memory sources adapt through
``RankFrame.from_segments`` — so all executors run the one columnar code
path, :meth:`~repro.core.reducer.TraceReducer.reduce_frame`.  The
segment-at-a-time reducers of :mod:`repro.core.reference` are the
byte-identity oracles.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from pathlib import Path
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.core.candidates import MatchCounters
from repro.core.frames import RankFrame
from repro.core.metrics.base import SimilarityMetric
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.core.reducer import TraceReducer
from repro.pipeline.stats import PipelineStats, time_stage
from repro.pipeline.store import StoreCounters, create_store
from repro.pipeline.stream import (
    SegmentSource,
    indexed_source_ranks,
    rank_frame_streams,
    rank_segment_streams,
    shard_frame,
    source_name,
)
from repro.trace.segments import iter_segments
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace, Trace
from repro.trace.merge import MergedReducedTrace, merge_reduced_trace

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "ReductionPipeline",
    "reduce_pipeline",
    "sweep_pipeline",
]

EXECUTORS = ("serial", "thread", "process")


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """How a :class:`ReductionPipeline` runs.

    Attributes
    ----------
    executor:
        ``"serial"``, ``"thread"``, or ``"process"`` (see module docstring).
    workers:
        Pool size; ``None`` means ``os.cpu_count()`` (ignored by ``serial``).
    store_capacity:
        Bound on representatives kept per rank (:class:`~repro.pipeline.store.LRUStore`);
        ``None`` keeps the unbounded, byte-identical default.
    merge:
        Run the inter-process merge (cross-rank representative dedup) as a
        final stage.
    max_pending:
        In-flight rank tasks for pooled executors; ``None`` means
        ``2 * workers``.  Bounds how many ranks' column frames exist at once.
    """

    executor: str = "process"
    workers: Optional[int] = None
    store_capacity: Optional[int] = None
    merge: bool = False
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.store_capacity is not None and self.store_capacity < 1:
            raise ValueError(f"store_capacity must be >= 1, got {self.store_capacity}")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")

    def resolved_workers(self) -> int:
        if self.executor == "serial":
            return 1
        return self.workers or os.cpu_count() or 1


@dataclass(slots=True)
class PipelineResult:
    """Everything one pipeline run produced."""

    reduced: ReducedTrace
    stats: PipelineStats
    merged: Optional[MergedReducedTrace] = None


#: What every rank task returns: the reduced rank, its store and match
#: counters, the number of ``Segment`` objects the columnar path actually
#: materialized, and — in telemetry capture mode — the worker's recorder
#: snapshot (``None`` otherwise), piggybacked so no extra IPC round-trip is
#: needed.
RankTaskResult = tuple[
    ReducedRankTrace, StoreCounters, MatchCounters, int, Optional[obs.RecorderSnapshot]
]


def _record_rank_metrics(
    registry: obs.MetricsRegistry,
    reduced: ReducedRankTrace,
    store_counters: StoreCounters,
    match_counters: MatchCounters,
    n_materialized: int,
) -> None:
    """Fill a worker-local registry with one rank's per-task metrics.

    Only called in capture mode: the parent keeps per-worker registries
    separate from the run totals (recorded once from the final stats), so
    nothing is ever double-counted.
    """
    registry.inc("ingest.segments", reduced.n_segments)
    registry.inc("columnar.materialized", n_materialized)
    registry.inc("reduce.stored", len(reduced.stored))
    registry.inc("reduce.matches", reduced.n_matches)
    store_counters.record_to(registry)
    match_counters.record_to(registry)


def _as_frame(rank: int, segments) -> RankFrame:
    """Adapt a rank task's input to a columnar frame (no-op for frames)."""
    if isinstance(segments, RankFrame):
        return segments
    return RankFrame.from_segments(rank, segments)


def _reduce_rank_inner(
    metric: SimilarityMetric,
    rank: int,
    frame: RankFrame,
    store_capacity: Optional[int],
) -> tuple[ReducedRankTrace, StoreCounters, MatchCounters, int]:
    store = create_store(store_capacity)
    match_counters = MatchCounters()
    with obs.span("rank.reduce", rank=rank):
        reduced = TraceReducer(metric).reduce_frame(
            frame, store=store, match_counters=match_counters
        )
    return reduced, store.counters, match_counters, frame.materialized


def _reduce_rank_task(
    metric: SimilarityMetric,
    rank: int,
    segments,
    store_capacity: Optional[int],
    capture: bool = False,
) -> RankTaskResult:
    """One worker task: reduce a single rank with its own store.

    ``segments`` may be a pre-built :class:`RankFrame` or any segment
    iterable (adapted here, so every dispatch mode converges on the columnar
    path).  Module-level so process pools can pickle it; the pickled
    ``metric`` gives every rank a private metric instance, mirroring serial
    semantics (metrics hold no cross-rank state).  With ``capture=True`` the
    task records its spans/metrics into a private recorder — shadowing any
    (orphaned, fork-inherited or thread-shared) ambient recorder — and
    returns the snapshot as the final element.
    """
    if not capture:
        frame = _as_frame(rank, segments)
        return (*_reduce_rank_inner(metric, rank, frame, store_capacity), None)
    recorder = obs.Recorder(label="worker")
    with obs.local_recording(recorder):
        frame = _as_frame(rank, segments)
        result = _reduce_rank_inner(metric, rank, frame, store_capacity)
    _record_rank_metrics(recorder.registry, *result)
    return (*result, recorder.snapshot())


def _reduce_shard_task(
    metric: SimilarityMetric,
    path: str,
    rank: int,
    store_capacity: Optional[int],
    capture: bool = False,
) -> RankTaskResult:
    """One worker task for indexed file sources: a ``(path, rank)`` shard.

    The task payload is just the file path and a rank id; the worker opens
    the file itself, seeks to the rank's byte range, and decodes its rank's
    column blocks straight into a frame — no rank data crosses the pickle
    boundary in either direction except the (much smaller) reduced result.

    In capture mode the frame is decoded under a ``shard.decode`` span
    before reducing, so the exported timeline separates decode from match
    time per shard.
    """
    if not capture:
        return _reduce_rank_task(metric, rank, shard_frame(path, rank), store_capacity)
    recorder = obs.Recorder(label="worker")
    with obs.local_recording(recorder):
        with obs.span("shard.decode", rank=rank):
            frame = shard_frame(path, rank)
        result = _reduce_rank_inner(metric, rank, frame, store_capacity)
    _record_rank_metrics(recorder.registry, *result)
    return (*result, recorder.snapshot())


#: In-memory trace inherited by fork()ed workers (set around pool creation).
#: Fork children see the parent's memory copy-on-write, so rank payloads never
#: cross a pickle boundary — tasks carry only a rank *index*.  The lock
#: serialises concurrent fork-path runs in one process: the global must stay
#: published until every worker has forked.
_FORK_SOURCE: Optional[SegmentSource] = None
_FORK_LOCK = threading.Lock()


def _reduce_fork_task(
    metric: SimilarityMetric,
    position: int,
    store_capacity: Optional[int],
    capture: bool = False,
) -> RankTaskResult:
    """Worker task for the fork-shared path: look the rank up by index.

    For a raw :class:`Trace` source the worker also does the segmentation, so
    that stage parallelises too.
    """
    rank_trace = _FORK_SOURCE.ranks[position]
    if isinstance(rank_trace, SegmentedRankTrace):
        segments = rank_trace.segments
    else:
        segments = iter_segments(rank_trace.records)
    return _reduce_rank_task(metric, rank_trace.rank, segments, store_capacity, capture)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class ReductionPipeline:
    """Streaming, parallel intra-process reduction with instrumentation."""

    def __init__(self, metric: SimilarityMetric, config: Optional[PipelineConfig] = None):
        if not isinstance(metric, SimilarityMetric):
            raise TypeError(
                f"metric must be a SimilarityMetric, got {type(metric).__name__}"
            )
        self.metric = metric
        self.config = config or PipelineConfig()

    # -- public API -----------------------------------------------------------

    def reduce(self, source: SegmentSource, *, name: Optional[str] = None) -> PipelineResult:
        """Reduce any segment source (trace, segmented trace, or file path).

        A pooled executor whose effective worker count is 1 is auto-downgraded
        to the serial path: a one-worker pool reduces rank-by-rank anyway, so
        it can only add pool startup and IPC overhead (single-CPU runs showed
        0.80x "speedups").  The downgrade is recorded in the stats
        (``requested_executor`` vs ``executor``) and never changes output.
        """
        config = self.config
        workers = config.resolved_workers()
        executor = config.executor
        shard_ranks = indexed_source_ranks(source)
        if executor != "serial" and (
            workers == 1
            or (isinstance(source, (SegmentedTrace, Trace)) and len(source.ranks) <= 1)
            or (shard_ranks is not None and len(shard_ranks) <= 1)
        ):
            # One effective worker *or* one rank to reduce: a pool can only
            # add startup and IPC overhead, so run the serial path.  (Indexed
            # files reveal their rank count in the footer; forward-only text
            # files don't, so a 1-rank text file still goes through the pool.)
            executor = "serial"
        # Dispatch mode is a function of the executor and source alone, so it
        # is decided up front and the stats carry it from construction — the
        # telemetry attribute is never an empty string, even mid-run.
        if executor == "serial":
            dispatch = "inline"
        elif shard_ranks is not None:
            dispatch = "shard"
        elif (
            executor == "process"
            and isinstance(source, (SegmentedTrace, Trace))
            and _fork_available()
        ):
            dispatch = "fork"
        else:
            dispatch = "payload"
        stats = PipelineStats(
            executor=executor,
            workers=workers,
            requested_executor=config.executor,
            dispatch=dispatch,
        )
        started = time.perf_counter()

        with obs.span(
            "pipeline.run", executor=executor, dispatch=dispatch, workers=workers
        ):
            if dispatch == "inline":
                ranks = self._reduce_serial(rank_frame_streams(source), stats)
            elif dispatch == "shard":
                ranks = self._reduce_sharded(Path(source), shard_ranks, stats)
            elif dispatch == "fork":
                ranks = self._reduce_forked(source, stats)
            else:
                ranks = self._reduce_pooled(rank_segment_streams(source), stats)

            reduced = ReducedTrace(
                name=name or source_name(source),
                method=self.metric.name,
                threshold=self.metric.threshold,
                ranks=ranks,
            )

            merged: Optional[MergedReducedTrace] = None
            if config.merge:
                with time_stage(stats, "merge"), obs.span("pipeline.merge"):
                    merged = merge_reduced_trace(reduced)
                stats.merged_stored = merged.n_stored
                stats.merged_duplicates = merged.n_duplicates

        stats.nprocs = reduced.nprocs
        stats.n_segments = reduced.n_segments
        stats.n_stored = reduced.n_stored
        stats.n_matches = reduced.n_matches
        stats.n_possible_matches = reduced.n_possible_matches
        stats.total_seconds = time.perf_counter() - started
        recorder = obs.current_recorder()
        if recorder is not None:
            stats.record_to(recorder.registry)
        return PipelineResult(reduced=reduced, stats=stats, merged=merged)

    # -- executor strategies ---------------------------------------------------

    def _reduce_serial(self, streams, stats: PipelineStats) -> list[ReducedRankTrace]:
        """Feed each rank's frame straight into the reducer, one rank at a time.

        Memory is bounded by the largest single rank's column arrays plus the
        representative store.  Runs in the caller's process, so task spans
        land directly on the ambient recorder — no capture/snapshot
        round-trip is needed.
        """
        ranks: list[ReducedRankTrace] = []
        with time_stage(stats, "reduce"):
            for rank, frame in streams:
                reduced_rank, counters, match_counters, n_materialized, _ = (
                    _reduce_rank_task(
                        self.metric, rank, frame, self.config.store_capacity
                    )
                )
                ranks.append(reduced_rank)
                stats.store = stats.store.merged_with(counters)
                stats.match = stats.match.merged_with(match_counters)
                stats.segments_materialized += n_materialized
        return ranks

    @staticmethod
    def _collect(
        results, stats: PipelineStats, ranks: list[ReducedRankTrace]
    ) -> None:
        """Fold ordered task results into ``stats``, absorbing any snapshots."""
        recorder = obs.current_recorder()
        for reduced_rank, counters, match_counters, n_materialized, snapshot in results:
            ranks.append(reduced_rank)
            stats.store = stats.store.merged_with(counters)
            stats.match = stats.match.merged_with(match_counters)
            stats.segments_materialized += n_materialized
            if recorder is not None:
                recorder.absorb(snapshot)

    def _reduce_forked(
        self, source: SegmentedTrace | Trace, stats: PipelineStats
    ) -> list[ReducedRankTrace]:
        """Process pool over a fork-shared in-memory trace (zero-copy dispatch).

        The source is published in a module global before the pool starts, so
        fork()ed workers inherit it copy-on-write and each task ships only a
        rank index; only the (much smaller) reduced results cross the pickle
        boundary.  Falls back to :meth:`_reduce_pooled` pickling on platforms
        without fork and for file sources.
        """
        global _FORK_SOURCE
        config = self.config
        workers = min(config.resolved_workers(), max(1, len(source.ranks)))
        capture = obs.enabled()
        results: list[RankTaskResult] = []
        with _FORK_LOCK:
            _FORK_SOURCE = source
            try:
                with time_stage(stats, "reduce"):
                    context = multiprocessing.get_context("fork")
                    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                        futures = [
                            pool.submit(
                                _reduce_fork_task, self.metric, position,
                                config.store_capacity, capture,
                            )
                            for position in range(len(source.ranks))
                        ]
                        results = [future.result() for future in futures]
            finally:
                _FORK_SOURCE = None

        ranks: list[ReducedRankTrace] = []
        self._collect(results, stats, ranks)
        return ranks

    def _reduce_sharded(
        self, path: Path, shard_ranks: list[int], stats: PipelineStats
    ) -> list[ReducedRankTrace]:
        """Fan ``(path, rank)`` shard tasks out over a pool (indexed files).

        Task payloads carry no trace data: each worker opens the file and
        decodes only its rank's byte range, so ingestion itself parallelises
        and no pickled rank payloads cross the pool boundary.  No in-flight
        window is needed — a pending shard task is just a path and an int.
        """
        config = self.config
        workers = min(config.resolved_workers(), max(1, len(shard_ranks)))
        capture = obs.enabled()
        with self._make_executor(workers) as pool:
            with time_stage(stats, "reduce"):
                futures = [
                    pool.submit(
                        _reduce_shard_task, self.metric, str(path), rank,
                        config.store_capacity, capture,
                    )
                    for rank in shard_ranks
                ]
                results = [future.result() for future in futures]

        ranks: list[ReducedRankTrace] = []
        self._collect(results, stats, ranks)
        return ranks

    def _reduce_pooled(self, streams, stats: PipelineStats) -> list[ReducedRankTrace]:
        """Fan rank tasks out over a pool, keeping results in stream order."""
        config = self.config
        workers = config.resolved_workers()
        window = config.max_pending or 2 * workers
        capture = obs.enabled()
        results: dict[int, RankTaskResult] = {}
        pending: dict = {}

        def drain(return_when: str) -> None:
            done, _ = wait(pending, return_when=return_when)
            for future in done:
                results[pending.pop(future)] = future.result()

        with self._make_executor(workers) as pool:
            with time_stage(stats, "reduce"):
                n_streams = 0
                for position, (rank, segments) in enumerate(streams):
                    n_streams += 1
                    # Pooled tasks ship each rank as a columnar frame (column
                    # arrays pickle far smaller than segment-object lists);
                    # the window bounds how many exist at once.
                    with time_stage(stats, "ingest"), obs.span(
                        "dispatch.materialize", rank=rank
                    ):
                        payload = _as_frame(rank, segments)
                    if capture:
                        # The serialized task size is the cost this dispatch
                        # mode pays per rank; measuring it re-pickles, so the
                        # histogram is only fed when telemetry is on.
                        obs.observe(
                            "dispatch.payload_bytes",
                            len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)),
                        )
                    future = pool.submit(
                        _reduce_rank_task, self.metric, rank, payload,
                        config.store_capacity, capture,
                    )
                    pending[future] = position
                    while len(pending) >= window:
                        drain(FIRST_COMPLETED)
                while pending:
                    drain(FIRST_COMPLETED)
        # The ingest spans are nested inside the reduce span; report them
        # disjointly so the per-stage numbers add up to the total.
        if "ingest" in stats.stage_seconds:
            stats.stage_seconds["reduce"] -= stats.stage_seconds["ingest"]

        ranks: list[ReducedRankTrace] = []
        self._collect(
            (results[position] for position in range(n_streams)), stats, ranks
        )
        return ranks

    def _make_executor(self, workers: int) -> Executor:
        if self.config.executor == "thread":
            return ThreadPoolExecutor(max_workers=workers)
        return ProcessPoolExecutor(max_workers=workers)


def reduce_pipeline(
    source: SegmentSource,
    metric: SimilarityMetric,
    config: Optional[PipelineConfig] = None,
    *,
    name: Optional[str] = None,
) -> PipelineResult:
    """Convenience wrapper: ``ReductionPipeline(metric, config).reduce(source)``."""
    return ReductionPipeline(metric, config).reduce(source, name=name)


def sweep_pipeline(
    source: SegmentSource,
    plan,
    config: Optional[PipelineConfig] = None,
    *,
    name: Optional[str] = None,
    instrument: bool = False,
):
    """Run a whole sweep grid over ``source``, parallelising where possible.

    For indexed (``.rpb``) file sources and a pooled executor, the grid is
    fanned out as **(rank-shard × feature-family)** tasks: each pool worker
    opens the file, decodes exactly one rank's byte range, and runs one
    family's configs over it in a single shared pass — so ingestion *and*
    the grid parallelise, task payloads carry only a path, a rank id, and
    (method, threshold) pairs, and vector sharing is preserved inside every
    task (configs of different families share no vectors anyway).

    Everything else — in-memory traces, forward-only text files, serial or
    single-worker configs, single-rank files — runs the whole grid through
    one shared segment stream in this process (``dispatch="inline"``), which
    is the sweep engine's home ground: segments are streamed exactly once
    for all configs.

    ``config.store_capacity`` bounds each config's per-rank store as usual;
    ``config.merge`` does not apply to sweeps and is ignored.  Returns a
    :class:`~repro.sweep.results.SweepResult`; per-config outputs are
    byte-identical to solo serial reductions in either dispatch mode.
    """
    from repro.sweep.engine import (
        SweepEngine,
        _sweep_shard_task,
        merge_rank_groups,
    )
    from repro.sweep.plan import SweepPlan

    if not isinstance(plan, SweepPlan):
        plan = SweepPlan(plan)
    config = config or PipelineConfig()
    engine = SweepEngine(
        plan, store_capacity=config.store_capacity, instrument=instrument
    )
    shard_ranks = indexed_source_ranks(source)
    workers = config.resolved_workers()
    if (
        config.executor == "serial"
        or workers == 1
        or shard_ranks is None
        or len(shard_ranks) <= 1
    ):
        return engine.sweep(source, name=name)

    started = time.perf_counter()
    path = str(Path(source))
    groups = [
        tuple(c.key for c in family.configs) for family in plan.families
    ]
    n_tasks = len(shard_ranks) * len(groups)
    workers = min(workers, max(1, n_tasks))
    capture = obs.enabled()
    if config.executor == "thread":
        pool_cls, pool_kwargs = ThreadPoolExecutor, {}
    else:
        pool_cls, pool_kwargs = ProcessPoolExecutor, {}
    results: dict[tuple[int, int], object] = {}
    with obs.span(
        "sweep.run", dispatch="shard", configs=plan.n_configs, workers=workers
    ):
        with pool_cls(max_workers=workers, **pool_kwargs) as pool:
            futures = {
                pool.submit(
                    _sweep_shard_task,
                    group,
                    path,
                    rank,
                    config.store_capacity,
                    instrument,
                    capture,
                ): (rank_index, group_index)
                for rank_index, rank in enumerate(shard_ranks)
                for group_index, group in enumerate(groups)
            }
            for future, position in futures.items():
                results[position] = future.result()

        recorder = obs.current_recorder()
        if recorder is not None:
            for part in results.values():
                recorder.absorb(part.snapshot)
        rank_sweeps = [
            merge_rank_groups(
                [results[(rank_index, group_index)] for group_index in range(len(groups))]
            )
            for rank_index in range(len(shard_ranks))
        ]
        result = engine._assemble(
            name or source_name(source), rank_sweeps, started, dispatch="shard"
        )
    return result
