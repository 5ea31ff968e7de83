"""Shared-ingest sweep engine: one columnar frame, N reducer states.

For each rank the engine runs the paper's matching algorithm for *every*
config of a :class:`~repro.sweep.plan.SweepPlan` simultaneously, sharing all
the per-segment work that does not depend on the config:

* the rank's :class:`~repro.core.frames.RankFrame` itself (``.rpb`` files
  decode straight to columns; other sources adapt through the segments→frame
  adapter — either way the rank is ingested exactly once);
* the normalisation and the structural keys, which come from the frame's
  bulk passes (one vectorized subtraction and one interning sweep per rank
  instead of a ``relative_to_start()`` copy and a tuple hash per segment);
* each feature family's feature vectors, built in one bulk frame pass and
  used both as the ``match_batch`` probe of every member config and — via
  the :class:`~repro.core.reduced.StoredSegment` vector cache — as the
  candidate row when a member config stores the segment as a representative.

Everything config-dependent stays private per config: the representative
store, the :class:`~repro.core.candidates.CandidateList` buckets and their
row matrices, the reduced-trace output, and the segment-id sequence.  The
per-config decisions are made by the same kernels the serial reducer uses,
in the same order, so each config's reduced trace serializes byte-identical
to a solo :class:`~repro.core.reducer.TraceReducer` run (the equivalence
suite asserts exactly that for all nine metrics).

:class:`~repro.trace.segments.Segment` objects materialize lazily: a frame
row becomes a segment only when some config needs the object itself — to
store it as a representative, to run a scan-only metric (the iteration
methods), or to feed a non-default ``on_match``.  Configs whose metric
mutates its stored representatives (``iter_avg``) get a private materialized
copy of each segment they store; all other configs share one materialized
segment per input segment, which is safe because matching and serialization
never write to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from operator import is_
from typing import Iterable, Optional, Union

import numpy as np

from repro import obs
from repro.core.candidates import CandidateList, MatchCounters
from repro.core.frames import RankFrame
from repro.core.metrics.base import (
    PRUNE_FALLBACK_DENOM,
    PRUNE_MIN_ROWS,
    PRUNE_REL,
    SimilarityMetric,
)
from repro.core.reduced import ReducedRankTrace, ReducedTrace, StoredSegment
from repro.pipeline.store import StoreCounters, create_store
from repro.pipeline.stream import (
    SegmentSource,
    rank_frame_streams,
    shard_frame,
    source_name,
)
from repro.sweep.plan import SweepConfig, SweepPlan
from repro.sweep.results import ConfigOutcome, SweepResult
from repro.trace.segments import Segment

__all__ = ["SweepStats", "SweepEngine", "sweep_source"]


@dataclass(slots=True)
class SweepStats:
    """Instrumentation of one sweep run (whole grid, all ranks)."""

    n_configs: int = 0
    n_families: int = 0
    n_ranks: int = 0
    n_segments: int = 0
    #: ``Segment`` objects actually built on the columnar path — the
    #: lazy-materialization saving is ``n_segments - segments_materialized``.
    segments_materialized: int = 0
    #: Feature-vector computations actually performed (per segment × family).
    vector_builds: int = 0
    #: Vector computations a per-config serial loop would have performed for
    #: the same stream (per segment × vectorized config).
    vector_builds_naive: int = 0
    total_seconds: float = 0.0
    #: How the grid reached the reducer states: ``inline`` (one shared frame
    #: in this process) or ``shard`` ((rank × family) pool tasks).
    dispatch: str = "inline"

    @property
    def vector_builds_saved(self) -> int:
        """Vector computations avoided by family sharing."""
        return max(0, self.vector_builds_naive - self.vector_builds)

    @property
    def sharing_factor(self) -> float:
        """Naive vector builds per actual build (1.0 = no sharing)."""
        if self.vector_builds == 0:
            return 1.0
        return self.vector_builds_naive / self.vector_builds

    def rows(self) -> list[list]:
        """(property, value) rows for the CLI table."""
        return [
            ["configs", self.n_configs],
            ["feature families", self.n_families],
            ["task dispatch", self.dispatch],
            ["ranks", self.n_ranks],
            ["segments (ingested once)", self.n_segments],
            [
                "segments materialized (lazy)",
                f"{self.segments_materialized} of {self.n_segments} decoded",
            ],
            ["vector builds", self.vector_builds],
            ["vector builds saved", self.vector_builds_saved],
            ["vector sharing factor", f"{self.sharing_factor:.2f}x"],
            ["sweep wall time (s)", f"{self.total_seconds:.4f}"],
        ]

    def record_to(self, registry) -> None:
        """Record this sweep's totals into an ``obs`` metrics registry."""
        registry.set_gauge("sweep.configs", self.n_configs)
        registry.set_gauge("sweep.families", self.n_families)
        registry.set_gauge("sweep.ranks", self.n_ranks)
        registry.inc("sweep.segments", self.n_segments)
        registry.inc("columnar.materialized", self.segments_materialized)
        registry.inc("sweep.vector_builds", self.vector_builds)
        registry.inc("sweep.vector_builds_naive", self.vector_builds_naive)
        registry.inc("sweep.total_seconds", self.total_seconds)


class _ConfigState:
    """One config's private reducer state for one rank."""

    __slots__ = (
        "config",
        "metric",
        "threshold",
        "vectorized",
        "vector_key",
        "mutates",
        "default_on_match",
        "store",
        "add_built",
        "lookup",
        "reduced",
        "next_id",
        "match_counters",
    )

    def __init__(
        self,
        config: SweepConfig,
        metric: SimilarityMetric,
        vector_key,
        rank: int,
        store_capacity: Optional[int],
        instrument: bool,
    ) -> None:
        self.config = config
        self.metric = metric
        self.threshold = metric.threshold
        self.vectorized = vector_key is not None
        self.vector_key = vector_key
        self.mutates = metric.mutates_stored
        # When on_match is the base-class default (count the match) it runs
        # inline, so matches never force a Segment materialization.
        self.default_on_match = type(metric).on_match is SimilarityMetric.on_match
        self.store = create_store(store_capacity)
        self.add_built = getattr(self.store, "add_built", None)
        self.lookup = self.store.candidates  # prebound: hottest call in the loop
        self.reduced = ReducedRankTrace(rank=rank)
        self.next_id = 0
        self.match_counters = MatchCounters() if instrument else None


@dataclass(slots=True)
class _RankSweep:
    """Everything one rank's one-pass sweep produced."""

    rank: int
    reduced: dict[tuple, ReducedRankTrace]
    store_counters: dict[tuple, StoreCounters]
    match_counters: dict[tuple, MatchCounters]
    n_segments: int = 0
    #: ``Segment`` objects lazily materialized from the rank's frame.
    segments_materialized: int = 0
    vector_builds: int = 0
    vector_builds_naive: int = 0
    #: Worker telemetry snapshot when the task ran in capture mode.
    snapshot: Optional[obs.RecorderSnapshot] = None


def merge_rank_groups(parts: list[_RankSweep]) -> _RankSweep:
    """Merge one rank's per-family-group sweeps into a single rank sweep.

    Used by the sharded dispatch, where each (rank × family group) pool task
    re-decodes the rank's frame independently: config outcomes are disjoint
    across groups, every group saw the same segments (so the segment count is
    taken once, not summed), and the work counters — vector builds and lazy
    materializations, both real work done per group — add up.
    """
    if not parts:
        raise ValueError("cannot merge an empty list of rank sweeps")
    merged = parts[0]
    for part in parts[1:]:
        if part.rank != merged.rank:
            raise ValueError(f"cannot merge ranks {merged.rank} and {part.rank}")
        merged.reduced.update(part.reduced)
        merged.store_counters.update(part.store_counters)
        merged.match_counters.update(part.match_counters)
        merged.segments_materialized += part.segments_materialized
        merged.vector_builds += part.vector_builds
        merged.vector_builds_naive += part.vector_builds_naive
    return merged


def _sweep_shard_task(
    specs: tuple[tuple, ...],
    path: str,
    rank: int,
    store_capacity: Optional[int],
    instrument: bool,
    capture: bool = False,
) -> _RankSweep:
    """One pool task of a sharded sweep: (rank shard × config group).

    The payload is just a file path, a rank id, and (method, threshold)
    pairs; the worker opens the indexed file, decodes only the rank's byte
    range into a columnar frame, and runs the group's configs over it in one
    shared pass.  With ``capture=True`` the task records into a private
    recorder and ships the snapshot back on the result.
    """
    plan = SweepPlan([SweepConfig(method, threshold) for method, threshold in specs])
    engine = SweepEngine(plan, store_capacity=store_capacity, instrument=instrument)
    if not capture:
        return engine.sweep_rank(rank, shard_frame(path, rank))
    recorder = obs.Recorder(label="worker")
    with obs.local_recording(recorder):
        result = engine.sweep_rank(rank, shard_frame(path, rank))
    registry = recorder.registry
    registry.inc("ingest.segments", result.n_segments)
    registry.inc("columnar.materialized", result.segments_materialized)
    registry.inc("sweep.vector_builds", result.vector_builds)
    registry.inc("sweep.vector_builds_naive", result.vector_builds_naive)
    result.snapshot = recorder.snapshot()
    return result


class SweepEngine:
    """Evaluates a whole sweep plan in a single pass over each rank's frame.

    ``store_capacity`` bounds every config's per-rank representative store
    (``None`` keeps the unbounded byte-identical default, exactly as in the
    pipeline).  ``instrument=True`` additionally times the match stage per
    config (one timer pair per config per candidate segment — measurable
    overhead, so it is off by default).
    """

    def __init__(
        self,
        plan: SweepPlan,
        *,
        store_capacity: Optional[int] = None,
        instrument: bool = False,
    ) -> None:
        if not isinstance(plan, SweepPlan):
            plan = SweepPlan(plan)
        self.plan = plan
        self.store_capacity = store_capacity
        self.instrument = instrument

    # -- per-rank reduction ------------------------------------------------------

    def sweep_rank(
        self, rank: int, segments: Union[RankFrame, Iterable[Segment]]
    ) -> _RankSweep:
        """Run every config of the plan over one rank's frame (or segments).

        A plain segment iterable adapts through the segments→frame adapter,
        so every caller runs the same columnar loop.
        """
        if isinstance(segments, RankFrame):
            frame = segments
        else:
            frame = RankFrame.from_segments(rank, segments)
        with obs.span("sweep.rank", rank=rank, configs=self.plan.n_configs):
            return self._sweep_rank(frame)

    def _sweep_rank(self, frame: RankFrame) -> _RankSweep:
        instrument = self.instrument
        capacity = self.store_capacity
        rank = frame.rank
        n_segments = frame.n_segments
        vector_builds = 0
        vector_builds_naive = 0
        # Per family: the shared probe vectors (one bulk frame pass serves
        # every member config) plus the member states grouped by metric
        # *kind* (class).  Metric instances are fresh per rank, mirroring the
        # pipeline's per-task metric copies (metrics hold no cross-rank
        # state, but iter_avg's mutation path must never alias).  Configs of
        # one kind share a threshold-independent ``match_stats`` kernel, so
        # the engine evaluates each kind's stacked candidate rows in a single
        # NumPy pass per segment and applies each config's threshold as a
        # cheap comparison over its own slice.
        families: list[tuple[list[_ConfigState], list, Optional[list]]] = []
        for family in self.plan.families:
            states = [
                _ConfigState(c, c.create(), family.vector_key, rank, capacity, instrument)
                for c in family.configs
            ]
            for state in states:
                state.reduced.n_segments = n_segments
            by_kind: dict[type, list[_ConfigState]] = {}
            vectors: Optional[list] = None
            if family.vectorized:
                for state in states:
                    bucket = by_kind.get(type(state.metric))
                    if bucket is None:
                        by_kind[type(state.metric)] = bucket = []
                    bucket.append(state)
                # One bulk pass builds the family's probes for the whole
                # rank; logically still one build per segment, shared by
                # every member config.
                vectors = states[0].metric.frame_vectors(frame)
                vector_builds += n_segments
                vector_builds_naive += n_segments * len(states)
            # (member states, their thresholds as a row-multiplier source,
            # a one-entry memo of the last stacked candidate matrix)
            kinds = [
                (kind_states, np.array([s.threshold for s in kind_states]), [None])
                for kind_states in by_kind.values()
            ]
            families.append((states, kinds, vectors))

        keys = frame.structural_keys()
        starts = frame.starts_list()
        perf_counter = time.perf_counter

        for i in range(n_segments):
            key = keys[i]
            start = starts[i]
            # One-element cache of the segment's materialized normalised
            # form, shared by every config that needs the object itself.
            rel: list = [None]
            for states, kinds, vectors in families:
                if vectors is None:
                    # Scan-only family (iteration methods): no shared vector,
                    # and the metrics inspect the segment object itself.
                    relative = rel[0]
                    if relative is None:
                        relative = rel[0] = frame.segment(i)
                    for state in states:
                        reduced = state.reduced
                        candidates = state.lookup(key)
                        chosen = None
                        if candidates:
                            reduced.n_possible_matches += 1
                            counters = state.match_counters
                            started = perf_counter() if counters is not None else 0.0
                            chosen = state.metric.match(relative, candidates)
                            if counters is not None:
                                counters.seconds += perf_counter() - started
                                counters.calls += 1
                                counters.rows_compared += len(candidates)
                        self._record(state, key, frame, i, start, rel, candidates, chosen, None)
                    continue

                # One pre-built row serves every member config, both as the
                # match probe and as the stored candidate's cached row.
                vector = vectors[i]
                for kind_states, kind_thresholds, last in kinds:
                    # Gather each member's candidates; members with none
                    # store immediately, the rest join the stacked kernel.
                    participants = []
                    for state in kind_states:
                        candidates = state.lookup(key)
                        if candidates:
                            state.reduced.n_possible_matches += 1
                            if isinstance(candidates, CandidateList):
                                matrix, scales, summaries = (
                                    candidates.matrix_scales_summaries(state.metric)
                                )
                                participants.append(
                                    (state, candidates, matrix, scales, summaries)
                                )
                            else:  # pragma: no cover - stores always bucket
                                relative = rel[0]
                                if relative is None:
                                    relative = rel[0] = frame.segment(i)
                                chosen = state.metric.match(relative, candidates)
                                self._record(
                                    state, key, frame, i, start, rel, candidates, chosen, vector
                                )
                        else:
                            self._record(
                                state, key, frame, i, start, rel, candidates, None, vector
                            )
                    if not participants:
                        continue
                    counted = perf_counter() if instrument else 0.0
                    if len(participants) == 1:
                        state, candidates, matrix, scales, summaries = participants[0]
                        index = state.metric.match_pruned(
                            vector, matrix, scales, summaries, state.match_counters
                        )
                        chosen = candidates[index] if index is not None else None
                        self._record(state, key, frame, i, start, rel, candidates, chosen, vector)
                    else:
                        self._match_stacked(
                            participants,
                            kind_states,
                            kind_thresholds,
                            last,
                            vector,
                            key,
                            frame,
                            i,
                            start,
                            rel,
                        )
                    if instrument:
                        elapsed = perf_counter() - counted
                        share = elapsed / len(participants)
                        for state, candidates, _, _, _ in participants:
                            counters = state.match_counters
                            counters.seconds += share
                            counters.calls += 1
                            counters.rows_compared += len(candidates)

        result = _RankSweep(
            rank=rank,
            reduced={},
            store_counters={},
            match_counters={},
            n_segments=n_segments,
            segments_materialized=frame.materialized,
            vector_builds=vector_builds,
            vector_builds_naive=vector_builds_naive,
        )
        for states, _, _ in families:
            for state in states:
                result.reduced[state.config.key] = state.reduced
                result.store_counters[state.config.key] = state.store.counters
                if state.match_counters is not None:
                    result.match_counters[state.config.key] = state.match_counters
        return result

    def _match_stacked(
        self,
        participants: list,
        kind_states: list[_ConfigState],
        kind_thresholds: np.ndarray,
        last: list,
        vector: np.ndarray,
        key,
        frame: RankFrame,
        i: int,
        start: float,
        rel: list,
    ) -> None:
        """One kernel pass over several members' stacked candidate rows.

        The statistics and the masks are row-wise, so each member's slice is
        bitwise what its own solo kernel would compute; thresholds enter as
        one repeated row-multiplier instead of a multiply per member.  On
        stacks of at least :data:`PRUNE_MIN_ROWS` rows, the family's
        prefilter runs *once* over the stacked summary columns — each row's
        prune limit carries its own member's threshold, so survivors are
        shared across the whole threshold grid — and the exact kernel only
        sees the surviving rows; each member's first match is then recovered
        from the sorted matched-row indices.

        ``last`` is the kind's one-entry memo of the previous call's stack.
        A bucket hands out a new matrix view whenever it stores or evicts, so
        while every participant returns the same view objects as last time
        (the usual case: most probes match), the stack is reused as is.  The
        memo holds one stack per kind, so beyond what the store holds it
        keeps alive at most one structural key's rows (the stack and the
        views it was built from).  Metrics that rewrite stored rows in place
        never use it.
        """
        matrices = [p[2] for p in participants]
        memo = last[0]
        if (
            memo is None
            or len(memo[0]) != len(matrices)
            or not all(map(is_, memo[0], matrices))
        ):
            counts = [matrix.shape[0] for matrix in matrices]
            stacked = np.concatenate(matrices)
            if participants[0][3] is not None:
                stacked_scales = np.concatenate([p[3] for p in participants])
            else:
                stacked_scales = None
            if len(participants) == len(kind_states):
                thresholds = kind_thresholds
            else:
                thresholds = np.array([p[0].threshold for p in participants])
            offsets = [0, *accumulate(counts)]
            memo = (matrices, offsets, stacked, stacked_scales, np.repeat(thresholds, counts))
            if not participants[0][0].mutates:
                last[0] = memo
        _, offsets, stacked, stacked_scales, per_row = memo
        metric = participants[0][0].metric
        if (
            stacked.shape[0] >= PRUNE_MIN_ROWS
            and participants[0][4] is not None
            and metric.prune_stats is not None
        ):
            stacked_summaries = np.concatenate([p[4] for p in participants])
            pstat, pbase = metric.prune_stats(vector, stacked_summaries, stacked_scales)
            plimit = per_row * PRUNE_REL
            keep = pstat <= (plimit if pbase is None else plimit * pbase)
            survivors = np.flatnonzero(keep)
            if survivors.size * PRUNE_FALLBACK_DENOM > stacked.shape[0]:
                # The summaries cluster tighter than the grid's limits, so
                # the gather would cost more than it skips — take the dense
                # stacked kernel below instead (identical result either way).
                survivors = None
        else:
            survivors = None
        if survivors is None:
            stat, base = metric.match_stats(vector, stacked, stacked_scales)
            matched = (stat <= (per_row if base is None else per_row * base)).nonzero()[0]
        elif survivors.size:
            rows = stacked[survivors]
            scales = stacked_scales[survivors] if stacked_scales is not None else None
            stat, base = metric.match_stats(vector, rows, scales)
            limits = per_row[survivors] if base is None else per_row[survivors] * base
            matched = survivors[stat <= limits]
        else:
            matched = survivors  # empty: every row pruned
        # Each member's first match is the first matched global row at or
        # past its slice offset (``matched`` is ascending).
        hits = matched.tolist()
        firsts = matched.searchsorted(offsets).tolist()
        pruned = self.instrument and survivors is not None
        for j, (state, candidates, _, _, _) in enumerate(participants):
            offset, stop = offsets[j], offsets[j + 1]
            position = firsts[j]
            if position < len(hits) and hits[position] < stop:
                chosen = candidates[hits[position] - offset]
            else:
                chosen = None
            if pruned:
                counters = state.match_counters
                lo, hi = np.searchsorted(survivors, (offset, stop))
                counters.rows_pruned += stop - offset - int(hi - lo)
                counters.blocks_evaluated += 1
            self._record(state, key, frame, i, start, rel, candidates, chosen, vector)

    @staticmethod
    def _record(
        state: _ConfigState,
        key,
        frame: RankFrame,
        index: int,
        start: float,
        rel: list,
        candidates,
        chosen: Optional[StoredSegment],
        vector,
    ) -> None:
        """One config's match/store bookkeeping for one frame row.

        Mirrors the tail of the serial reducer's loop exactly: record the
        execution, update the chosen representative on a match (refreshing
        its cached rows if the metric mutates it), or store the segment as a
        new representative — seeding its vector cache with a private copy of
        the family row (a frame row is a view that would pin the whole group
        matrix) and handing the row to the bucket so it is never recomputed.

        ``rel`` is the caller's one-element cache of the materialized
        normalised segment; it is only filled when some config actually
        needs the object.
        """
        reduced = state.reduced
        if chosen is not None:
            reduced.n_matches += 1
            reduced.execs.append((chosen.segment_id, start))
            reduced.exec_matched.append(True)
            if state.default_on_match:
                chosen.count += 1
            else:
                relative = rel[0]
                if relative is None:
                    relative = rel[0] = frame.segment(index)
                state.metric.on_match(relative, chosen)
            if state.mutates:
                refresh = getattr(candidates, "refresh", None)
                if refresh is not None:
                    refresh(chosen)
        else:
            if state.mutates:
                # This config will rewrite the stored timestamps in place
                # (iter_avg's running mean), so it must not share the
                # materialized segment object with the other configs.
                to_store = frame.segment(index)
            else:
                to_store = rel[0]
                if to_store is None:
                    to_store = rel[0] = frame.segment(index)
            stored = StoredSegment(segment_id=state.next_id, segment=to_store)
            state.next_id += 1
            if vector is not None and not state.mutates:
                row = np.array(vector)
                stored.cached_vector(state.vector_key, lambda _s, _row=row: _row)
                if state.add_built is not None:
                    state.add_built(key, stored, state.metric, row)
                else:
                    state.store.add(key, stored)
            else:
                state.store.add(key, stored)
            reduced.stored.append(stored)
            reduced.execs.append((stored.segment_id, start))
            reduced.exec_matched.append(False)

    # -- whole-source reduction ----------------------------------------------------

    def sweep(self, source: SegmentSource, *, name: Optional[str] = None) -> SweepResult:
        """One shared pass over every rank of ``source``, for the whole grid."""
        started = time.perf_counter()
        name = name or source_name(source)
        with obs.span("sweep.run", dispatch="inline", configs=self.plan.n_configs):
            rank_sweeps = [
                self.sweep_rank(rank, frame)
                for rank, frame in rank_frame_streams(source)
            ]
            return self._assemble(name, rank_sweeps, started, dispatch="inline")

    def _assemble(
        self,
        name: str,
        rank_sweeps: list[_RankSweep],
        started: float,
        *,
        dispatch: str,
    ) -> SweepResult:
        """Reassemble per-rank sweeps (in rank-stream order) into the grid."""
        outcomes: list[ConfigOutcome] = []
        for config in self.plan.configs:
            metric = config.create()
            reduced = ReducedTrace(
                name=name, method=metric.name, threshold=metric.threshold
            )
            store = StoreCounters()
            match: Optional[MatchCounters] = MatchCounters() if self.instrument else None
            for rank_sweep in rank_sweeps:
                reduced.ranks.append(rank_sweep.reduced[config.key])
                store = store.merged_with(rank_sweep.store_counters[config.key])
                if match is not None and config.key in rank_sweep.match_counters:
                    match = match.merged_with(rank_sweep.match_counters[config.key])
            outcomes.append(
                ConfigOutcome(config=config, reduced=reduced, store=store, match=match)
            )
        stats = SweepStats(
            n_configs=self.plan.n_configs,
            n_families=self.plan.n_families,
            n_ranks=len(rank_sweeps),
            n_segments=sum(r.n_segments for r in rank_sweeps),
            segments_materialized=sum(r.segments_materialized for r in rank_sweeps),
            vector_builds=sum(r.vector_builds for r in rank_sweeps),
            vector_builds_naive=sum(r.vector_builds_naive for r in rank_sweeps),
            total_seconds=time.perf_counter() - started,
            dispatch=dispatch,
        )
        recorder = obs.current_recorder()
        if recorder is not None:
            stats.record_to(recorder.registry)
        return SweepResult(name=name, outcomes=outcomes, stats=stats)


def sweep_source(
    source: SegmentSource,
    plan: SweepPlan | Iterable,
    *,
    store_capacity: Optional[int] = None,
    instrument: bool = False,
    name: Optional[str] = None,
) -> SweepResult:
    """Convenience wrapper: ``SweepEngine(plan).sweep(source)``."""
    return SweepEngine(
        plan, store_capacity=store_capacity, instrument=instrument
    ).sweep(source, name=name)
