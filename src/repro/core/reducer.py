"""Intra-process trace reduction (Section 3.1 of the paper).

For every rank, segments are processed in execution order.  Each new segment
is normalised (timestamps relative to its start) and compared against the
stored representatives that share its *structure* — same context, same events
in the same order, same message-passing parameters.  The similarity metric
decides whether the measurements match; on a match only the ``(segment id,
start time)`` execution entry is recorded, otherwise the segment itself is
stored as a new representative.

Production runs that loop exactly once, in :meth:`TraceReducer.reduce_frame`
over a rank's columnar :class:`~repro.core.frames.RankFrame`: in-memory
segment lists adapt through :meth:`RankFrame.from_segments`, ``.rpb`` files
decode straight to frames.  The candidate-list bookkeeping can be delegated
to a pluggable representative store (see :mod:`repro.pipeline.store`) —
anything with ``candidates(key)`` / ``add(key, stored)`` — which is how the
pipeline bounds reducer memory; with no store an unbounded inline dictionary
is used.  The segment-at-a-time scan and dense kernels that this loop must
reproduce byte for byte live in :mod:`repro.core.reference`.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Protocol, Sequence

import numpy as np

from repro import obs
from repro.core.candidates import CandidateList, MatchCounters
from repro.core.frames import RankFrame
from repro.core.metrics.base import DistanceMetric, SimilarityMetric
from repro.core.reduced import ReducedRankTrace, ReducedTrace, StoredSegment
from repro.trace.segments import Segment
from repro.trace.trace import SegmentedTrace

__all__ = ["TraceReducer", "reduce_trace", "SegmentStore"]


class SegmentStore(Protocol):
    """What the reducer needs from a representative store (duck-typed)."""

    def candidates(self, key: tuple) -> Sequence[StoredSegment]: ...

    def add(self, key: tuple, stored: StoredSegment) -> None: ...


class _InlineStore:
    """The reducer's default unbounded candidate dictionary.

    Also the storage layer of :class:`repro.pipeline.store.UnboundedStore`,
    which subclasses it to add lookup counters — the unbounded semantics are
    implemented exactly once.  Buckets are
    :class:`~repro.core.candidates.CandidateList`\\ s, so the batched match
    kernels see a contiguous row matrix per structural key; to the
    reference scan they still behave as ordered sequences.
    """

    __slots__ = ("_by_key", "_size")

    def __init__(self) -> None:
        self._by_key: dict[tuple, CandidateList] = {}
        self._size = 0

    def candidates(self, key: tuple) -> Sequence[StoredSegment]:
        return self._by_key.get(key, ())

    def add(self, key: tuple, stored: StoredSegment) -> None:
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        bucket.append(stored)
        self._size += 1

    def add_built(self, key: tuple, stored: StoredSegment, metric, row) -> None:
        """Register a representative with its feature row already built.

        Optional store hook (the reducer discovers it via ``getattr``):
        like :meth:`add`, but hands the bucket the probe vector that just
        failed to match so it becomes the new matrix row without a rebuild.
        """
        bucket = self._by_key.get(key)
        if bucket is None:
            bucket = self._by_key[key] = CandidateList()
        bucket.append_built(stored, metric, row)
        self._size += 1

    def __len__(self) -> int:
        return self._size


class TraceReducer:
    """Applies one similarity metric to segmented traces.

    A reducer instance is stateless between calls; it can be reused across
    ranks and traces.  Every entry point funnels into :meth:`reduce_frame`,
    the one per-segment loop; the segment-at-a-time implementations it is
    checked against live in :mod:`repro.core.reference`.
    """

    def __init__(self, metric: SimilarityMetric):
        if not isinstance(metric, SimilarityMetric):
            raise TypeError(
                f"metric must be a SimilarityMetric, got {type(metric).__name__}"
            )
        self.metric = metric

    def reduce_segments(
        self,
        segments: Iterable[Segment],
        *,
        rank: int = 0,
        store: Optional[SegmentStore] = None,
        match_counters: Optional[MatchCounters] = None,
        into: Optional[ReducedRankTrace] = None,
    ) -> ReducedRankTrace:
        """Reduce a segment iterable (list, generator, ...) via :meth:`reduce_frame`.

        The segments are consumed into one :meth:`RankFrame.from_segments`
        frame first; the keyword arguments mean what they mean there.
        """
        return self.reduce_frame(
            RankFrame.from_segments(rank, segments),
            store=store,
            match_counters=match_counters,
            into=into,
        )

    def reduce_frame(
        self,
        frame: RankFrame,
        *,
        store: Optional[SegmentStore] = None,
        match_counters: Optional[MatchCounters] = None,
        into: Optional[ReducedRankTrace] = None,
    ) -> ReducedRankTrace:
        """Reduce one rank's columnar frame.

        Structural keys and, for distance metrics, feature vectors come
        straight from the frame's bulk passes; distance metrics probe with
        those vectors (:meth:`DistanceMetric.match_row`), other metrics get
        the materialized segment.  :class:`~repro.trace.segments.Segment`
        objects are otherwise only materialized for stored representatives
        and non-default ``on_match`` hooks.

        When ``match_counters`` is given, the matching step (calls, candidate
        rows, wall time) is accumulated into it; with None the loop carries
        no timing overhead.  ``into`` makes the call *incremental*: the frame
        is appended to an existing :class:`ReducedRankTrace` (new
        representatives continue its id sequence).  Passing the same
        ``store`` and ``into`` across successive calls reduces a trace that
        arrives in pieces byte-identically to one call over the whole stream
        — the contract the online reduction service (:mod:`repro.service`)
        is built on.
        """
        reduced = ReducedRankTrace(rank=frame.rank) if into is None else into
        reduced.n_segments += frame.n_segments
        if store is None:
            store = _InlineStore()
        metric = self.metric
        keys = frame.structural_keys()
        starts = frame.starts_list()
        vectors = metric.frame_vectors(frame) if isinstance(metric, DistanceMetric) else None
        mutates = metric.mutates_stored
        # When on_match is the base-class default (count the match) it runs
        # inline, so matches never force a Segment materialization.
        default_on_match = type(metric).on_match is SimilarityMetric.on_match
        # Non-mutating distance metrics seed each new representative with its
        # probe vector, so the bucket never rebuilds the row.
        seed_rows = vectors is not None and not mutates
        vector_key = metric.vector_key() if seed_rows else None
        add_built = getattr(store, "add_built", None) if seed_rows else None
        perf_counter = time.perf_counter
        next_id = len(reduced.stored)

        for i in range(frame.n_segments):
            key = keys[i]
            segment = None if vectors is not None else frame.segment(i)
            candidates = store.candidates(key)
            chosen = None
            if candidates:
                reduced.n_possible_matches += 1
                if match_counters is not None:
                    started = perf_counter()
                if segment is None:
                    chosen = metric.match_row(vectors[i], candidates, match_counters)
                else:
                    chosen = metric.match(segment, candidates)
                if match_counters is not None:
                    match_counters.seconds += perf_counter() - started
                    match_counters.calls += 1
                    match_counters.rows_compared += len(candidates)
            if chosen is not None:
                reduced.n_matches += 1
                reduced.execs.append((chosen.segment_id, starts[i]))
                reduced.exec_matched.append(True)
                if default_on_match:
                    chosen.count += 1
                else:
                    if segment is None:
                        segment = frame.segment(i)
                    metric.on_match(segment, chosen)
                if mutates:
                    refresh = getattr(candidates, "refresh", None)
                    if refresh is not None:
                        refresh(chosen)
            else:
                if segment is None:
                    segment = frame.segment(i)
                stored_segment = StoredSegment(segment_id=next_id, segment=segment)
                next_id += 1
                if seed_rows:
                    # A private copy: a frame row is a view that would pin
                    # the whole group matrix.
                    row = np.array(vectors[i])
                    stored_segment.cached_vector(vector_key, lambda _s, _row=row: _row)
                if add_built is not None:
                    add_built(key, stored_segment, metric, row)
                else:
                    store.add(key, stored_segment)
                reduced.stored.append(stored_segment)
                reduced.execs.append((stored_segment.segment_id, starts[i]))
                reduced.exec_matched.append(False)
        return reduced

    def reduce(
        self, trace: SegmentedTrace, *, match_counters: Optional[MatchCounters] = None
    ) -> ReducedTrace:
        """Reduce every rank of ``trace`` independently (intra-process reduction).

        Frame-backed ranks (a :class:`~repro.core.frametrace.FrameTrace`)
        hand over their frame; segment-list ranks adapt through
        :meth:`RankFrame.from_segments`.
        """
        reduced = ReducedTrace(
            name=trace.name,
            method=self.metric.name,
            threshold=self.metric.threshold,
        )
        for rank_trace in trace.ranks:
            # Span per rank, not per segment: the segment loop is the match
            # kernel's hot path and must stay telemetry-free.
            with obs.span("rank.reduce", rank=rank_trace.rank):
                frame = getattr(rank_trace, "frame", None)
                if frame is None:
                    frame = RankFrame.from_segments(rank_trace.rank, rank_trace.segments)
                reduced.ranks.append(self.reduce_frame(frame, match_counters=match_counters))
        return reduced


def reduce_trace(trace: SegmentedTrace, metric: SimilarityMetric) -> ReducedTrace:
    """Convenience wrapper: ``TraceReducer(metric).reduce(trace)``."""
    return TraceReducer(metric).reduce(trace)
