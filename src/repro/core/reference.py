"""Reference reducers: the byte-identity oracles of the production loop.

Production reduces every rank through one columnar loop,
:meth:`~repro.core.reducer.TraceReducer.reduce_frame`.  This module keeps the
independent implementations it is checked against — by the equivalence
suites, the fuzz oracles, ``--verify`` on the CLI and the match-kernel
benchmark.  It is one segment-at-a-time loop, the paper's algorithm as
written: each segment is normalised with ``relative_to_start()``, keyed by
``structure()`` and matched against its bucket.  Only the matching kernel
varies:

``"scan"``
    ``metric.match`` — one stored candidate at a time.  The ground truth.
``"dense"``
    Distance metrics evaluate the whole bucket's row matrix in one
    ``match_batch`` call: no depth-one fast path, no blocking, no prefilter.
    Pinned to the scan by the fuzz ``dense_vs_scan`` oracle, and the cheap
    oracle for deep buckets, where the scan is O(n²) in Python.  Other
    metrics scan.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional

from repro.core.candidates import CandidateList, MatchCounters
from repro.core.metrics.base import DistanceMetric, SimilarityMetric
from repro.core.reduced import ReducedRankTrace, ReducedTrace, StoredSegment
from repro.core.reducer import SegmentStore, _InlineStore
from repro.trace.segments import Segment

__all__ = ["KERNELS", "ReferenceReducer"]

#: The selectable matching kernels.
KERNELS = ("scan", "dense")


class ReferenceReducer:
    """Segment-at-a-time reducer with a selectable matching kernel.

    ``kernel`` is one of :data:`KERNELS`.  When ``match_counters`` is given,
    ``seconds`` times the matching step alone; the dense kernel's probe
    vector is built before the timer starts, as the production loop's is.
    """

    def __init__(self, metric: SimilarityMetric, kernel: str = "scan"):
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        self.metric = metric
        self.kernel = kernel

    def reduce(
        self,
        trace,
        *,
        store_factory: Optional[Callable[[], SegmentStore]] = None,
        match_counters: Optional[MatchCounters] = None,
    ) -> ReducedTrace:
        """Reduce every rank of a segmented trace, one fresh store per rank."""
        reduced = ReducedTrace(
            name=trace.name, method=self.metric.name, threshold=self.metric.threshold
        )
        for rank_trace in trace.ranks:
            reduced.ranks.append(
                self.reduce_segments(
                    rank_trace.segments,
                    rank=rank_trace.rank,
                    store=store_factory() if store_factory is not None else None,
                    match_counters=match_counters,
                )
            )
        return reduced

    def reduce_segments(
        self,
        segments: Iterable[Segment],
        *,
        rank: int = 0,
        store: Optional[SegmentStore] = None,
        match_counters: Optional[MatchCounters] = None,
    ) -> ReducedRankTrace:
        """Reduce one rank's segments (absolute timestamps, any iterable)."""
        reduced = ReducedRankTrace(rank=rank)
        if store is None:
            store = _InlineStore()
        metric = self.metric
        dense = self.kernel == "dense" and isinstance(metric, DistanceMetric)
        perf_counter = time.perf_counter

        for segment in segments:
            reduced.n_segments += 1
            relative = segment.relative_to_start()
            key = relative.structure()
            candidates = store.candidates(key)
            chosen = None
            if candidates:
                reduced.n_possible_matches += 1
                if dense and isinstance(candidates, CandidateList):
                    vector = metric.build_vector(relative)
                    started = perf_counter()
                    matrix, scales = candidates.matrix_and_scales(metric)
                    index = metric.match_batch(vector, matrix, scales)
                    chosen = candidates[index] if index is not None else None
                else:
                    started = perf_counter()
                    chosen = metric.match(relative, candidates)
                if match_counters is not None:
                    match_counters.seconds += perf_counter() - started
                    match_counters.calls += 1
                    match_counters.rows_compared += len(candidates)
            if chosen is not None:
                reduced.n_matches += 1
                reduced.execs.append((chosen.segment_id, segment.start))
                reduced.exec_matched.append(True)
                metric.on_match(relative, chosen)
                if metric.mutates_stored:
                    refresh = getattr(candidates, "refresh", None)
                    if refresh is not None:
                        refresh(chosen)
            else:
                stored = StoredSegment(segment_id=len(reduced.stored), segment=relative)
                store.add(key, stored)
                reduced.stored.append(stored)
                reduced.execs.append((stored.segment_id, segment.start))
                reduced.exec_matched.append(False)
        return reduced
