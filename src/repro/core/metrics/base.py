"""Similarity-metric interface.

The reducer performs the structural checks itself (same context, same events
in the same order, same MPI parameters — the ``compareSegments`` pre-checks of
the paper) and hands the metric only *structurally identical* candidates.  The
metric then decides whether the measurements are similar enough for a match.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Hashable, Optional, Sequence

import numpy as np

from repro.core.candidates import CandidateList, first_match_index
from repro.core.reduced import StoredSegment
from repro.trace.segments import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.core.frames import RankFrame

__all__ = [
    "SimilarityMetric",
    "DistanceMetric",
    "PRUNE_REL",
    "PRUNE_EPS",
    "PRUNE_TINY",
    "FIRST_BLOCK",
    "BLOCK_GROWTH",
    "PRUNE_MIN_ROWS",
    "PRUNE_FALLBACK_DENOM",
]

# -- pruning soundness slack ---------------------------------------------------
#
# The prune prefilter compares float-computed norm bounds, so a mathematically
# necessary condition could still reject a row the exact kernel would match if
# rounding pushed the computed bound a few ulps past the limit.  Every
# ``prune_stats`` therefore subtracts a conservative slack from its statistic
# and ``prune_mask`` widens the limit multiplicatively; enlarging either only
# keeps *more* rows, so correctness never depends on their exact values.

#: Relative widening of the prune limit (covers rounding of ``t * base``).
PRUNE_REL = 1.0 + 1e-9

#: Relative slack on the norm difference, scaled by the norms' magnitudes
#: (covers the ~n·eps accumulation error of a float norm reduction).
PRUNE_EPS = 1e-10

#: Absolute slack floor (covers subnormal underflow: squared sub-normal
#: differences can flush to zero, making a computed distance 0 while the
#: norms still differ by a tiny amount).
PRUNE_TINY = 1e-140

#: Blocked early-exit schedule: candidates are probed in insertion-order
#: blocks of FIRST_BLOCK, FIRST_BLOCK*BLOCK_GROWTH, ... rows; the scan stops
#: at the first block containing a match.  Buckets no deeper than FIRST_BLOCK
#: bypass the machinery entirely with a single exact kernel call.
FIRST_BLOCK = 64
BLOCK_GROWTH = 4

#: Minimum bucket depth before the summary prefilter engages.  Below this the
#: exact kernel's row matrix is small enough that the prefilter's extra array
#: operations cost more than the rows they would skip — the prefilter is an
#: *asymptotic* optimisation whose win grows with store depth.
PRUNE_MIN_ROWS = 512

#: When the prefilter keeps more than 1/PRUNE_FALLBACK_DENOM of a bucket's
#: rows (the store's summaries cluster tighter than the match limit), the
#: survivor gather would cost more than it skips; the probe falls back to the
#: blocked early-exit scan over the raw rows.
PRUNE_FALLBACK_DENOM = 4


class SimilarityMetric(ABC):
    """Decides whether a new segment matches one of the stored representatives."""

    #: Paper name of the method (e.g. ``"relDiff"``); set by subclasses.
    name: str = "abstract"

    #: Threshold value (method specific meaning); ``None`` for iter_avg.
    threshold: Optional[float] = None

    #: True when :meth:`on_match` mutates the chosen representative's
    #: timestamps (``iter_avg``); the reducer then refreshes cached rows.
    mutates_stored: bool = False

    @abstractmethod
    def match(self, candidate: Segment, stored: Sequence[StoredSegment]) -> Optional[StoredSegment]:
        """Return the stored segment the candidate matches, or None.

        ``candidate`` has already been normalised (timestamps relative to the
        segment start) and every element of ``stored`` has the same structure
        as the candidate.  Implementations must scan ``stored`` in order and
        return the *first* match, mirroring the paper's algorithm.
        """

    def on_match(self, candidate: Segment, chosen: StoredSegment) -> None:
        """Hook invoked after a successful match (default: count it)."""
        chosen.count += 1

    def describe(self) -> str:
        """Human-readable method description, e.g. ``"relDiff(0.8)"``."""
        if self.threshold is None:
            return self.name
        return f"{self.name}({self.threshold:g})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class DistanceMetric(SimilarityMetric):
    """Base class for threshold-based distance methods.

    Subclasses implement :meth:`similar`, which receives the two segments'
    timestamp vectors (canonical layout: event start/end pairs followed by the
    segment end, all relative to the segment start) plus the segments
    themselves for methods that need a different vector layout.
    """

    def __init__(self, threshold: float):
        if threshold < 0:
            raise ValueError(f"{self.name} threshold must be non-negative, got {threshold}")
        self.threshold = float(threshold)

    @abstractmethod
    def similar(
        self,
        new_ts: np.ndarray,
        stored_ts: np.ndarray,
        new_segment: Segment,
        stored_segment: Segment,
    ) -> bool:
        """Return True if the two measurement vectors are similar enough."""

    def match(self, candidate: Segment, stored: Sequence[StoredSegment]) -> Optional[StoredSegment]:
        new_ts = np.asarray(candidate.timestamps(), dtype=float)
        for entry in stored:
            stored_ts = entry.timestamps()
            if self.similar(new_ts, stored_ts, candidate, entry.segment):
                return entry
        return None

    # -- batched matching ------------------------------------------------------

    def vector_key(self) -> Hashable:
        """Cache key of this metric's vector layout on :class:`StoredSegment`.

        Metrics sharing a layout (e.g. relDiff and absDiff, which both use
        the canonical pairwise vector) share cached vectors.
        """
        return "pairwise"

    def build_vector(self, segment: Segment) -> np.ndarray:
        """This metric's feature vector of one (normalised) segment."""
        return np.asarray(segment.timestamps(), dtype=float)

    def candidate_vector(self, stored: StoredSegment) -> np.ndarray:
        """Feature vector of a stored representative, memoized on the segment."""
        return stored.cached_vector(self.vector_key(), self.build_vector)

    def frame_vectors(self, frame: "RankFrame") -> list[np.ndarray]:
        """Every segment's feature vector, built in bulk from a columnar frame.

        The bulk layout is only taken when this instance still uses the base
        class's :meth:`build_vector` — a subclass with a custom vector layout
        silently drops to the safe per-segment fallback (materialize, then
        build), which stays bitwise-correct at the oracle's cost.
        """
        if type(self).build_vector is DistanceMetric.build_vector:
            return frame.pairwise_vectors()
        return [self.build_vector(frame.segment(i)) for i in range(frame.n_segments)]

    #: Optional hook: scalar scale of one candidate row, cached next to the
    #: row at matrix-build time and handed to :meth:`match_stats` as
    #: ``row_scales``.  None (the default) means the metric's limit does not
    #: depend on a per-row statistic, so no scale vector is maintained.
    row_scale = None

    #: Optional scalar kernel ``match_one(vector, row) -> bool``: decides one
    #: probe against one cached feature row with 1-D operations, reproducing
    #: :meth:`similar`'s decision exactly.  Metrics that define it get a
    #: depth-one fast path — a single-candidate bucket skips the ``(1, n)``
    #: axis reductions and mask bookkeeping of the dense kernel, which is
    #: what keeps the batched probe ahead of the legacy scan even when every
    #: bucket holds one representative.  None (the default) means depth-one
    #: buckets use the dense kernel like any other shallow bucket.
    match_one = None

    @abstractmethod
    def match_stats(
        self,
        vector: np.ndarray,
        matrix: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Threshold-independent per-row match statistics.

        Returns ``(stat, base)`` such that candidate row ``i`` matches the
        probe ``vector`` at threshold ``t`` iff ``stat[i] <= t * base[i]``
        (``base is None`` means a unit base: ``stat[i] <= t``).

        ``matrix`` holds one candidate feature vector per row, in insertion
        order, all built by :meth:`build_vector`; ``row_scales`` carries the
        cached :attr:`row_scale` of each row when the metric declares the
        hook.  Implementations evaluate every row in one NumPy broadcast
        using only row-wise operations and must reproduce :meth:`similar`'s
        decision for each row exactly, so batched and scanned reductions stay
        byte-identical.  Two hard requirements let the sweep engine share one
        call across a whole threshold grid:

        * the result must not depend on :attr:`threshold` (only the final
          ``stat <= t * base`` comparison does);
        * row ``i``'s results must not depend on the other rows, so
          statistics computed over several configs' stacked candidate
          matrices equal the per-config results bit for bit.
        """

    def match_batch(
        self,
        vector: np.ndarray,
        matrix: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
    ) -> Optional[int]:
        """First row of ``matrix`` similar to ``vector``, or None.

        The decision is :meth:`match_stats` compared against this metric's
        own threshold; first-match semantics mirror the scan.
        """
        stat, base = self.match_stats(vector, matrix, row_scales)
        limits = self.threshold if base is None else self.threshold * base
        return first_match_index(stat <= limits)

    #: Optional hook: scalar pruning summary of one candidate row (a norm or
    #: extremum), cached next to the row at matrix-build time and handed to
    #: :meth:`prune_stats` as ``summaries``.  None (the default) disables the
    #: pruning prefilter for the metric.
    row_summary = None

    #: Optional companion of :meth:`match_stats`: threshold-independent
    #: ``(stat, base)`` of a *necessary* match condition computed from the
    #: cached row summaries alone (O(rows), no matrix access).  A row can only
    #: match at threshold ``t`` if ``stat[i] <= t * base[i]`` (``base is
    #: None`` = unit base), so rows failing it are discarded before the exact
    #: kernel runs — first match among survivors is provably the first match
    #: overall.  Implementations must pre-subtract the float-soundness slack
    #: ``(summaries + probe_summary) * PRUNE_EPS + PRUNE_TINY`` from ``stat``
    #: so rounding can never prune a true match; the final comparison also
    #: widens the limit by :data:`PRUNE_REL`.  None (the default) means no
    #: prefilter.
    prune_stats = None

    def prune_mask(
        self,
        vector: np.ndarray,
        summaries: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Boolean survivor mask of the pruning prefilter (True = may match).

        Vectorized necessary condition at this metric's own threshold; rows
        masked False are *provably* non-matches, rows masked True still need
        the exact kernel.
        """
        stat, base = self.prune_stats(vector, summaries, row_scales)
        limit = self.threshold * PRUNE_REL
        return stat <= (limit if base is None else limit * base)

    def match_pruned(
        self,
        vector: np.ndarray,
        matrix: np.ndarray,
        row_scales: Optional[np.ndarray] = None,
        summaries: Optional[np.ndarray] = None,
        counters=None,
    ) -> Optional[int]:
        """First matching row via the pruned, blocked early-exit probe.

        Byte-identical to :meth:`match_batch` (the prefilter is a necessary
        condition and blocks are scanned in insertion order), but the exact
        kernel only sees prefilter survivors, evaluated in geometric
        insertion-order blocks with early exit on the first matching block.
        Buckets no deeper than :data:`FIRST_BLOCK` take a single lean exact
        call; the prefilter only engages on buckets of at least
        :data:`PRUNE_MIN_ROWS` rows (below that, the exact kernel is cheaper
        than the filter) and falls back to the raw blocked scan when it keeps
        more than ``1/PRUNE_FALLBACK_DENOM`` of the rows.  ``counters`` (a
        :class:`~repro.core.candidates.MatchCounters`) accumulates
        ``rows_pruned``/``blocks_evaluated`` when given.
        """
        n = matrix.shape[0]
        if n <= FIRST_BLOCK:
            if counters is not None and n:
                counters.blocks_evaluated += 1
            return self.match_batch(vector, matrix, row_scales)
        threshold = self.threshold
        survivors = None
        pruned = 0
        if (
            n >= PRUNE_MIN_ROWS
            and summaries is not None
            and self.prune_stats is not None
        ):
            # Prefilter once over the cached summary column (O(rows) scalar
            # work, no matrix access).  When it bites, the exact kernel scans
            # only the gathered survivor rows; when the store's summaries
            # cluster tighter than the match limit, the gather would cost
            # more than it skips, so the probe keeps the raw blocked scan.
            keep = self.prune_mask(vector, summaries, row_scales)
            kept = np.flatnonzero(keep)
            if kept.size * PRUNE_FALLBACK_DENOM <= n:
                survivors = kept
                pruned = n - kept.size
        # Blocked early-exit scan, over survivor rows when the prefilter
        # engaged and over the raw rows otherwise.  First-match semantics
        # hold either way: blocks follow insertion order, and pruned rows
        # provably cannot match.
        found = None
        blocks = 0
        start = 0
        block = FIRST_BLOCK
        total = n if survivors is None else survivors.size
        while start < total:
            stop = min(total, start + block)
            blocks += 1
            if survivors is None:
                chunk = None
                rows = matrix[start:stop]
                scales = row_scales[start:stop] if row_scales is not None else None
            else:
                chunk = survivors[start:stop]
                rows = matrix[chunk]
                scales = row_scales[chunk] if row_scales is not None else None
            stat, base = self.match_stats(vector, rows, scales)
            limits = threshold if base is None else threshold * base
            index = first_match_index(stat <= limits)
            if index is not None:
                found = start + index if chunk is None else int(chunk[index])
                break
            start = stop
            block *= BLOCK_GROWTH
        if counters is not None:
            counters.blocks_evaluated += blocks
            counters.rows_pruned += pruned
        return found

    def match_row(
        self,
        vector: np.ndarray,
        candidates: Sequence[StoredSegment],
        counters=None,
    ) -> Optional[StoredSegment]:
        """First representative of a bucket similar to the probe ``vector``.

        ``vector`` is the probe's :meth:`build_vector` row.  On a
        :class:`~repro.core.candidates.CandidateList` bucket, shallow buckets
        (the overwhelmingly common case at the paper's default thresholds)
        take the dense kernel inline — no summary lookups, no blocking, no
        extra call frames — and a depth-one bucket with a :attr:`match_one`
        kernel skips even that; buckets deeper than :data:`FIRST_BLOCK` take
        the pruned, blocked probe (:meth:`match_pruned`), which accumulates
        into ``counters`` when given.  Any other sequence (a custom store's
        bucket) is scanned against each representative's cached vector.
        """
        if not isinstance(candidates, CandidateList):
            row_scale = self.row_scale
            for entry in candidates:
                row = self.candidate_vector(entry)
                scales = None if row_scale is None else np.array([row_scale(row)])
                if self.match_batch(vector, row[np.newaxis], scales) is not None:
                    return entry
            return None
        if len(candidates) > FIRST_BLOCK:
            matrix, scales, summaries = candidates.matrix_scales_summaries(self)
            index = self.match_pruned(vector, matrix, scales, summaries, counters)
            return candidates[index] if index is not None else None
        matrix, scales = candidates.matrix_and_scales(self)
        if matrix.shape[0] == 1 and self.match_one is not None:
            # Scalar kernel on the cached row: 1-D ops beat a (1, n) axis
            # reduction.
            entry = candidates[0]
            return entry if self.match_one(vector, matrix[0]) else None
        stat, base = self.match_stats(vector, matrix, scales)
        mask = stat <= (self.threshold if base is None else self.threshold * base)
        if mask.size:
            index = mask.argmax()
            if mask[index]:
                return candidates[int(index)]
        return None
