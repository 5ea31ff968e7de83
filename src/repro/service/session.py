"""Incremental reduction sessions.

A :class:`ReductionSession` is the batch reducer turned inside out: instead
of consuming a whole trace in one call, a session is a long-lived object that
accepts appended raw records or pre-segmented batches per rank, reduces each
batch immediately through the columnar
:class:`~repro.core.frames.RankFrame` → ``reduce_frame`` path, and can at any
point emit a *delta* — the stored representatives and execution entries added
or updated since the previous flush.

The incremental path is **byte-identical** to the batch
:class:`~repro.core.reducer.TraceReducer`: feeding a trace in any per-rank
chunking produces exactly the bytes of the one-shot reduction, because
``reduce_frame(..., into=)`` continues the same representative store and
output the batch path uses.  The session additionally chains a per-rank
content digest over everything it ingests, so a finished session knows the
digest of the trace it saw — the key the service's result cache is indexed
by.

All state (stores with their pruning-index columns, partially-open
segmenters, digests, stats) is picklable; :mod:`repro.service.checkpoint`
relies on that to freeze and resume sessions bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro import obs
from repro.core.candidates import MatchCounters
from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.core.reduced import ReducedRankTrace, ReducedTrace, StoredSegment
from repro.core.reducer import TraceReducer
from repro.pipeline.store import create_store
from repro.service.cache import chain_digest, combine_rank_digests
from repro.trace.records import TraceRecord
from repro.trace.segments import RecordSegmenter, Segment

__all__ = [
    "SessionConfig",
    "SessionStats",
    "RankDelta",
    "ReductionDelta",
    "SessionResult",
    "ReductionSession",
]


@dataclass(frozen=True)
class SessionConfig:
    """Reduction configuration of one session.

    ``method``/``threshold`` select the similarity metric (paper-default
    threshold when ``None``); ``store_capacity`` bounds the representative
    store (``None`` = unbounded).  All three participate in the cache
    :attr:`key`.
    """

    method: str
    threshold: Optional[float] = None
    store_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        create_metric(self.method, self.threshold)  # validate eagerly
        if self.store_capacity is not None and self.store_capacity < 1:
            raise ValueError(
                f"store_capacity must be >= 1 or None, got {self.store_capacity}"
            )

    @property
    def key(self) -> tuple:
        """Result-cache key: everything that can change the reduced bytes."""
        return (self.method, self.threshold, self.store_capacity)

    def describe(self) -> str:
        parts = [self.method]
        if self.threshold is not None:
            parts.append(f"t={self.threshold:g}")
        if self.store_capacity is not None:
            parts.append(f"cap={self.store_capacity}")
        return "/".join(parts)


@dataclass(slots=True)
class SessionStats:
    """Counters of one session's lifetime (append/flush activity)."""

    appends: int = 0
    records: int = 0
    segments: int = 0
    flushes: int = 0
    deltas_emitted: int = 0
    match: MatchCounters = field(default_factory=MatchCounters)


@dataclass(slots=True)
class RankDelta:
    """One rank's changes since the previous flush.

    ``new`` are representatives stored in the window (first occurrence of a
    pattern); ``updated`` are *earlier* representatives a window execution
    matched — their ``count`` advanced, and under ``iter_avg`` their stored
    timestamps moved too, so consumers must replace them.  ``execs`` are the
    window's ``segmentExecs`` entries, the complete execution record.
    """

    rank: int
    new: list[StoredSegment]
    updated: list[StoredSegment]
    execs: list[Tuple[int, float]]


@dataclass(slots=True)
class ReductionDelta:
    """Everything a flush added to the reduced trace since the last one.

    Applying deltas in ``seq`` order reconstructs exactly the reduced trace a
    batch reduction of the full stream would produce.
    """

    name: str
    method: str
    threshold: Optional[float]
    seq: int
    ranks: list[RankDelta]

    @property
    def empty(self) -> bool:
        return not self.ranks

    @property
    def n_new(self) -> int:
        return sum(len(r.new) for r in self.ranks)

    @property
    def n_updated(self) -> int:
        return sum(len(r.updated) for r in self.ranks)

    @property
    def n_execs(self) -> int:
        return sum(len(r.execs) for r in self.ranks)


@dataclass(slots=True)
class SessionResult:
    """What :meth:`ReductionSession.finish` returns.

    ``reduced`` is the complete reduced trace (identical to the batch
    oracle's), ``delta`` the final unflushed tail, and ``digest`` the content
    digest of everything the session ingested — equal to
    :func:`repro.service.cache.source_digest` of the same trace.
    """

    reduced: ReducedTrace
    delta: ReductionDelta
    digest: str


class _RankState:
    """Per-rank incremental state: store, output, segmenter, digest, marks."""

    __slots__ = (
        "rank",
        "store",
        "reduced",
        "segmenter",
        "stored_mark",
        "exec_mark",
        "digest",
        "by_id",
    )

    def __init__(self, rank: int, store_capacity: Optional[int]) -> None:
        self.rank = rank
        self.store = create_store(store_capacity)
        self.reduced = ReducedRankTrace(rank=rank)
        #: Created lazily on the first ``append_records`` — segment appends
        #: never need one, and its absence asserts the two ingestion styles
        #: are not mixed mid-segment.
        self.segmenter: Optional[RecordSegmenter] = None
        #: Flush watermarks into ``reduced.stored`` / ``reduced.execs``.
        self.stored_mark = 0
        self.exec_mark = 0
        #: Chained content digest of every segment ingested so far.
        self.digest = b""
        #: segment_id -> StoredSegment for every representative that has
        #: already been announced in a delta (lets later flushes resolve
        #: "updated" references without scanning ``reduced.stored``).
        self.by_id: dict[int, StoredSegment] = {}


class ReductionSession:
    """One live incremental reduction: a (trace, config) pair under service.

    Parameters
    ----------
    name:
        Trace/session name; carried into deltas and results.
    config:
        A :class:`SessionConfig` (or a bare method name, promoted to one).

    Appending and flushing interleave freely; :meth:`finish` seals the
    session (open per-rank segmenters must have no partial segment) and
    returns the full reduced trace plus the final delta.
    """

    def __init__(self, name: str, config: SessionConfig | str) -> None:
        if isinstance(config, str):
            config = SessionConfig(method=config)
        self.name = name
        self.config = config
        self.metric = create_metric(config.method, config.threshold)
        self.reducer = TraceReducer(self.metric)
        self.stats = SessionStats()
        self.seq = 0
        self._ranks: dict[int, _RankState] = {}
        self._finished = False

    # -- introspection -----------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def ranks(self) -> list[int]:
        """Rank ids seen so far, sorted."""
        return sorted(self._ranks)

    @property
    def n_segments(self) -> int:
        """Segments reduced so far, across ranks."""
        return sum(st.reduced.n_segments for st in self._ranks.values())

    @property
    def live_representatives(self) -> int:
        """Representatives currently held as match candidates (memory cost).

        For bounded stores this is what eviction keeps under the capacity —
        the number the service's per-tenant budget meters.
        """
        return sum(len(st.store) for st in self._ranks.values())

    def trace_digest(self) -> str:
        """Content digest of everything ingested so far (hex).

        After :meth:`finish` this equals
        :func:`~repro.service.cache.source_digest` of the same trace.
        """
        return combine_rank_digests(
            {rank: st.digest for rank, st in self._ranks.items()}
        )

    # -- ingestion ---------------------------------------------------------

    def append_records(self, rank: int, records: Iterable[TraceRecord]) -> int:
        """Push raw trace records for one rank; returns segments completed.

        Records stream through a persistent per-rank
        :class:`~repro.trace.segments.RecordSegmenter`, so a segment may span
        any number of ``append_records`` calls; only *completed* segments are
        reduced (and digested).  The open tail survives checkpoints.
        """
        state = self._rank_state(rank)
        segmenter = state.segmenter
        if segmenter is None:
            segmenter = state.segmenter = RecordSegmenter(rank)
        segments: list[Segment] = []
        n_records = 0
        for record in records:
            n_records += 1
            segment = segmenter.push(record)
            if segment is not None:
                segments.append(segment)
        self.stats.records += n_records
        return self._ingest(state, segments)

    def append_segments(self, rank: int, segments: Iterable[Segment]) -> int:
        """Push already-segmented data for one rank; returns segments taken."""
        return self._ingest(self._rank_state(rank), list(segments))

    def _rank_state(self, rank: int) -> _RankState:
        if self._finished:
            raise RuntimeError(f"session {self.name!r} is finished; cannot append")
        state = self._ranks.get(rank)
        if state is None:
            state = self._ranks[rank] = _RankState(rank, self.config.store_capacity)
        return state

    def _ingest(self, state: _RankState, segments: list[Segment]) -> int:
        n = len(segments)
        self.stats.appends += 1
        if not n:
            return 0
        with obs.span("service.append", rank=state.rank, segments=n):
            digest = state.digest
            for segment in segments:
                digest = chain_digest(digest, segment)
            state.digest = digest
            frame = RankFrame.from_segments(state.rank, segments)
            self.reducer.reduce_frame(
                frame,
                store=state.store,
                into=state.reduced,
                match_counters=self.stats.match,
            )
        self.stats.segments += n
        return n

    # -- output ------------------------------------------------------------

    def flush(self) -> ReductionDelta:
        """Emit everything reduced since the previous flush and advance.

        The delta lists, per rank with changes: newly stored representatives,
        previously announced representatives whose state changed (an
        execution matched them — count advanced, and under ``iter_avg`` the
        stored timestamps moved), and the window's execution entries.
        """
        with obs.span("service.flush", session=self.name, seq=self.seq):
            rank_deltas: list[RankDelta] = []
            for rank in sorted(self._ranks):
                state = self._ranks[rank]
                reduced = state.reduced
                new = list(reduced.stored[state.stored_mark:])
                execs = list(reduced.execs[state.exec_mark:])
                matched = reduced.exec_matched[state.exec_mark:]
                if not new and not execs:
                    continue
                for stored in new:
                    state.by_id[stored.segment_id] = stored
                new_ids = {stored.segment_id for stored in new}
                updated_ids = sorted(
                    {
                        sid
                        for (sid, _), hit in zip(execs, matched)
                        if hit and sid not in new_ids
                    }
                )
                rank_deltas.append(
                    RankDelta(
                        rank=rank,
                        new=new,
                        updated=[state.by_id[sid] for sid in updated_ids],
                        execs=execs,
                    )
                )
                state.stored_mark = len(reduced.stored)
                state.exec_mark = len(reduced.execs)
            delta = ReductionDelta(
                name=self.name,
                method=self.metric.name,
                threshold=self.metric.threshold,
                seq=self.seq,
                ranks=rank_deltas,
            )
            self.seq += 1
            self.stats.flushes += 1
            if rank_deltas:
                self.stats.deltas_emitted += 1
        return delta

    def result(self) -> ReducedTrace:
        """The complete reduced trace so far (ranks in rank order).

        The returned object shares state with the session: appending after
        taking a result mutates it.  Equals the batch oracle's output once
        the same segments have been fed.
        """
        reduced = ReducedTrace(
            name=self.name, method=self.metric.name, threshold=self.metric.threshold
        )
        for rank in sorted(self._ranks):
            reduced.ranks.append(self._ranks[rank].reduced)
        return reduced

    def finish(self) -> SessionResult:
        """Seal the session: final flush, full result, content digest.

        Raises if a record-fed rank still has a partially open segment (the
        stream ended mid-segment — finishing would silently drop data).
        """
        if self._finished:
            raise RuntimeError(f"session {self.name!r} is already finished")
        for state in self._ranks.values():
            if state.segmenter is not None:
                state.segmenter.finish()
        delta = self.flush()
        self._finished = True
        return SessionResult(
            reduced=self.result(), delta=delta, digest=self.trace_digest()
        )
