"""``repro.service`` — the online reduction service.

The batch reducer consumes whole trace files; this package turns it into a
long-lived incremental engine, the "traces as live streams" direction of the
ROADMAP:

* :mod:`repro.service.session` — :class:`ReductionSession` wraps reducer +
  representative-store state per (trace, config), accepts appended
  records/segments per rank through the columnar
  :class:`~repro.core.frames.RankFrame`/``reduce_frame`` path, and emits
  reduced-trace *deltas* (new/updated representatives since the last flush).
* :mod:`repro.service.checkpoint` — serialize/restore full session state so
  a restored session continues bit-identically, in another process if need
  be.
* :mod:`repro.service.server` — an asyncio multi-tenant session manager with
  per-tenant memory budgets, LRU eviction-to-checkpoint, and bounded ingest
  queues with backpressure.
* :mod:`repro.service.cache` — content-digest result cache so identical
  (trace digest, config) requests are answered without re-reduction.

The incremental path is byte-identical to the batch
:class:`~repro.core.reducer.TraceReducer`; both run the same ``reduce_frame``
loop, and the segment-at-a-time reducers of :mod:`repro.core.reference` are
the independent oracles (``tests/service/test_session_equivalence.py``).
"""

from repro.service.cache import ResultCache, source_digest
from repro.service.checkpoint import (
    load_checkpoint,
    restore_state,
    save_checkpoint,
    session_state,
)
from repro.service.server import (
    ReductionService,
    ServiceStats,
    SessionHandle,
    SubmitResult,
)
from repro.service.session import (
    RankDelta,
    ReductionDelta,
    ReductionSession,
    SessionConfig,
    SessionResult,
    SessionStats,
)

__all__ = [
    "ReductionSession",
    "SessionConfig",
    "SessionResult",
    "SessionStats",
    "RankDelta",
    "ReductionDelta",
    "ReductionService",
    "ServiceStats",
    "SessionHandle",
    "SubmitResult",
    "ResultCache",
    "source_digest",
    "session_state",
    "restore_state",
    "save_checkpoint",
    "load_checkpoint",
]
