"""Freeze and resume reduction sessions.

A checkpoint is one pickle payload holding the session's complete state:
config, metric, per-rank representative stores (with their candidate-matrix
and pruning-index columns), partially reduced outputs, open segmenters,
chained digests, and flush watermarks.  A session restored from it — in the
same process or a fresh one — continues **bit-identically**: the reduced
bytes and stats of checkpoint → restore → finish equal those of an
uninterrupted run.

Two properties make that work:

* Everything is pickled in a *single* payload, so pickle's memo preserves
  object sharing — a representative referenced by both the store and the
  already-emitted output is one object after restore too, which matters for
  ``iter_avg`` (matches mutate stored timestamps) and for count updates.
* Keys and candidate state rehash/rebuild on restore
  (:class:`~repro.core.frames.InternedKey` re-derives its cached hash;
  candidate matrices re-grow from their trimmed copies), so checkpoints are
  portable across processes with different string-hash salts.

The reducer itself is *not* pickled — it is stateless given the metric — and
is rebuilt around the restored metric, so checkpoints stay small and stable
across reducer-internals refactors.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro import obs
from repro.core.reducer import TraceReducer
from repro.service.session import ReductionSession

__all__ = [
    "STATE_VERSION",
    "session_state",
    "restore_state",
    "save_checkpoint",
    "load_checkpoint",
]

#: Bump when the payload layout changes; restores reject other versions
#: instead of resuming from a misread state.  Version 2 dropped the
#: ``batch``/``prune`` fields from the pickled :class:`SessionConfig`.
STATE_VERSION = 2


def session_state(session: ReductionSession) -> bytes:
    """Serialize a session's complete state to bytes."""
    with obs.span("service.checkpoint", session=session.name):
        payload = {
            "version": STATE_VERSION,
            "name": session.name,
            "config": session.config,
            "metric": session.metric,
            "seq": session.seq,
            "finished": session.finished,
            "stats": session.stats,
            "ranks": session._ranks,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def restore_state(data: bytes) -> ReductionSession:
    """Rebuild a live session from :func:`session_state` bytes."""
    with obs.span("service.restore"):
        payload = pickle.loads(data)
        version = payload.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported session checkpoint version {version!r}; "
                f"this build reads version {STATE_VERSION}"
            )
        session = ReductionSession.__new__(ReductionSession)
        session.name = payload["name"]
        session.config = payload["config"]
        # The restored metric instance, not a fresh one: candidate lists in
        # the stores hold it as their owner, and ``iter_avg`` keeps per-run
        # state nowhere else — identity must survive the round trip.
        session.metric = payload["metric"]
        session.reducer = TraceReducer(session.metric)
        session.seq = payload["seq"]
        session.stats = payload["stats"]
        session._ranks = payload["ranks"]
        session._finished = payload["finished"]
    return session


def save_checkpoint(session: ReductionSession, path: str | Path) -> int:
    """Write a session checkpoint file; returns bytes written."""
    data = session_state(session)
    Path(path).write_bytes(data)
    return len(data)


def load_checkpoint(path: str | Path) -> ReductionSession:
    """Restore a session from a checkpoint file."""
    return restore_state(Path(path).read_bytes())
