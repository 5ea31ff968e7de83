"""Checkpoint/restore: a resumed session continues bit-identically.

Covers the pickle satellites (stores and candidate lists round-trip with
their PR 8 summary-index columns intact) and the end-to-end guarantee:
checkpoint mid-trace, restore — in this process or a freshly spawned one —
finish, and the reduced bytes, digest, and stats equal an uninterrupted
run's, including when bounded-store evictions happen on both sides of the
checkpoint.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.benchmarks_ats import late_sender
from repro.core.candidates import CandidateList
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reduced import StoredSegment
from repro.pipeline.store import LRUStore, UnboundedStore
from repro.pipeline.stream import rank_segment_streams
from repro.service import (
    ReductionSession,
    SessionConfig,
    load_checkpoint,
    restore_state,
    save_checkpoint,
    session_state,
)
from repro.trace.io import serialize_reduced_trace


@pytest.fixture(scope="module")
def trace():
    return late_sender(nprocs=4, iterations=8, seed=3).run().segmented()


@pytest.fixture(scope="module")
def streams(trace):
    return {rank: list(segments) for rank, segments in rank_segment_streams(trace)}


def _run_split(config, streams, split, checkpoint=lambda s: restore_state(session_state(s))):
    """First halves → checkpoint hook → second halves → finish."""
    session = ReductionSession("t", config)
    for rank, segments in streams.items():
        session.append_segments(rank, segments[:split])
    session.flush()
    session = checkpoint(session)
    for rank, segments in streams.items():
        session.append_segments(rank, segments[split:])
    return session.finish()


def _run_straight(config, streams):
    session = ReductionSession("t", config)
    for rank, segments in streams.items():
        session.append_segments(rank, segments)
    return session.finish()


class TestStorePickles:
    """Satellite: stores round-trip with the summary-index columns intact."""

    def _populated_bucket(self, store, segments):
        metric = create_metric("euclidean")
        for i, segment in enumerate(segments):
            relative = segment.relative_to_start()
            key = "k"
            stored = StoredSegment(segment_id=i, segment=relative)
            vector = np.asarray(relative.timestamps(), dtype=float)
            if hasattr(store, "add_built"):
                store.add_built(key, stored, metric, vector)
            else:
                store.add(key, stored)
        return metric

    @pytest.mark.parametrize("make", [UnboundedStore, lambda: LRUStore(64)])
    def test_round_trip_preserves_columns_and_counters(self, streams, make):
        store = make()
        segments = streams[0][:6]
        self._populated_bucket(store, segments)
        store.candidates("k")
        store.candidates("missing")
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == len(store)
        assert clone.counters.lookups == store.counters.lookups
        assert clone.counters.misses == store.counters.misses
        bucket, bucket_clone = store.candidates("k"), clone.candidates("k")
        assert [s.segment_id for s in bucket_clone] == [s.segment_id for s in bucket]
        # The PR 8 pruning-index columns survive: matrix rows, scales, and
        # norm summaries equal the original's built prefix.
        assert isinstance(bucket_clone, CandidateList)
        np.testing.assert_array_equal(bucket_clone._matrix, bucket._matrix[: bucket._built])
        if bucket._scales is not None:
            np.testing.assert_array_equal(
                bucket_clone._scales, bucket._scales[: bucket._built]
            )
        if bucket._summaries is not None:
            np.testing.assert_array_equal(
                bucket_clone._summaries, bucket._summaries[: bucket._built]
            )

    def test_restored_bucket_keeps_growing(self, streams):
        # The growth rule doubles the matrix row count; a restored bucket
        # must re-grow cleanly from its trimmed copy (including the
        # zero-rows-into-None normalization for unbuilt buckets).
        store = LRUStore(64)
        metric = self._populated_bucket(store, streams[0][:3])
        clone = pickle.loads(pickle.dumps(store))
        for i, segment in enumerate(streams[0][3:9]):
            relative = segment.relative_to_start()
            clone.add_built(
                "k",
                StoredSegment(segment_id=100 + i, segment=relative),
                metric,
                np.asarray(relative.timestamps(), dtype=float),
            )
        assert len(clone.candidates("k")) == 9

    def test_empty_candidate_list_round_trip(self):
        bucket = CandidateList()
        clone = pickle.loads(pickle.dumps(bucket))
        assert len(clone) == 0
        assert clone._matrix is None and clone._built == 0

    def test_lru_recency_order_survives(self, streams):
        store = LRUStore(64)
        for i, key in enumerate(("a", "b", "c")):
            store.add(key, StoredSegment(segment_id=i, segment=streams[0][i].relative_to_start()))
        store.candidates("a")  # touch: order becomes b, c, a
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone._by_key) == list(store._by_key) == ["b", "c", "a"]


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
def test_checkpoint_mid_trace_is_bit_identical(streams, metric_name):
    config = SessionConfig(metric_name)
    straight = _run_straight(config, streams)
    resumed = _run_split(config, streams, split=9)
    assert serialize_reduced_trace(resumed.reduced) == serialize_reduced_trace(
        straight.reduced
    )
    assert resumed.digest == straight.digest


def test_checkpoint_with_bounded_store_evictions(streams):
    # Capacity small enough that evictions happen before AND after the
    # checkpoint; the restored store must carry its LRU order and trimmed
    # candidate columns so post-restore evictions pick identical victims.
    config = SessionConfig("relDiff", store_capacity=3)
    straight = _run_straight(config, streams)
    resumed = _run_split(config, streams, split=9)
    assert serialize_reduced_trace(resumed.reduced) == serialize_reduced_trace(
        straight.reduced
    )
    assert straight.reduced.ranks[0].n_segments == len(streams[0])


def test_checkpoint_preserves_stats_and_seq(streams):
    config = SessionConfig("relDiff")
    session = ReductionSession("t", config)
    for rank, segments in streams.items():
        session.append_segments(rank, segments[:5])
    session.flush()
    clone = restore_state(session_state(session))
    assert clone.seq == session.seq
    assert clone.stats.segments == session.stats.segments
    assert clone.stats.appends == session.stats.appends
    assert clone.stats.match.calls == session.stats.match.calls
    assert clone.name == session.name and clone.config == session.config
    assert clone.live_representatives == session.live_representatives


def test_checkpoint_mid_record_stream():
    # A checkpoint taken while a segment is half-assembled (open segmenter
    # state) must resume without losing or duplicating records.
    config = SessionConfig("relDiff")
    raw = late_sender(nprocs=2, iterations=5, seed=7).run()
    straight = ReductionSession("t", config)
    for rank_trace in raw.ranks:
        straight.append_records(rank_trace.rank, rank_trace.records)
    want = straight.finish()

    session = ReductionSession("t", config)
    for rank_trace in raw.ranks:
        cut = len(rank_trace.records) // 2 + 1  # lands mid-segment
        session.append_records(rank_trace.rank, rank_trace.records[:cut])
        session = restore_state(session_state(session))
        session.append_records(rank_trace.rank, rank_trace.records[cut:])
    got = session.finish()
    assert serialize_reduced_trace(got.reduced) == serialize_reduced_trace(want.reduced)
    assert got.digest == want.digest


def test_checkpoint_file_round_trip(streams, tmp_path):
    config = SessionConfig("euclidean", store_capacity=4)
    path = tmp_path / "session.ckpt"

    def through_file(session):
        assert save_checkpoint(session, path) == path.stat().st_size
        return load_checkpoint(path)

    straight = _run_straight(config, streams)
    resumed = _run_split(config, streams, split=7, checkpoint=through_file)
    assert serialize_reduced_trace(resumed.reduced) == serialize_reduced_trace(
        straight.reduced
    )


def test_restore_rejects_unknown_version(streams):
    session = ReductionSession("t", SessionConfig("relDiff"))
    payload = pickle.loads(session_state(session))
    payload["version"] = 999
    with pytest.raises(ValueError, match="version"):
        restore_state(pickle.dumps(payload))


def test_restore_rejects_version_1_payload(streams, tmp_path):
    # Version 1 pickled a SessionConfig that still carried the batch/prune
    # matcher fields; such a payload must be refused, not resumed.
    session = ReductionSession("t", SessionConfig("relDiff"))
    rank, segments = next(iter(streams.items()))
    session.append_segments(rank, segments[:5])
    payload = pickle.loads(session_state(session))
    config = payload["config"]
    object.__setattr__(config, "batch", True)
    object.__setattr__(config, "prune", True)
    payload["version"] = 1
    data = pickle.dumps(payload)
    with pytest.raises(ValueError, match="version 1"):
        restore_state(data)
    path = tmp_path / "v1.ckpt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="version 1"):
        load_checkpoint(path)


def _finish_in_child(checkpoint_path, tail, out_path):
    """Spawn target: restore from file, append the tail, write reduced bytes."""
    session = load_checkpoint(checkpoint_path)
    for rank, segments in tail.items():
        session.append_segments(rank, segments)
    result = session.finish()
    with open(out_path, "wb") as handle:
        handle.write(serialize_reduced_trace(result.reduced))
        handle.write(b"\n--digest--\n")
        handle.write(result.digest.encode())


@pytest.mark.parametrize("metric_name", ["relDiff", "iter_avg"])
def test_restore_in_fresh_process(streams, tmp_path, metric_name):
    # The hard cross-process case: a spawned interpreter has a different
    # string-hash salt, so interned keys and store buckets must rehash on
    # restore; iter_avg additionally requires store/output object sharing to
    # survive the round trip.
    config = SessionConfig(metric_name, store_capacity=5)
    straight = _run_straight(config, streams)
    want = serialize_reduced_trace(straight.reduced)

    session = ReductionSession("t", config)
    split = 9
    for rank, segments in streams.items():
        session.append_segments(rank, segments[:split])
    checkpoint_path = tmp_path / "mid.ckpt"
    save_checkpoint(session, checkpoint_path)

    tail = {rank: segments[split:] for rank, segments in streams.items()}
    out_path = tmp_path / "child.out"
    ctx = multiprocessing.get_context("spawn")
    child = ctx.Process(
        target=_finish_in_child, args=(str(checkpoint_path), tail, str(out_path))
    )
    child.start()
    child.join(timeout=120)
    assert child.exitcode == 0
    payload, digest = out_path.read_bytes().split(b"\n--digest--\n")
    assert payload == want
    assert digest.decode() == straight.digest
