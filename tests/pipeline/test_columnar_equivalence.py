"""Columnar-vs-serial equivalence: the acceptance suite of the frame path.

The columnar ingest-to-match path (``RankFrame`` + ``reduce_frame`` + the
frame-fed sweep engine) must be invisible in the output: for every one of the
nine similarity metrics, over every source kind (in-memory, text file,
``.rpb`` file) and every dispatch mode (serial inline, sharded pool), the
reduced trace must serialize byte-identical to the segment-at-a-time
:class:`~repro.core.reference.ReferenceReducer` scan run over the *same*
source's segment stream.

Oracles are matched to the source deliberately: text files quantize
timestamps to two decimals, so a file's oracle legitimately differs from the
in-memory trace it was written from.
"""

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reduced import ReducedTrace
from repro.core.reducer import TraceReducer
from repro.core.reference import ReferenceReducer
from repro.pipeline.engine import PipelineConfig, reduce_pipeline, sweep_pipeline
from repro.pipeline.stream import rank_frame_streams, rank_segment_streams
from repro.sweep.engine import sweep_source
from repro.sweep.plan import SweepConfig
from repro.trace.formats import convert_trace
from repro.trace.io import serialize_reduced_trace, write_trace

DISTANCE_METHODS = [
    "relDiff",
    "absDiff",
    "manhattan",
    "euclidean",
    "chebyshev",
    "avgWave",
    "haarWave",
]


@pytest.fixture(scope="module")
def raw_trace():
    return late_sender(nprocs=4, iterations=6, seed=3).run()


@pytest.fixture(scope="module")
def text_path(raw_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("columnar") / "trace.txt"
    write_trace(raw_trace, path)
    return path


@pytest.fixture(scope="module")
def rpb_path(text_path, tmp_path_factory):
    # text -> rpb so both files hold the same (quantized) values and share
    # one oracle per metric
    path = tmp_path_factory.mktemp("columnar") / "trace.rpb"
    convert_trace(text_path, path)
    return path


def _oracle(source, metric_name: str, name: str = "trace") -> bytes:
    reducer = ReferenceReducer(create_metric(metric_name))
    reduced = ReducedTrace(
        name=name, method=reducer.metric.name, threshold=reducer.metric.threshold
    )
    for rank, segments in rank_segment_streams(source):
        reduced.ranks.append(reducer.reduce_segments(segments, rank=rank))
    return serialize_reduced_trace(reduced)


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
class TestReduceFrame:
    def test_matches_reduce_segments(self, small_late_sender_trace, metric_name):
        """reduce_frame over adapter frames == the reference scan, per rank."""
        frame_reducer = TraceReducer(create_metric(metric_name))
        oracle_reducer = ReferenceReducer(create_metric(metric_name))
        framed = ReducedTrace(name="t", method=frame_reducer.metric.name,
                              threshold=frame_reducer.metric.threshold)
        oracle = ReducedTrace(name="t", method=framed.method, threshold=framed.threshold)
        for rank, frame in rank_frame_streams(small_late_sender_trace):
            framed.ranks.append(frame_reducer.reduce_frame(frame))
        for rank, segments in rank_segment_streams(small_late_sender_trace):
            oracle.ranks.append(oracle_reducer.reduce_segments(segments, rank=rank))
        assert serialize_reduced_trace(framed) == serialize_reduced_trace(oracle)


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
class TestPipelineByteIdentity:
    def test_serial_in_memory(self, small_late_sender_trace, metric_name):
        result = reduce_pipeline(
            small_late_sender_trace,
            create_metric(metric_name),
            PipelineConfig(executor="serial"),
        )
        assert serialize_reduced_trace(result.reduced) == _oracle(
            small_late_sender_trace, metric_name, small_late_sender_trace.name
        )

    def test_serial_text_file(self, text_path, metric_name):
        result = reduce_pipeline(
            str(text_path), create_metric(metric_name), PipelineConfig(executor="serial")
        )
        assert serialize_reduced_trace(result.reduced) == _oracle(
            str(text_path), metric_name, text_path.stem
        )

    def test_serial_rpb_file(self, rpb_path, metric_name):
        result = reduce_pipeline(
            str(rpb_path), create_metric(metric_name), PipelineConfig(executor="serial")
        )
        assert serialize_reduced_trace(result.reduced) == _oracle(
            str(rpb_path), metric_name, rpb_path.stem
        )

    def test_sharded_rpb_file(self, rpb_path, metric_name):
        result = reduce_pipeline(
            str(rpb_path),
            create_metric(metric_name),
            PipelineConfig(executor="thread", workers=2),
        )
        assert result.stats.dispatch == "shard"
        assert serialize_reduced_trace(result.reduced) == _oracle(
            str(rpb_path), metric_name, rpb_path.stem
        )


class TestSweepByteIdentity:
    PLAN = [SweepConfig(m, create_metric(m).threshold) for m in METRIC_NAMES]

    def _check(self, result, source):
        for outcome in result.outcomes:
            assert serialize_reduced_trace(outcome.reduced) == _oracle(
                source, outcome.config.method, result.name
            )

    def test_inline_in_memory(self, small_late_sender_trace):
        self._check(
            sweep_source(small_late_sender_trace, self.PLAN), small_late_sender_trace
        )

    def test_inline_text_file(self, text_path):
        self._check(sweep_source(str(text_path), self.PLAN), str(text_path))

    def test_inline_rpb_file(self, rpb_path):
        self._check(sweep_source(str(rpb_path), self.PLAN), str(rpb_path))

    def test_sharded_rpb_file(self, rpb_path):
        result = sweep_pipeline(
            str(rpb_path), self.PLAN, PipelineConfig(executor="thread", workers=2)
        )
        assert result.stats.dispatch == "shard"
        self._check(result, str(rpb_path))


class TestLazyStreamFrames:
    def test_text_stream_frames_equal_list_built_frames(self, tmp_path):
        """Frames built from the forward-only text reader match list-built ones.

        Regression: the adapter's by-object MPI intern memo was keyed on
        ``id()`` without pinning the object, so on lazy streams — where each
        segment dies as soon as it is consumed — a fresh ``MpiCallInfo``
        allocated at a dead one's address inherited the wrong table index,
        silently merging distinct MPI signatures.  Needs a trace with many
        signatures (sweep3d, 32 ranks) to surface; late_sender is too small.
        """
        from repro.core.frames import RankFrame
        from repro.experiments.config import build_workload, get_scale

        trace = build_workload("sweep3d_32p", get_scale("smoke")).run()
        path = tmp_path / "sweep3d.txt"
        write_trace(trace, path)
        stream_frames = dict(rank_frame_streams(str(path)))
        for rank, segments in rank_segment_streams(str(path)):
            from_list = RankFrame.from_segments(rank, list(segments))
            from_stream = stream_frames[rank]
            assert from_list.mpi_table == from_stream.mpi_table
            assert from_list.ev_mpi.tobytes() == from_stream.ev_mpi.tobytes()
            assert from_list.ev_starts.tobytes() == from_stream.ev_starts.tobytes()
            assert from_list.strings == from_stream.strings


class TestLazyMaterializationStats:
    def test_distance_metric_materializes_only_representatives(self, rpb_path):
        result = reduce_pipeline(
            str(rpb_path), create_metric("relDiff"), PipelineConfig(executor="serial")
        )
        stats = result.stats
        n_stored = sum(len(rank.stored) for rank in result.reduced.ranks)
        # default on_match never touches the segment object, so only stored
        # representatives are materialized
        assert stats.segments_materialized == n_stored
        assert 0 < stats.segments_materialized < stats.n_segments

    def test_scan_metric_materializes_everything(self, rpb_path):
        result = reduce_pipeline(
            str(rpb_path), create_metric("iter_k"), PipelineConfig(executor="serial")
        )
        assert result.stats.segments_materialized == result.stats.n_segments

    def test_stats_rows_and_registry(self, rpb_path):
        from repro import obs

        recorder = obs.Recorder(label="test")
        with obs.local_recording(recorder):
            result = reduce_pipeline(
                str(rpb_path), create_metric("relDiff"), PipelineConfig(executor="serial")
            )
        labels = [row[0] for row in result.stats.rows()]
        assert "segments materialized (lazy)" in labels
        counter = recorder.registry.counter("columnar.materialized")
        assert counter.get() == result.stats.segments_materialized

    def test_sweep_stats_rows_and_registry(self, rpb_path):
        from repro import obs

        plan = [SweepConfig("relDiff", create_metric("relDiff").threshold)]
        recorder = obs.Recorder(label="test")
        with obs.local_recording(recorder):
            result = sweep_source(str(rpb_path), plan)
        stats = result.stats
        labels = [row[0] for row in stats.rows()]
        assert "segments materialized (lazy)" in labels
        assert 0 < stats.segments_materialized < stats.n_segments
        assert (
            recorder.registry.counter("columnar.materialized").get()
            == stats.segments_materialized
        )
