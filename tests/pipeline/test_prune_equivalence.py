"""Pruned vs dense vs scalar-scan byte identity, on buckets deep enough that
the pruning machinery actually engages.

The randomized batch-vs-scan suite (``test_match_equivalence``) runs on
shallow buckets, where ``match_row`` takes the inline dense kernel and the
blocked/prefiltered probe never fires.  This suite builds traces whose
representative stores grow past :data:`FIRST_BLOCK` (blocked early-exit scan)
and past :data:`PRUNE_MIN_ROWS` (summary prefilter), then checks all three
modes — ``"pruned"`` (the production ``TraceReducer``), ``"dense"`` (the
reference dense kernel), ``"scan"`` (the paper's scalar scan) — produce
byte-identical reduced traces, from the in-memory trace and from
text/``.rpb`` files.

Timestamps are multiples of 0.25 µs, which the two-decimal text format
round-trips exactly, so every source holds identical float64 values and one
reference serialization covers them all.
"""

import numpy as np
import pytest

from repro.core.candidates import MatchCounters
from repro.core.frametrace import FrameTrace
from repro.core.metrics import create_metric
from repro.core.metrics.base import FIRST_BLOCK, PRUNE_MIN_ROWS
from repro.core.reducer import TraceReducer
from repro.core.reference import ReferenceReducer
from repro.trace.events import MpiCallInfo
from repro.trace.io import serialize_reduced_trace, write_trace
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.trace import RankTrace, Trace

#: (metric, threshold) grid for the medium workload: strict settings match
#: only exact duplicates, loose ones also accept near misses, so both the
#: match and store branches run at every bucket depth.
MEDIUM_CONFIGS = [
    ("relDiff", 0.01),
    ("relDiff", 0.9),
    ("absDiff", 0.1),
    ("absDiff", 5.0),
    ("manhattan", 0.01),
    ("manhattan", 0.5),
    ("euclidean", 0.001),
    ("euclidean", 0.5),
    ("chebyshev", 0.001),
    ("chebyshev", 0.5),
    ("avgWave", 0.01),
    ("avgWave", 0.5),
    ("haarWave", 0.01),
    ("haarWave", 0.5),
    ("iter_k", 10),
    ("iter_avg", None),
]

#: Deep-workload configs (vectorized modes only; the O(n²) scalar scan runs
#: on a single config to bound runtime).
DEEP_CONFIGS = [
    ("relDiff", 0.01),
    ("absDiff", 0.1),
    ("manhattan", 0.01),
    ("euclidean", 0.001),
    ("chebyshev", 0.001),
    ("avgWave", 0.01),
    ("haarWave", 0.01),
]


def _jittered_records(
    rng: np.random.Generator, rank: int, n_segments: int, pool_size: int
) -> list[TraceRecord]:
    """One rank of loop iterations drawn from a pool of jitter patterns.

    Drawing measurement patterns from a finite pool makes exact repeats occur
    at controllable depth — matches land deep inside the bucket, where the
    blocked scan and the prefilter must preserve first-match order.  All
    timestamps are multiples of 0.25 µs (see module docstring).
    """
    pool = rng.integers(1, 33, size=(pool_size, 7))
    records: list[TraceRecord] = []
    t = 0.0
    for _ in range(n_segments):
        steps = pool[int(rng.integers(pool_size))]
        records.append(TraceRecord(RecordKind.SEGMENT_BEGIN, rank, t, "main.1"))
        cursor = t
        for e in range(3):
            start = cursor + 0.25 * int(steps[2 * e])
            end = start + 0.25 * int(steps[2 * e + 1])
            name = f"loop_f{e}"
            mpi = MpiCallInfo(op="barrier") if e == 2 else None
            records.append(TraceRecord(RecordKind.ENTER, rank, start, name, mpi=mpi))
            records.append(TraceRecord(RecordKind.EXIT, rank, end, name))
            cursor = end
        seg_end = cursor + 0.25 * int(steps[6])
        records.append(TraceRecord(RecordKind.SEGMENT_END, rank, seg_end, "main.1"))
        t = seg_end + 0.25
    return records


def _pooled_trace(seed: int, n_segments: int, pool_size: int, name: str) -> Trace:
    rng = np.random.default_rng(seed)
    return Trace(
        name=name,
        ranks=[RankTrace(rank=0, records=_jittered_records(rng, 0, n_segments, pool_size))],
    )


@pytest.fixture(scope="module")
def medium_trace():
    # Pool of ~3·FIRST_BLOCK patterns: the store outgrows the shallow-bucket
    # fast path, but stays below the prefilter gate — the blocked early-exit
    # scan is what runs.
    return _pooled_trace(seed=42, n_segments=360, pool_size=3 * FIRST_BLOCK, name="medium")


@pytest.fixture(scope="module")
def deep_trace():
    # Pool larger than PRUNE_MIN_ROWS: once enough distinct patterns are
    # stored, every probe crosses the prefilter gate.
    return _pooled_trace(
        seed=43, n_segments=PRUNE_MIN_ROWS + 400, pool_size=PRUNE_MIN_ROWS + 200, name="deep"
    )


def _reduce_bytes(trace, metric_name, threshold, *, mode="pruned", counters=None):
    metric = create_metric(metric_name, threshold)
    if mode == "pruned":
        reducer = TraceReducer(metric)
    else:
        reducer = ReferenceReducer(metric, mode)
    segmented = trace.segmented() if isinstance(trace, Trace) else trace
    return serialize_reduced_trace(reducer.reduce(segmented, match_counters=counters))


class TestBlockedScanEquivalence:
    @pytest.mark.parametrize("metric_name,threshold", MEDIUM_CONFIGS)
    def test_three_modes_byte_identical(self, medium_trace, metric_name, threshold):
        scanned = _reduce_bytes(medium_trace, metric_name, threshold, mode="scan")
        dense = _reduce_bytes(medium_trace, metric_name, threshold, mode="dense")
        pruned = _reduce_bytes(medium_trace, metric_name, threshold)
        assert dense == scanned
        assert pruned == scanned

    def test_buckets_are_deep_enough(self, medium_trace):
        # Guard the fixture's premise: the store must outgrow FIRST_BLOCK or
        # this suite silently degenerates into the shallow-bucket tests.
        reduced = TraceReducer(create_metric("euclidean", 0.001)).reduce(
            medium_trace.segmented()
        )
        assert reduced.n_stored > FIRST_BLOCK


class TestPrefilterEquivalence:
    @pytest.mark.parametrize("metric_name,threshold", DEEP_CONFIGS)
    def test_pruned_matches_dense(self, deep_trace, metric_name, threshold):
        counters = MatchCounters()
        dense = _reduce_bytes(deep_trace, metric_name, threshold, mode="dense")
        pruned = _reduce_bytes(deep_trace, metric_name, threshold, counters=counters)
        assert pruned == dense
        # The prefilter must actually have engaged — otherwise this test is
        # vacuously re-running the dense kernel.
        assert counters.rows_pruned > 0, f"{metric_name} prefilter never engaged"

    def test_scalar_scan_oracle(self, deep_trace):
        # One config against the O(n²) paper scan keeps the whole chain
        # anchored: scan == dense == pruned at prefilter depth.
        scanned = _reduce_bytes(deep_trace, "absDiff", 0.1, mode="scan")
        pruned = _reduce_bytes(deep_trace, "absDiff", 0.1)
        assert pruned == scanned

    def test_store_outgrows_prefilter_gate(self, deep_trace):
        reduced = TraceReducer(create_metric("euclidean", 0.001)).reduce(
            deep_trace.segmented()
        )
        assert reduced.n_stored >= PRUNE_MIN_ROWS


class TestAcrossSources:
    @pytest.fixture(scope="class")
    def medium_files(self, medium_trace, tmp_path_factory):
        root = tmp_path_factory.mktemp("prune_sources")
        text = root / "medium.txt"
        rpb = root / "medium.rpb"
        write_trace(medium_trace, text)
        write_trace(medium_trace, rpb)
        return {"text": text, "rpb": rpb}

    @pytest.mark.parametrize("metric_name,threshold", [("euclidean", 0.001), ("absDiff", 0.1)])
    def test_all_modes_all_sources_byte_identical(
        self, medium_trace, medium_files, metric_name, threshold
    ):
        reference = _reduce_bytes(medium_trace, metric_name, threshold, mode="scan")
        sources = {
            "memory": medium_trace.segmented(),
            "text": FrameTrace.from_file(medium_files["text"]),
            "rpb": FrameTrace.from_file(medium_files["rpb"]),
        }
        for label, source in sources.items():
            for mode in ("pruned", "dense", "scan"):
                got = _reduce_bytes(source, metric_name, threshold, mode=mode)
                assert got == reference, f"{label} source diverged under {mode}"
