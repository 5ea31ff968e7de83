"""Candidate-scan stage: reference scan vs dense batch kernel vs pruned probe.

The matching step is the reduction's inner loop: every incoming segment is
compared against all stored representatives sharing its structural key.  This
benchmark times exactly that stage (via the reducer's match counters) on the
sweep3d workload at the default scale, three ways per configuration:

* the reference Python scan (``ReferenceReducer(metric)``) — the oracle;
* the reference dense one-shot ``match_batch`` kernel
  (``ReferenceReducer(metric, "dense")``);
* the production pruned probe (``TraceReducer(metric)``): norm-bound
  prefilter over the cached summary column plus blocked early-exit scan.

The dense and pruned timers start after the probe's feature vector is built
(the production loop builds all of a rank's vectors in one bulk frame pass
before matching), so those two compare like for like; the scan builds its
vectors inside ``metric.match``, as the paper's algorithm does.

All three reductions must be byte-identical, every configuration's pruned
probe must be at least as fast as the scan (the small-bucket floor), and the
strict-Euclidean headline must beat the scan by 3x; all are asserted, not
just recorded.

A second stage measures how the pruned probe *scales with store depth*: a
store-stress workload 10x the size of the base benchmark (jittered repeats
of a few structural keys under a strict threshold, so the representative
store grows linearly and candidate buckets run thousands of rows deep) is
reduced at 1x/3x/10x cuts, dense vs pruned.  The pruned probe's speedup over
the dense kernel must grow with the store size and reach at least 2x at the
largest cut — the sublinear-matching acceptance bar.  Results land in
``BENCH_match_kernel.json`` (``configs`` + ``store_scaling`` sections).
"""

from __future__ import annotations

import os
import time

import numpy as np
from support import RESULTS_DIR, emit, run_once, write_bench_json

from repro.core.candidates import MatchCounters
from repro.core.metrics import DEFAULT_THRESHOLDS, create_metric
from repro.core.reducer import TraceReducer
from repro.core.reference import ReferenceReducer
from repro.experiments.config import build_workload, get_scale
from repro.trace.events import Event
from repro.trace.io import iter_reduced_rank_chunks, serialize_reduced_trace
from repro.trace.segments import Segment
from repro.util.tables import format_table

BENCH_PATH = RESULTS_DIR.parent / "BENCH_match_kernel.json"

WORKLOAD = "sweep3d_32p"
SCALE = "default"

#: (method, threshold) pairs: the paper's default threshold plus a strict one
#: that forces deep candidate lists (the store-heavy regime).
CONFIGS: tuple[tuple[str, float], ...] = (
    ("relDiff", DEFAULT_THRESHOLDS["relDiff"]),
    ("relDiff", 0.01),
    ("absDiff", DEFAULT_THRESHOLDS["absDiff"]),
    ("manhattan", DEFAULT_THRESHOLDS["manhattan"]),
    ("manhattan", 0.01),
    ("euclidean", DEFAULT_THRESHOLDS["euclidean"]),
    ("euclidean", 0.001),
    ("chebyshev", DEFAULT_THRESHOLDS["chebyshev"]),
    ("chebyshev", 0.001),
    ("avgWave", DEFAULT_THRESHOLDS["avgWave"]),
    ("avgWave", 0.01),
    ("haarWave", DEFAULT_THRESHOLDS["haarWave"]),
    ("haarWave", 0.01),
)

#: The acceptance configuration: strict Euclidean produces the deepest
#: candidate lists of the sweep, i.e. the regime the batch kernel exists for.
HEADLINE = ("euclidean", 0.001)
MIN_HEADLINE_SPEEDUP = 3.0

#: Small-bucket floor: no configuration may be slower than the reference scan.
#: Shallow buckets take a single lean kernel call (no blocking, no prefilter),
#: which is what keeps the default-threshold configs above water.
MIN_CONFIG_SPEEDUP = 1.0

#: Store-scaling stage: cuts of the store-stress stream, as multiples of the
#: base benchmark workload's segment count, and the required pruned-vs-dense
#: speedup at the largest (10x) cut.
STORE_BASE_SEGMENTS = 7936
STORE_CUTS = (1, 3, 10)
STORE_KEYS = 8
STORE_EVENTS = 6
STORE_METHOD = ("euclidean", 0.001)
MIN_STORE_SPEEDUP = 2.0


def _reducer(metric_name: str, threshold: float, kernel: str):
    """The production reducer for ``"pruned"``, else a reference kernel."""
    metric = create_metric(metric_name, threshold)
    return TraceReducer(metric) if kernel == "pruned" else ReferenceReducer(metric, kernel)


def _timed_reduction(segmented, metric_name: str, threshold: float, kernel: str):
    counters = MatchCounters()
    reducer = _reducer(metric_name, threshold, kernel)
    started = time.perf_counter()
    reduced = reducer.reduce(segmented, match_counters=counters)
    total = time.perf_counter() - started
    return serialize_reduced_trace(reduced), reduced, counters, total


#: Configurations whose match stage is this cheap get extra timed repetitions,
#: with the *minimum* across reps used for the speedup (the timeit estimator:
#: the fastest rep is the one least disturbed by scheduler and cache noise,
#: which on a tens-of-milliseconds stage can swing single runs by 20%).
REPEAT_TARGET_SECONDS = 0.25
MAX_REPEATS = 5


def _compare(segmented, metric_name: str, threshold: float) -> dict:
    scan_bytes, reduced, scan, scan_total = _timed_reduction(
        segmented, metric_name, threshold, "scan"
    )
    dense_bytes, _, dense, _ = _timed_reduction(segmented, metric_name, threshold, "dense")
    pruned_bytes, _, pruned, pruned_total = _timed_reduction(
        segmented, metric_name, threshold, "pruned"
    )
    assert dense_bytes == scan_bytes, (
        f"dense batch matcher diverged from the reference scan for {metric_name}({threshold})"
    )
    assert pruned_bytes == scan_bytes, (
        f"pruned matcher diverged from the reference scan for {metric_name}({threshold})"
    )
    scan_seconds = scan.seconds
    dense_seconds = dense.seconds
    pruned_seconds = pruned.seconds
    reps = 1
    while scan_seconds < REPEAT_TARGET_SECONDS and reps < MAX_REPEATS:
        scan_seconds = min(
            scan_seconds,
            _timed_reduction(segmented, metric_name, threshold, "scan")[2].seconds,
        )
        dense_seconds = min(
            dense_seconds,
            _timed_reduction(segmented, metric_name, threshold, "dense")[2].seconds,
        )
        pruned_seconds = min(
            pruned_seconds,
            _timed_reduction(segmented, metric_name, threshold, "pruned")[2].seconds,
        )
        reps += 1
    return {
        "method": metric_name,
        "threshold": threshold,
        "n_stored": reduced.n_stored,
        "match_calls": scan.calls,
        "rows_per_call": round(scan.rows_per_call, 3),
        "timed_repeats": reps,
        "scan_match_seconds": round(scan_seconds, 6),
        "dense_match_seconds": round(dense_seconds, 6),
        "pruned_match_seconds": round(pruned_seconds, 6),
        "rows_pruned": pruned.rows_pruned,
        "prune_rate": round(pruned.prune_rate, 4),
        "blocks_evaluated": pruned.blocks_evaluated,
        "match_speedup": round(scan_seconds / pruned_seconds, 4) if pruned_seconds else None,
        "dense_speedup": round(scan_seconds / dense_seconds, 4) if dense_seconds else None,
        "scan_total_seconds": round(scan_total, 6),
        "pruned_total_seconds": round(pruned_total, 6),
        "total_speedup": round(scan_total / pruned_total, 4) if pruned_total else None,
        "identical_output": True,
    }


def _store_stress_segments(n_segments: int, *, seed: int = 20260807) -> list[Segment]:
    """Store-stress stream: jittered repeats of a few structural keys.

    The per-event jitter is far wider than the strict match limit, so almost
    every segment becomes a new representative and the candidate buckets grow
    thousands of rows deep — while the jitter also spreads the row norms, the
    regime the summary prefilter exists for.  Deterministic via ``seed``.
    """
    rng = np.random.default_rng(seed)
    base = 1000.0 + 400.0 * rng.random((STORE_KEYS, STORE_EVENTS))
    jitter = 120.0 * rng.random((n_segments, STORE_EVENTS))
    segments = []
    for i in range(n_segments):
        k = i % STORE_KEYS
        cursor = 0.0
        events = []
        for j in range(STORE_EVENTS):
            duration = base[k, j] + jitter[i, j]
            events.append(Event(name=f"op{k}_{j}", start=cursor, end=cursor + duration))
            cursor += duration
        segments.append(
            Segment(context=f"loop{k}", rank=0, start=0.0, end=cursor, events=events, index=i)
        )
    return segments


def _timed_segment_reduction(segments, metric_name: str, threshold: float, kernel: str):
    counters = MatchCounters()
    reducer = _reducer(metric_name, threshold, kernel)
    reduced = reducer.reduce_segments(segments, match_counters=counters)
    return b"".join(iter_reduced_rank_chunks(reduced)), reduced, counters


def _run_store_scaling() -> dict:
    method, threshold = STORE_METHOD
    stream = _store_stress_segments(STORE_BASE_SEGMENTS * STORE_CUTS[-1])
    sizes = []
    for cut in STORE_CUTS:
        segments = stream[: STORE_BASE_SEGMENTS * cut]
        dense_bytes, _, dense = _timed_segment_reduction(segments, method, threshold, "dense")
        pruned_bytes, reduced, pruned = _timed_segment_reduction(
            segments, method, threshold, "pruned"
        )
        assert pruned_bytes == dense_bytes, (
            f"pruned store-stress reduction diverged from the dense kernel at {cut}x"
        )
        sizes.append(
            {
                "cut": f"{cut}x",
                "n_segments": len(segments),
                "n_stored": len(reduced.stored),
                "dense_match_seconds": round(dense.seconds, 6),
                "pruned_match_seconds": round(pruned.seconds, 6),
                "rows_pruned": pruned.rows_pruned,
                "prune_rate": round(pruned.prune_rate, 4),
                "blocks_evaluated": pruned.blocks_evaluated,
                "pruned_vs_dense_speedup": round(dense.seconds / pruned.seconds, 4)
                if pruned.seconds
                else None,
                "identical_output": True,
            }
        )
    return {
        "method": method,
        "threshold": threshold,
        "n_keys": STORE_KEYS,
        "n_events": STORE_EVENTS,
        "min_speedup_at_largest": MIN_STORE_SPEEDUP,
        "sizes": sizes,
    }


def _run_comparison() -> dict:
    segmented = build_workload(WORKLOAD, get_scale(SCALE)).run_segmented()
    entries = [_compare(segmented, method, threshold) for method, threshold in CONFIGS]
    headline = next(
        e for e in entries if (e["method"], e["threshold"]) == HEADLINE
    )
    return {
        "workload": WORKLOAD,
        "scale": SCALE,
        "n_ranks": segmented.nprocs,
        "n_segments": segmented.num_segments,
        "cpu_count": os.cpu_count() or 1,
        "headline": {
            "method": HEADLINE[0],
            "threshold": HEADLINE[1],
            "match_speedup": headline["match_speedup"],
            "min_required": MIN_HEADLINE_SPEEDUP,
        },
        "configs": entries,
        "store_scaling": _run_store_scaling(),
    }


def test_match_kernel_speedup(benchmark):
    report = run_once(benchmark, _run_comparison)
    write_bench_json(BENCH_PATH, report)

    rows = [
        [
            entry["method"],
            f"{entry['threshold']:g}",
            entry["n_stored"],
            f"{entry['rows_per_call']:.2f}",
            f"{entry['scan_match_seconds']:.4f}",
            f"{entry['dense_match_seconds']:.4f}",
            f"{entry['pruned_match_seconds']:.4f}",
            f"{entry['prune_rate']:.1%}",
            f"{entry['match_speedup']:.2f}x",
        ]
        for entry in report["configs"]
    ]
    emit(
        "BENCH_match_kernel",
        format_table(
            [
                "method",
                "threshold",
                "stored",
                "rows/call",
                "scan s",
                "dense s",
                "pruned s",
                "pruned",
                "speedup",
            ],
            rows,
            title=(
                f"candidate-scan stage: scan vs dense vs pruned — "
                f"{WORKLOAD}/{SCALE} ({report['cpu_count']} cpus)"
            ),
        ),
    )

    scaling = report["store_scaling"]
    scaling_rows = [
        [
            size["cut"],
            size["n_segments"],
            size["n_stored"],
            f"{size['dense_match_seconds']:.4f}",
            f"{size['pruned_match_seconds']:.4f}",
            f"{size['prune_rate']:.1%}",
            f"{size['pruned_vs_dense_speedup']:.2f}x",
        ]
        for size in scaling["sizes"]
    ]
    emit(
        "BENCH_match_kernel_store_scaling",
        format_table(
            ["cut", "segments", "stored", "dense s", "pruned s", "pruned", "speedup"],
            scaling_rows,
            title=(
                f"store scaling: pruned probe vs dense kernel — "
                f"{scaling['method']}({scaling['threshold']:g}), "
                f"{scaling['n_keys']} keys x {scaling['n_events']} events"
            ),
        ),
    )

    for entry in report["configs"]:
        assert entry["identical_output"]
        assert entry["scan_match_seconds"] > 0 and entry["pruned_match_seconds"] > 0
        # Small-bucket floor: the pruned probe must never lose to the scan,
        # whatever the bucket depth profile of the configuration.
        assert entry["match_speedup"] >= MIN_CONFIG_SPEEDUP, (
            f"{entry['method']}({entry['threshold']}) pruned matcher is slower than "
            f"the reference scan: {entry['match_speedup']}x"
        )
    # The acceptance bar: the pruned probe must beat the reference scan by at
    # least 3x on the deep-candidate-list headline configuration.
    assert report["headline"]["match_speedup"] >= MIN_HEADLINE_SPEEDUP, (
        f"headline match-kernel speedup {report['headline']['match_speedup']}x "
        f"is below the required {MIN_HEADLINE_SPEEDUP}x"
    )
    # Sublinear-matching bar: the pruned probe's advantage over the dense
    # kernel must grow with the store depth and reach 2x at the 10x cut.
    speedups = [s["pruned_vs_dense_speedup"] for s in scaling["sizes"]]
    assert speedups == sorted(speedups), (
        f"pruned-vs-dense speedup does not grow with store size: {speedups}"
    )
    assert speedups[-1] >= MIN_STORE_SPEEDUP, (
        f"pruned-vs-dense speedup at the largest store is {speedups[-1]}x, "
        f"below the required {MIN_STORE_SPEEDUP}x"
    )
