"""Sweep engine vs naive per-config loop on a full threshold grid.

Reduces sweep3d_32p under the complete euclidean + manhattan threshold grids
(12 configs — one shared Minkowski feature family) two ways:

* **naive** — the historical schedule: one independent serial
  :class:`TraceReducer` pass per config, re-normalising every segment and
  recomputing its feature vector once per config;
* **sweep** — the :mod:`repro.sweep` engine: one shared pass, segments
  normalised and keyed once, the family vector computed once per segment for
  all 12 configs, matching via the batched kernels per config.

Both schedules must produce byte-identical reduced traces per config, and
the evaluation rows derived from them must agree field for field; the sweep
is asserted to be at least 3x faster.  The ratio is schedule-bound, not
pool- or hardware-bound (both sides run serially in one process), so it is
meaningful on a single-CPU CI runner.  Each side is timed as the minimum of
``TIMED_REPEATS`` runs (the timeit estimator: the fastest run is the one
least disturbed by other load on the machine), and the two sides alternate
so that both see the same load.  Measurements go to
``BENCH_sweep.json`` at the repository root (plus the usual ``results/``
table).
"""

from __future__ import annotations

import time

from support import RESULTS_DIR, emit, run_once, write_bench_json

from repro.core.reducer import TraceReducer
from repro.evaluation.runner import PreparedWorkload, result_from_reduced
from repro.experiments.config import build_workload, get_scale
from repro.sweep import SweepEngine, SweepPlan
from repro.trace.io import serialize_reduced_trace
from repro.util.tables import format_table

BENCH_PATH = RESULTS_DIR.parent / "BENCH_sweep.json"

WORKLOAD = "sweep3d_32p"  # 32 ranks; the heaviest multi-rank workload
METHODS = ("euclidean", "manhattan")  # full paper grids; one shared family
MIN_HEADLINE_SPEEDUP = 3.0
TIMED_REPEATS = 3


def _best_of(*runs):
    """Minimum wall time of each of ``runs`` over ``TIMED_REPEATS`` rounds.

    The runs alternate within each round, so every side of a ratio samples
    the same machine load.  Returns the minima and each run's last result.
    """
    best = [float("inf")] * len(runs)
    results = [None] * len(runs)
    for _ in range(TIMED_REPEATS):
        for j, run in enumerate(runs):
            started = time.perf_counter()
            results[j] = run()
            best[j] = min(best[j], time.perf_counter() - started)
    return best, results


def _measure_scale(scale_name: str, plan: SweepPlan) -> dict:
    scale = get_scale(scale_name)
    segmented = build_workload(WORKLOAD, scale).run_segmented()

    (naive_seconds, sweep_seconds), (naive, swept) = _best_of(
        lambda: [TraceReducer(config.create()).reduce(segmented) for config in plan],
        lambda: SweepEngine(plan).sweep(segmented),
    )

    identical = all(
        serialize_reduced_trace(outcome.reduced) == serialize_reduced_trace(reference)
        for outcome, reference in zip(swept, naive)
    )

    # The evaluation rows the figure suite consumes must agree too.  Both
    # row sets run through the same (untimed) criteria code.
    prepared = PreparedWorkload.from_segmented(WORKLOAD, segmented)
    sweep_rows = swept.evaluation_results(prepared)
    naive_rows = [result_from_reduced(prepared, r, keep_comparison=False) for r in naive]
    rows_equal = all(
        (got.method, got.threshold, got.pct_file_size, got.degree_of_matching,
         got.approx_distance_us, got.trends_retained, got.reduced_bytes,
         got.n_segments, got.n_stored)
        == (want.method, want.threshold, want.pct_file_size, want.degree_of_matching,
            want.approx_distance_us, want.trends_retained, want.reduced_bytes,
            want.n_segments, want.n_stored)
        for got, want in zip(sweep_rows, naive_rows)
    )

    return {
        "scale": scale_name,
        "n_ranks": len(segmented.ranks),
        "n_segments": swept.stats.n_segments,
        "vector_builds": swept.stats.vector_builds,
        "vector_builds_saved": swept.stats.vector_builds_saved,
        "sharing_factor": round(swept.stats.sharing_factor, 4),
        "timed_repeats": TIMED_REPEATS,
        "naive_seconds": round(naive_seconds, 6),
        "sweep_seconds": round(sweep_seconds, 6),
        "speedup": round(naive_seconds / sweep_seconds, 4) if sweep_seconds else None,
        "identical_output": identical,
        "evaluation_rows_equal": rows_equal,
    }


def _run_comparison() -> dict:
    plan = SweepPlan.from_grid(list(METHODS))
    return {
        "workload": WORKLOAD,
        "methods": list(METHODS),
        "n_configs": plan.n_configs,
        "n_families": plan.n_families,
        "min_headline_speedup": MIN_HEADLINE_SPEEDUP,
        "scales": {name: _measure_scale(name, plan) for name in ("smoke", "default")},
    }


def test_sweep_speedup(benchmark):
    report = run_once(benchmark, _run_comparison)
    write_bench_json(BENCH_PATH, report)

    rows = [
        [
            entry["scale"],
            entry["n_ranks"],
            entry["n_segments"],
            f"{entry['sharing_factor']:.1f}x",
            f"{entry['naive_seconds']:.4f}",
            f"{entry['sweep_seconds']:.4f}",
            f"{entry['speedup']:.2f}x",
        ]
        for entry in report["scales"].values()
    ]
    emit(
        "BENCH_sweep",
        format_table(
            ["scale", "ranks", "segments", "sharing", "naive s", "sweep s", "speedup"],
            rows,
            title=(
                f"threshold-grid sweep: shared-ingest engine vs per-config loop — "
                f"{WORKLOAD}, {report['n_configs']} configs"
            ),
        ),
    )
    for entry in report["scales"].values():
        assert entry["identical_output"], (
            f"sweep output diverged from the serial oracle at scale {entry['scale']}"
        )
        assert entry["evaluation_rows_equal"], (
            f"sweep evaluation rows diverged at scale {entry['scale']}"
        )
    headline = report["scales"]["default"]
    assert headline["speedup"] >= MIN_HEADLINE_SPEEDUP, (
        f"the sweep engine must be >= {MIN_HEADLINE_SPEEDUP}x faster than the "
        f"per-config serial loop, measured {headline['speedup']:.2f}x"
    )
