"""One benchmark process: set a workload up, then act out one role.

``run.py`` starts this file in fresh interpreters:

* ``--role setup``     set up (import, generate and write inputs, warm up) and
  report the set-up time;
* ``--role reference`` set up, then build the reference outputs with the
  serial oracle and write their digests to ``--refs``;
* ``--role measure``   set up, load the references, run the timed rounds
  (with ``--trace 1`` alternately untraced and traced) and report the metrics.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import statistics
import sys
import time
from pathlib import Path

#: No round starts that would end after this many times ``--seconds``.
ROUND_BUDGET = 1.3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "reference", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() just before this interpreter was started")
    parser.add_argument("--refs", type=Path, required=True)
    parser.add_argument("--pinned", type=Path, default=None)
    parser.add_argument("--spans-out", type=Path, default=None)
    return parser.parse_args(argv)


def _probe_work() -> float:
    """Time a fixed pure-Python task (dict, float, list and call work) that
    does not touch the program."""
    started = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(6000):
        key = i % 257
        table[key] = table.get(key, 0) + 1
        acc += (i * 0.5) ** 0.5
        items = [i, key, acc]
        acc += len(items) + max(items[0], 1)
    return time.perf_counter() - started


class HostSpeed:
    """How slowly the host runs right now, relative to a fixed reference.

    The speed of a shared host can change by up to 2x for seconds to
    minutes at a time (on a shared 2-CPU host, the best of three
    ``_probe_work`` times ranged over 3.2-6.4 ms from one minute to the
    next), and that moves every time in a run alike.  A probe, taken next to each timed
    operation, times ``_probe_work`` (best of three) against
    ``REFERENCE_S``; the end-to-end times are divided by it, so they read
    as seconds at the reference speed and move with the program rather than
    with the host.  The raw times are kept beside them.
    """

    #: Best of three ``_probe_work`` times on that host at its fastest.
    REFERENCE_S = 0.0032

    def __init__(self) -> None:
        #: Seconds spent probing, left out of the round wall times.
        self.spent = 0.0

    def probe(self) -> float:
        started = time.perf_counter()
        best = min(_probe_work() for _ in range(3))
        self.spent += time.perf_counter() - started
        return best / self.REFERENCE_S


def set_up(args):
    """Everything between a fresh interpreter and the first timed request.

    The host's slowness is probed at the start, middle and end of set-up,
    and the probes' own time is left out of ``setup_s``.
    """
    timings = {}
    host = HostSpeed()
    slow = [host.probe()]
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is what is being timed)
    import repro.service.server  # noqa: F401

    timings["setup.import_s"] = time.perf_counter() - started
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, args.workdir, args.scale)
    workload.generate(timings)
    slow.append(host.probe())
    warm = time.perf_counter()
    workload.warm_up()
    timings["setup.warm_up_s"] = time.perf_counter() - warm
    setup_s = time.time() - args.launched - host.spent
    slow.append(host.probe())
    timings["setup.slow"] = statistics.fmean(slow)
    return workload, setup_s, timings


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``; with 10 samples or fewer it is the
    maximum, reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _status_kb(field: str) -> int:
    """A ``VmRSS``/``VmHWM``-style field of ``/proc/self/status``, in KiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss() -> bool:
    """Reset this process's resident high-water mark (``VmHWM``) to its
    current size, so the peak read later is that of the timed requests and
    not of set-up.  Returns False where the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


class WorkerMemory:
    """Resident memory the pool workers add, at its peak over the run.

    A fork-started worker begins with its parent's pages mapped, so its
    high-water mark starts at the parent's size; what the worker itself adds
    is its ``VmHWM`` at exit minus its ``VmRSS`` at start.  Every worker
    appends ``start end added`` to a spool file as it exits, and
    :meth:`peak_kb` is the largest sum over workers alive at the same time.
    """

    def __init__(self, spool: Path) -> None:
        import multiprocessing.util

        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        # Runs in every multiprocessing child started from now on.
        multiprocessing.util.register_after_fork(self, WorkerMemory._in_worker)

    def _in_worker(self) -> None:
        import multiprocessing.util
        import os

        started, base = time.perf_counter(), _status_kb("VmRSS")

        def report():
            line = f"{started!r} {time.perf_counter()!r} {_status_kb('VmHWM') - base}\n"
            with open(self.spool / f"m-{os.getpid()}", "a") as handle:
                handle.write(line)

        # Run by the worker's orderly exit when its pool shuts down.
        multiprocessing.util.Finalize(None, report, exitpriority=0)

    def peak_kb(self) -> int:
        events = []
        for path in self.spool.glob("m-*"):
            for line in path.read_text().splitlines():
                start, end, added = line.split()
                events += [(float(start), int(added)), (float(end), -int(added))]
        current = peak = 0
        for _, delta in sorted(events):  # at a tie, an exit counts first
            current += delta
            peak = max(peak, current)
        return peak


def run_rounds(
    workload, rounds: int, budget_s: float, tracer=None, host=None
) -> tuple[list, list[float], list]:
    """Run whole rounds; returns the untraced rounds' sample records and wall
    times (probing the ``host`` left out), and the traced rounds' sample
    records.

    With a ``tracer``, rounds alternate untraced and traced (patches
    installed only for the traced ones), so a drift in host speed falls on
    both alike.  No round starts that would, at the last round's length,
    end after ``budget_s``: on a host so loaded that the nominal round
    length is far off, the run does fewer rounds rather than run over.
    """
    plain, walls, traced = [], [], []
    begun = time.perf_counter()
    last = 0.0
    for index in range(rounds):
        over = time.perf_counter() + last - begun > budget_s
        if walls and (tracer is None or traced) and over:
            break
        active = tracer if index % 2 else None
        if active is not None:
            active.install()
        try:
            started = time.perf_counter()
            probed = host.spent if host is not None else 0.0
            samples = workload.run_round(active, host)
            wall = last = time.perf_counter() - started
            if host is not None:
                wall -= host.spent - probed
        finally:
            if active is not None:
                active.restore()
        # Plain tuples of numbers and strings leave the garbage collector's
        # view; tens of thousands of live Sample objects would lengthen every
        # full collection the program triggers in later rounds.
        records = [dataclasses.astuple(s) for s in samples]
        if active is None:
            plain.append(records)
            walls.append(wall)
        else:
            traced.append(records)
    return plain, walls, traced


def as_samples(records: list[list[tuple]]) -> list[list]:
    """Rounds of records back as rounds of ``Sample`` objects."""
    from workloads import Sample

    return [[Sample(*r) for r in rnd] for rnd in records]


def load_references(workload, args) -> None:
    refs = json.loads(args.refs.read_text())
    if args.pinned is not None and args.pinned.exists():
        pinned = json.loads(args.pinned.read_text())
        pins = pinned["digests"].get(args.scale, {}).get(args.workload)
        if args.seed == pinned["default_seed"] and pins is not None:
            # The oracle must reproduce the pinned digest too, so a change
            # that moves the oracle and the program together still fails.
            for label, digest in refs["digests"].items():
                if pins.get(label) != digest:
                    refs["digests"][label] = (
                        f"oracle {digest} differs from pinned {pins.get(label)}"
                    )
    workload.refs = refs


def request_p50(rounds: list[list]) -> float:
    """Median latency of all the rounds' requests taken together."""
    return statistics.median(s.latency for r in rounds for s in r if s.op == "request")


def e2e_metrics(rounds: list[list], walls: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    """End-to-end metrics, every time divided by the host's slowness next
    to it (see ``HostSpeed``); the raw figures go into the notes."""
    samples = [s for r in rounds for s in r]
    requests = [s for s in samples if s.op == "request"]
    tail_value, percentile = tail([s.latency / s.slow for s in requests])
    segments = sum(s.segments for s in samples)
    # Quantiles of all requests pooled, and throughput over the whole timed
    # wall time (each round's share divided by its mean slowness).
    host_s = sum(wall / statistics.fmean(s.slow for s in r) for r, wall in zip(rounds, walls))
    metrics = {
        "request_p50_s": (statistics.median(s.latency / s.slow for s in requests), "s"),
        "request_tail_s": (tail_value, "s"),
        "segments_per_s": (segments / host_s, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    hits = [s.latency for s in samples if s.op == "submit" and s.cache_hit]
    failed = sum(1 for s in samples if not s.ok)
    notes = {
        "requests": len(requests),
        "tail_percentile": percentile,
        "operations": len(samples),
        "failed": failed,
        "failed_frac": failed / len(samples),
        "cache_hit_p50_s": statistics.median(hits) if hits else None,
        "cache_hits": len(hits),
        "timed_wall_s": sum(walls),
        "rounds": len(walls),
        "host_slow_p50": statistics.median(s.slow for s in samples),
        "raw": {
            "request_p50_s": request_p50(rounds),
            "request_tail_s": tail([s.latency for s in requests])[0],
            "segments_per_s": segments / sum(walls),
        },
    }
    return metrics, notes


def layer_rows(tracer, traced_rounds: list[list], plain_rounds: list[list]) -> dict:
    """Per-layer metrics of the traced rounds; times and counts are per request.

    The set-up rows (import, simulation, input writing) are added by
    ``run.py`` as medians over the run's set-ups.
    """
    from tracing import LAYERS, layer_metrics

    traced = [s for r in traced_rounds for s in r]
    untraced = [s for r in plain_rounds for s in r]
    requests = {s.request_id: (s.start, s.end) for s in traced}
    agg = layer_metrics(tracer.spans, requests, tracer.main_pid)
    n = len(requests)
    inc, counts, calls = agg["inclusive"], agg["counts"], tracer.calls

    def per(value):
        return value / n

    def ratio(a, b):
        return a / b if b else 0.0

    core = counts.get("core.reduce", {})
    append_time = {}
    for span in tracer.spans:
        if span.name == "service.append":
            append_time[span.request] = append_time.get(span.request, 0.0) + span.duration
    appends = [s for s in traced if s.op == "request" and s.request_id in append_time]
    sweeps = [s.stats for s in traced if s.stats]
    builds = sum(st["vector_builds"] for st in sweeps)
    naive = sum(st["vector_builds"] + st["vector_builds_saved"] for st in sweeps)
    submits = [s for s in untraced + traced if s.op == "submit"]
    hits = [s.latency for s in untraced if s.op == "submit" and s.cache_hit]

    rows = {f"{layer}.self_s": (per(agg["self"].get(layer, 0.0)), "s") for layer in LAYERS}
    rows.update({
        "trace.decode_s": (per(inc["trace.decode"]), "s"),
        "trace.read_s": (per(inc["trace.read"]), "s"),
        "trace.write_reduced_s": (per(inc["trace.write_reduced"]), "s"),
        "core.reduce_s": (per(inc["core.reduce"]), "s"),
        "core.segments": (per(core.get("segments", 0)), "count"),
        "core.stored": (per(core.get("stored", 0)), "count"),
        "core.match_rate": (ratio(core.get("matches", 0), core.get("segments", 0)), "fraction"),
        "core.rows_per_call": (
            ratio(core.get("kernel_rows", 0), core.get("kernel_calls", 0)), "count"
        ),
        "core.materialized_frac": (
            ratio(core.get("materialized", 0), core.get("segments", 0)), "fraction"
        ),
        "core.reconstruct_s": (per(inc["core.reconstruct"]), "s"),
        "core.reduced_size_s": (per(inc["core.reduced_size"]), "s"),
        "pipeline.reduce_s": (per(inc["pipeline.reduce"]), "s"),
        "pipeline.worker_busy_frac": (
            ratio(agg["worker_busy"].get("pipeline.task", 0.0),
                  agg["dispatch_capacity"].get("pipeline.reduce", 0.0)), "fraction"
        ),
        "sweep.run_s": (per(inc["sweep.run"]), "s"),
        "sweep.worker_busy_frac": (
            ratio(agg["worker_busy"].get("sweep.task", 0.0),
                  agg["dispatch_capacity"].get("sweep.run", 0.0)), "fraction"
        ),
        "sweep.vector_builds": (per(builds), "count"),
        "sweep.sharing_factor": (ratio(naive, builds), "ratio"),
        "evaluation.full_bytes_s": (per(inc["evaluation.full_bytes"]), "s"),
        "evaluation.prepare_s": (per(inc["evaluation.prepare"]), "s"),
        "evaluation.criteria_s": (per(inc["evaluation.criteria"]), "s"),
        "evaluation.approx_s": (per(inc["evaluation.approx"]), "s"),
        "evaluation.trends_s": (per(inc["evaluation.trends"]), "s"),
        "analysis.analyze_s": (per(inc["analysis.analyze"]), "s"),
        "analysis.calls": (per(agg["calls"]["analysis.analyze"]), "count"),
        "service.append_s": (per(inc["service.append"]), "s"),
        "service.queue_wait_s": (
            statistics.fmean(s.latency - append_time.get(s.request_id, 0.0) for s in appends)
            if appends else 0.0, "s"
        ),
        "service.flush_s": (per(inc["service.flush"]), "s"),
        "service.finish_s": (per(inc["service.finish"]), "s"),
        "service.checkpoint_s": (
            per(inc["service.checkpoint_save"] + inc["service.checkpoint_restore"]), "s"
        ),
        "service.evictions": (per(agg["calls"]["service.checkpoint_save"]), "count"),
        "service.restores": (per(agg["calls"]["service.checkpoint_restore"]), "count"),
        "service.digest_s": (per(inc["service.digest"]), "s"),
        "service.cache_hit_ratio": (
            ratio(sum(1 for s in submits if s.cache_hit), len(submits)), "fraction"
        ),
        "service.cache_hit_p50_s": (statistics.median(hits) if hits else 0.0, "s"),
        "obs.span_calls": (per(calls["obs.span"]), "count"),
        "obs.counter_calls": (per(calls["obs.counter"]), "count"),
        "bench.request_s": (per(agg["request"]), "s"),
        "bench.unattributed_s": (per(agg["unattributed"]), "s"),
        "bench.trace_overhead_frac": (
            request_p50(traced_rounds) / request_p50(plain_rounds) - 1.0, "fraction"
        ),
    })
    return rows


def write_spans(path: Path, tracer, traced) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for s in traced:
            handle.write(json.dumps({"request": s.request_id, "op": s.op, "kind": s.kind,
                                     "start": s.start, "end": s.end}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps({
                "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, "request": span.request, "pid": span.pid,
                "counts": span.counts,
            }) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, setup_s, timings = set_up(args)
    out = {"setup_s": setup_s / timings["setup.slow"], "setup_raw_s": setup_s, "timings": timings}
    if args.role == "reference":
        args.refs.write_text(json.dumps(workload.build_references()))
    elif args.role == "measure":
        from repro.obs import provenance

        workload.release_inputs()
        load_references(workload, args)
        # What set-up leaves alive (modules, and on live_sessions the decoded
        # segments standing in for a tracer's output) is frozen out of the
        # collector, as a server does after start-up, so full collections
        # scan only what the timed requests create.
        gc.collect()
        gc.freeze()
        # As many whole rounds of nominal length as fit in --seconds.
        rounds = max(1, int(args.seconds / workload.nominal_round_s))
        if args.trace == 0:
            workers = WorkerMemory(args.workdir / "memory")
            own_peak_only = reset_peak_rss()
            records, walls, _ = run_rounds(
                workload, rounds, ROUND_BUDGET * args.seconds, host=HostSpeed()
            )
            added_kb = workers.peak_kb()
            peak_kb = _status_kb("VmHWM") + added_kb
            measured = as_samples(records)
            metrics, notes = e2e_metrics(measured, walls, peak_kb)
            notes["peak_rss_includes_setup"] = not own_peak_only
            notes["peak_rss_workers_mb"] = added_kb / 1024.0
            samples = [s for r in measured for s in r]
        else:
            from tracing import Tracer

            tracer = Tracer(args.workdir / "spool")
            plain_records, walls, traced_records = run_rounds(
                workload, max(2, rounds), ROUND_BUDGET * args.seconds, tracer
            )
            plain, traced_rounds = as_samples(plain_records), as_samples(traced_records)
            metrics = layer_rows(tracer, traced_rounds, plain)
            traced = [s for r in traced_rounds for s in r]
            samples = [s for r in plain for s in r] + traced
            _, notes = e2e_metrics(plain, walls, 0)
            failed = sum(1 for s in samples if not s.ok)
            notes.update(operations=len(samples), failed=failed, failed_frac=failed / len(samples))
            notes["traced_requests"] = len(traced)
            notes["traced_rounds"] = len(traced_records)
            if args.spans_out is not None:
                write_spans(args.spans_out, tracer, traced)
        out.update({
            "metrics": metrics,
            "notes": notes,
            "attempted": len(samples),
            "failed": notes["failed"],
            "provenance": provenance(),
        })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
