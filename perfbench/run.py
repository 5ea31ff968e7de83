"""Repository benchmark for ``repro-trace``: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload reduce_files --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py``): ``reduce_files``,
``threshold_sweep`` and ``live_sessions``.  Every input is generated from
``--seed``; ``pinned.json`` holds the default seed, the held-out seed for
later claims, and the sha256 digests the outputs must have at the default
seed.

A run starts three fresh interpreters one after another, each of which sets
the workload up from scratch (``setup_s`` is the median of the three):

1. ``reference`` also builds the reference outputs with the serial oracle;
2. ``setup`` only sets up;
3. ``measure`` runs as many whole rounds of requests (of nominal length)
   as fit in ``--seconds``, checking every output against the references.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, writing the
spans to ``.perfbench_runs/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end times are divided by the host's slowness measured next to
them (``bench.HostSpeed``), so they read as seconds at a fixed reference
speed; the raw times are printed and kept in the result file beside them.
Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Time allowed for the three set-ups and the reference outputs; the whole
#: run must end within this plus ``DEADLINE_PER_S`` times ``--seconds``
#: (the measure process starts no round that would end after 1.3 times it).
SETUP_ALLOWANCE_S = 90.0
DEADLINE_PER_S = 1.6


class BenchError(Exception):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="repro-trace benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input size; smoke is for the benchmark's self-test")
    parser.add_argument("--pinned", type=Path, default=HERE / "pinned.json",
                        help="seeds and pinned output digests")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench_runs",
                        help="where work files, results and spans go")
    return parser.parse_args(argv)


def run_child(role: str, args, workdir: Path, refs: Path, deadline: float, spans=None) -> dict:
    """Run ``bench.py`` in a fresh interpreter and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "bench.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--workdir", str(workdir), "--refs", str(refs),
        "--pinned", str(args.pinned),
    ]
    if spans is not None:
        command += ["--spans-out", str(spans)]
    command += ["--launched", repr(time.time())]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} process ran past the deadline")
    finally:
        # Pool workers share the child's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed no report")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so the running child's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + DEADLINE_PER_S * args.seconds
    workdir = args.out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    refs = workdir / "refs.json"
    spans = args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reports = [
            run_child("reference", args, workdir / "reference", refs, deadline),
            run_child("setup", args, workdir / "setup", refs, deadline),
        ]
        measured = run_child("measure", args, workdir / "measure", refs, deadline, spans)
        reports.append(measured)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_samples = [r["setup_s"] for r in reports]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in measured["metrics"].items()}
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    else:
        for key in ("setup.import_s", "simulator.run_s", "trace.write_trace_s"):
            metrics[key] = {
                "value": statistics.median(r["timings"][key] for r in reports), "unit": "s"
            }
    notes = measured["notes"]
    pinned = json.loads(args.pinned.read_text())
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": pinned["default_seed"],
        "heldout_seed": pinned["heldout_seed"],
        "scale": args.scale,
        "trace": args.trace,
        "setup_samples_s": setup_samples,
        "setup_raw_samples_s": [r["setup_raw_s"] for r in reports],
        "notes": notes,
        "provenance": measured["provenance"],
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**stamp, "result": result}, indent=2)
    )

    prov = measured["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale} "
          f"rounds={notes['rounds']}"
          + (f"+{notes['traced_rounds']} traced" if args.trace else "")
          + f" git={prov['git_sha']} cpus={prov['cpu_count']} "
          f"python={prov['python']}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    # Not in the JSON metrics: failed_frac is 0 when the program is right,
    # and only live_sessions has a cache to hit.
    print(f"  {'failed_frac':28s} {notes['failed_frac']:.6g} fraction "
          f"({notes['failed']} of {notes['operations']} operations)")
    if notes["cache_hit_p50_s"] is not None:
        print(f"  {'cache_hit_p50_s':28s} {notes['cache_hit_p50_s']:.6g} s "
              f"({notes['cache_hits']} cache hits)")
    if args.trace == 0:
        raw = notes["raw"]
        print(f"  times are at the reference host speed; raw: request_p50_s "
              f"{raw['request_p50_s']:.6g} s, request_tail_s {raw['request_tail_s']:.6g} s, "
              f"segments_per_s {raw['segments_per_s']:.6g} 1/s, setup_s "
              f"{statistics.median(stamp['setup_raw_samples_s']):.6g} s; "
              f"host slowness {notes['host_slow_p50']:.3g}")
    print(f"  request samples {notes['requests']} in {notes['timed_wall_s']:.1f} s; "
          f"request_tail_s is the p{notes['tail_percentile']:.2f}; "
          f"setup_s is the median of {len(setup_samples)} set-ups")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
