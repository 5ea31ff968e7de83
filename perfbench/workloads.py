"""The benchmark's three workloads: inputs, requests, reference outputs.

Every input is derived from the workload seed; the program only sees the
generated trace files (and, on ``live_sessions``, the segments decoded from
them).  A workload is run in *rounds*: one round issues every request kind
once, in a fixed order, so every round has the same mix of requests.

* ``reduce_files``: ``repro-trace pipeline --trace F --output O`` over a
  regular wavefront trace (all nine methods at the paper's thresholds) and a
  long noisy interference trace (tight thresholds, deep candidate buckets).
* ``threshold_sweep``: ``repro-trace sweep --trace F --json`` over two method
  grids on two traces.
* ``live_sessions``: two clients streaming segments into a
  ``ReductionService`` and re-submitting each finished trace.

References are computed with the serial ``TraceReducer`` oracle over the
in-memory trace (never the program's file path) and kept as sha256 digests.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = ["Sample", "WORKLOADS", "make_workload"]

#: Representatives a tenant may keep resident on ``live_sessions`` before
#: its idle session is checkpointed (see ``LiveSessions``).
TENANT_BUDGET = {"full": 95, "smoke": 20}


@dataclass
class Sample:
    """One timed client operation."""

    kind: str
    op: str  # "request" (the workload's request), or "flush"/"finish"/"submit"
    start: float
    end: float
    ok: bool
    segments: int = 0
    cache_hit: bool = False
    request_id: int = 0
    stats: Optional[dict] = None
    #: The host's slowness when the operation ran (``bench.HostSpeed``).
    slow: float = 1.0

    @property
    def latency(self) -> float:
        return self.end - self.start


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _silent_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``repro-trace`` in process, returning its exit code and stdout."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class Workload:
    """Inputs, requests and references of one workload.

    The base class is a single closed-loop client issuing ``repro-trace``
    requests against the generated trace files.
    """

    name: str
    #: Round length in seconds on 2 CPUs at the seed commit; ``--seconds``
    #: fixes the number of rounds through it, so a faster program runs the
    #: same requests (and reports the same tail percentile) as a slower one.
    nominal_round_s: float

    def __init__(self, seed: int, workdir: Path, scale: str) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.scale = scale
        self.paths: dict[str, Path] = {}
        self.traces: dict = {}
        self.refs: dict = {}
        self._next_request = 0

    # -- set-up ------------------------------------------------------------

    def input_specs(self) -> dict:
        raise NotImplementedError

    def generate(self, timings: dict) -> None:
        """Simulate and write every input; ``timings`` gets per-step seconds."""
        from repro.trace.io import write_trace

        self.workdir.mkdir(parents=True, exist_ok=True)
        for label, build in self.input_specs().items():
            started = time.perf_counter()
            trace = build().run()
            simulated = time.perf_counter()
            path = self.workdir / f"{label}.rpb"
            write_trace(trace, path)
            timings["simulator.run_s"] = timings.get("simulator.run_s", 0.0) + simulated - started
            timings["trace.write_trace_s"] = (
                timings.get("trace.write_trace_s", 0.0) + time.perf_counter() - simulated
            )
            self.paths[label] = path
            self.traces[label] = trace

    def release_inputs(self) -> None:
        """Drop the in-memory traces once they are written (or referenced)."""
        self.traces = {}

    def warm_up(self) -> None:
        self.request(self.kinds()[0], tracer=None)

    # -- requests ----------------------------------------------------------

    def kinds(self) -> list:
        raise NotImplementedError

    def kind_label(self, kind) -> str:
        return "/".join("-" if part is None else str(part) for part in kind)

    def matches(self, label: str, digest: Optional[str]) -> bool:
        """Does an output digest equal its reference?  (Always true before
        references are loaded, i.e. for the warm-up during set-up.)"""
        expected = self.refs.get("digests")
        return expected is None or digest == expected[label]

    def segments_of(self, label: str) -> int:
        return self.refs.get("segments", {}).get(label, 0)

    def request(self, kind, tracer) -> Sample:
        raise NotImplementedError

    def run_round(self, tracer=None, host=None) -> list[Sample]:
        samples = []
        for kind in self.kinds():
            sample = self.request(kind, tracer)
            if host is not None:
                # A request is long enough for the host's speed to change
                # from one to the next, so each gets a probe of its own.
                sample.slow = host.probe()
            samples.append(sample)
        return samples

    def _timed_cli(self, kind, argv: list[str], tracer) -> tuple[Sample, str]:
        self._next_request += 1
        rid = self._next_request
        index = None
        start = time.perf_counter()
        if tracer is not None:
            tracer.request = rid
            index = tracer.open("cli.main")
        try:
            code, out = _silent_cli(argv)
        except Exception:  # a failed request is counted, not fatal
            code, out = None, ""
        if tracer is not None:
            tracer.close(index)
        end = time.perf_counter()
        if tracer is not None:
            tracer.absorb_workers(rid)
            tracer.request = None
        sample = Sample(self.kind_label(kind), "request", start, end, ok=code == 0, request_id=rid)
        return sample, out

    # -- references --------------------------------------------------------

    def build_references(self) -> dict:
        raise NotImplementedError


class ReduceFiles(Workload):
    name = "reduce_files"
    nominal_round_s = 3.7

    #: Methods run on the noisy trace, each at a tight threshold.
    NOISY = (("euclidean", 0.001), ("relDiff", 0.001), ("haarWave", 0.001), ("manhattan", 0.001))

    def input_specs(self) -> dict:
        from repro.benchmarks_ats import interference
        from repro.sweep3d import sweep3d_32p

        if self.scale == "smoke":
            return {
                "sweep3d_32p": lambda: sweep3d_32p(scale=0.1, timesteps=1, seed=self.seed),
                "noisy_1to1r": lambda: interference(
                    "1to1r", 1024, nprocs=4, iterations=40, seed=self.seed
                ),
            }
        # Requests of about 0.2-0.4 s, so a run has some 100 of them; two
        # ranks of 800 iterations keep the noisy trace's candidate buckets
        # 50-120 rows deep, as on a long trace.
        return {
            "sweep3d_32p": lambda: sweep3d_32p(scale=0.1, timesteps=1, seed=self.seed),
            "noisy_1to1r": lambda: interference(
                "1to1r", 1024, nprocs=2, iterations=800, seed=self.seed
            ),
        }

    def kinds(self) -> list:
        from repro.core.metrics import METRIC_NAMES

        kinds = [("sweep3d_32p", method, None) for method in METRIC_NAMES]
        kinds += [("noisy_1to1r", method, threshold) for method, threshold in self.NOISY]
        return kinds

    def request(self, kind, tracer) -> Sample:
        label, method, threshold = kind
        output = self.workdir / "reduced.txt"
        output.unlink(missing_ok=True)
        argv = ["pipeline", "--trace", str(self.paths[label]), "--method", method]
        if threshold is not None:
            argv += ["--threshold", repr(threshold)]
        argv += ["--output", str(output)]
        sample, _ = self._timed_cli(kind, argv, tracer)
        sample.segments = self.segments_of(label)
        if sample.ok:
            produced = sha256(output.read_bytes()) if output.exists() else None
            sample.ok = self.matches(sample.kind, produced)
        return sample

    def build_references(self) -> dict:
        from repro.core.metrics import create_metric
        from repro.core.reducer import TraceReducer
        from repro.trace.io import serialize_reduced_trace

        digests, segments = {}, {}
        segmented = {label: trace.segmented() for label, trace in self.traces.items()}
        for kind in self.kinds():
            label, method, threshold = kind
            reduced = TraceReducer(create_metric(method, threshold)).reduce(segmented[label])
            digests[self.kind_label(kind)] = sha256(serialize_reduced_trace(reduced))
            segments[label] = reduced.n_segments
        return {"digests": digests, "segments": segments}


class ThresholdSweep(Workload):
    name = "threshold_sweep"
    nominal_round_s = 1.75

    GRIDS = {
        "euclid_manhattan": ("euclidean", "manhattan"),
        "reldiff_avgwave": ("relDiff", "avgWave"),
        "haarwave_iterk": ("haarWave", "iter_k"),
    }

    def input_specs(self) -> dict:
        from repro.benchmarks_ats import dyn_load_balance
        from repro.sweep3d import sweep3d_8p

        if self.scale == "smoke":
            return {
                "sweep3d_8p": lambda: sweep3d_8p(scale=0.2, timesteps=1, seed=self.seed),
                "dyn_load_balance": lambda: dyn_load_balance(
                    nprocs=4, iterations=12, seed=self.seed
                ),
            }
        # dyn_load_balance is sized so its sweeps take about as long as
        # sweep3d_8p's: the median of all requests then falls among requests
        # rather than in a gap between two clusters of them, where it would
        # jump with the host's speed.
        return {
            "sweep3d_8p": lambda: sweep3d_8p(scale=0.15, timesteps=1, seed=self.seed),
            "dyn_load_balance": lambda: dyn_load_balance(nprocs=8, iterations=40, seed=self.seed),
        }

    def kinds(self) -> list:
        labels = ("sweep3d_8p", "dyn_load_balance")
        return [(label, grid) for label in labels for grid in self.GRIDS]

    def request(self, kind, tracer) -> Sample:
        label, grid = kind
        argv = ["sweep", "--trace", str(self.paths[label]), "--json"]
        argv += ["--methods", *self.GRIDS[grid]]
        sample, out = self._timed_cli(kind, argv, tracer)
        n_configs = 0
        if sample.ok:
            try:
                payload = json.loads(out)
            except ValueError:
                sample.ok = False
            else:
                rows = payload["configs"]
                n_configs = len(rows)
                sample.ok = self.matches(sample.kind, sha256(_canonical(rows)))
                sample.stats = payload.get("stats")
        sample.segments = self.segments_of(label) * n_configs
        return sample

    def build_references(self) -> dict:
        from repro.evaluation.runner import PreparedWorkload, evaluate_grid
        from repro.sweep.plan import SweepPlan

        digests, segments = {}, {}
        prepared = {
            label: PreparedWorkload.from_segmented(label, trace.segmented())
            for label, trace in self.traces.items()
        }
        for kind in self.kinds():
            label, grid = kind
            plan = SweepPlan.from_grid(self.GRIDS[grid])
            results = evaluate_grid(prepared[label], plan, backend="serial")
            rows = [
                {
                    "method": r.method,
                    "threshold": r.threshold,
                    "pct_file_size": r.pct_file_size,
                    "degree_of_matching": r.degree_of_matching,
                    "approx_distance_us": r.approx_distance_us,
                    "trends_retained": r.trends_retained,
                    "n_stored": r.n_stored,
                    "reduced_bytes": r.reduced_bytes,
                }
                for r in results
            ]
            digests[self.kind_label(kind)] = sha256(_canonical(rows))
            segments[label] = prepared[label].segmented.num_segments
        return {"digests": digests, "segments": segments}


def _canonical(rows) -> bytes:
    # A JSON round trip first, so reference rows and rows parsed from the
    # CLI's output hash alike (tuples vs lists, float repr).
    return json.dumps(json.loads(json.dumps(rows)), sort_keys=True).encode()


class LiveSessions(Workload):
    """Two clients streaming segments into one ``ReductionService``.

    Each client owns a tenant and two sessions (one per trace), round-robins
    ``APPEND`` -segment appends across them, flushes a session every
    ``FLUSH_EVERY`` of its appends, finishes it when its trace is exhausted
    and then submits the same trace again, which the digest cache answers.
    The tenant budget sits below the two sessions' final size, so the idle
    session is checkpointed and restored in the later part of each stream
    but not on every append.  The workload's request is the append.
    """

    name = "live_sessions"
    nominal_round_s = 0.4
    APPEND = 8
    FLUSH_EVERY = 4
    CLIENTS = 2
    METHODS = {"sweep3d_8p": "relDiff", "dyn_load_balance": "euclidean"}

    def input_specs(self) -> dict:
        from repro.benchmarks_ats import dyn_load_balance
        from repro.sweep3d import sweep3d_8p

        specs = {}
        for client in range(self.CLIENTS):
            sub_seed = self.seed * self.CLIENTS + client
            if self.scale == "smoke":
                specs[f"c{client}.sweep3d_8p"] = (
                    lambda s=sub_seed: sweep3d_8p(scale=0.2, timesteps=1, seed=s)
                )
                specs[f"c{client}.dyn_load_balance"] = (
                    lambda s=sub_seed: dyn_load_balance(nprocs=4, iterations=12, seed=s)
                )
            else:
                specs[f"c{client}.sweep3d_8p"] = (
                    lambda s=sub_seed: sweep3d_8p(scale=0.5, timesteps=4, seed=s)
                )
                specs[f"c{client}.dyn_load_balance"] = (
                    lambda s=sub_seed: dyn_load_balance(nprocs=8, iterations=60, seed=s)
                )
        return specs

    def __init__(self, seed: int, workdir: Path, scale: str) -> None:
        super().__init__(seed, workdir, scale)
        self.segmented: dict = {}
        self.round_index = 0

    def generate(self, timings: dict) -> None:
        from repro.trace.io import read_trace

        super().generate(timings)
        # The segments a tracer would hand the service, decoded from the files.
        self.segmented = {
            label: read_trace(path).segmented() for label, path in self.paths.items()
        }

    def kinds(self) -> list:
        return sorted(self.paths)

    def kind_label(self, kind) -> str:
        return kind

    def warm_up(self) -> None:
        self.run_round(tracer=None)

    def _chunks(self, label: str) -> deque:
        chunks = deque()
        for rank_trace in self.segmented[label].ranks:
            segments = rank_trace.segments
            for i in range(0, len(segments), self.APPEND):
                chunks.append((rank_trace.rank, segments[i:i + self.APPEND]))
        return chunks

    def run_round(self, tracer=None, host=None) -> list[Sample]:
        from repro.service.server import ReductionService

        self.round_index += 1
        service = ReductionService(tenant_budget=TENANT_BUDGET[self.scale])
        samples: list[Sample] = []

        async def main():
            try:
                await asyncio.gather(
                    *(self._client(service, c, samples, tracer) for c in range(self.CLIENTS))
                )
            finally:
                await service.close()

        asyncio.run(main())
        if host is not None:
            slow = host.probe()
            for sample in samples:
                sample.slow = slow
        return samples

    async def _timed(self, samples, tracer, label, op, call, segments=0, session=None):
        self._next_request += 1
        rid = self._next_request
        if tracer is not None:
            tracer.request = rid
            if session is not None:
                tracer.session_requests[session] = rid
        start = time.perf_counter()
        try:
            result = await call()
        except Exception:  # a failed operation is counted, not fatal
            result, ok = None, False
        else:
            ok = True
        sample = Sample(label, op, start, time.perf_counter(), ok, segments, request_id=rid)
        samples.append(sample)
        return sample, result

    async def _client(self, service, client: int, samples: list, tracer) -> None:
        from repro.service.session import SessionConfig
        from repro.trace.io import serialize_reduced_trace

        tenant = f"tenant{client}"
        streams = []
        for label in (k for k in self.kinds() if k.startswith(f"c{client}.")):
            config = SessionConfig(self.METHODS[label.split(".", 1)[1]])
            name = f"{label}#{self.round_index}"
            handle = await service.open_session(tenant, name, config)
            streams.append((label, config, name, handle, self._chunks(label)))

        appended = {name: 0 for _, _, name, _, _ in streams}
        while any(s[4] for s in streams):
            for label, config, name, handle, chunks in streams:
                if not chunks:
                    continue
                rank, segments = chunks.popleft()
                await self._timed(
                    samples, tracer, label, "request",
                    lambda: handle.append(rank, segments=segments), len(segments), name,
                )
                appended[name] += 1
                if chunks:
                    if appended[name] % self.FLUSH_EVERY == 0:
                        await self._timed(
                            samples, tracer, label, "flush", handle.flush, session=name
                        )
                    continue
                sample, result = await self._timed(
                    samples, tracer, label, "finish", handle.finish, session=name
                )
                if result is not None:
                    sample.ok = self.matches(label, sha256(serialize_reduced_trace(result.reduced)))
                sample, result = await self._timed(
                    samples, tracer, label, "submit",
                    lambda: service.submit(tenant, self.segmented[label], config),
                )
                if result is not None:
                    sample.cache_hit = result.cache_hit
                    sample.ok = result.cache_hit and self.matches(label, sha256(result.payload))

    def build_references(self) -> dict:
        from repro.core.metrics import create_metric
        from repro.core.reducer import TraceReducer
        from repro.trace.io import serialize_reduced_trace

        digests, segments = {}, {}
        for label, trace in self.traces.items():
            method = self.METHODS[label.split(".", 1)[1]]
            reduced = TraceReducer(create_metric(method)).reduce(trace.segmented())
            digests[label] = sha256(serialize_reduced_trace(reduced))
            segments[label] = reduced.n_segments
        return {"digests": digests, "segments": segments}


WORKLOADS = {cls.name: cls for cls in (ReduceFiles, ThresholdSweep, LiveSessions)}


def make_workload(name: str, seed: int, workdir: Path, scale: str) -> Workload:
    return WORKLOADS[name](seed, workdir, scale)
