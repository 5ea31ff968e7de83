"""Smoke-sized self-test of the repository benchmark (``perfbench/run.py``).

Each workload runs once untraced and once traced on smoke-sized inputs.  The
test checks the output contract against ``BENCHMARK.json``, that the
per-layer self times add up to the traced request time, that a corrupted
pinned digest is reported as failed requests, and that the benchmark refuses
to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
LAYER_SELF = ("cli", "trace", "core", "pipeline", "sweep", "evaluation", "analysis", "service")


def run_bench(tmp_path: Path, workload: str, trace: int, pinned: Path | None = None, cwd=ROOT):
    command = [
        sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
        "--scale", "smoke", "--out-dir", str(tmp_path / "out"),
    ]
    if pinned is not None:
        command += ["--pinned", str(pinned)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(proc, specs) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"], spec["name"]
        assert isinstance(entry["value"], (int, float))
        # Every metric is printed by name with its unit before the JSON line.
        assert any(
            line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"]
            for line in lines[:-1]
        ), spec["name"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_and_pass(tmp_path, workload):
    result = check_metrics(run_bench(tmp_path, workload, 0), BENCH["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_with_corrupted_digest(tmp_path, workload):
    pinned = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
    digests = pinned["digests"]["smoke"][workload]
    first = sorted(digests)[0]
    digests[first] = "0" * 64
    corrupted = tmp_path / "pinned.json"
    corrupted.write_text(json.dumps(pinned))

    proc = run_bench(tmp_path, workload, 1, pinned=corrupted)
    result = check_metrics(proc, BENCH["per_layer"])
    assert result["failed"] > 0 and not result["correct"]
    failed_frac = next(line for line in proc.stdout.splitlines() if "failed_frac" in line)
    assert float(failed_frac.split()[1]) > 0

    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    attributed = sum(values[f"{layer}.self_s"] for layer in LAYER_SELF)
    assert attributed + values["bench.unattributed_s"] == pytest.approx(
        values["bench.request_s"], rel=1e-6
    )


def test_refuses_to_run_without_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(tmp_path, WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
