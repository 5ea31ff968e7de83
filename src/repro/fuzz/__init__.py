"""Deterministic scenario fuzzer and adversarial workload families.

The simulator (:mod:`repro.simulator`, :mod:`repro.benchmarks_ats`) covers a
handful of regular communication patterns; this package generates the traces
nobody would hand-write.  Three layers:

* **Generators** (:mod:`repro.fuzz.generators`): a seeded, deterministic
  workload DSL producing per-rank record streams — randomized communication
  patterns (stencil halos, master/worker fan-out, bursty imbalance, phase
  changes mid-run, ragged rank counts) plus adversarial families engineered
  to sit exactly at metric thresholds (probes within one ulp of the match
  boundary), to churn bounded-store LRU eviction, to stress the pruning
  index (near-identical norms, permuted vectors, zero vectors), and to hit
  the malformed-rank fallback in :mod:`repro.trace.binio`.
* **Executor + oracles** (:mod:`repro.fuzz.executor`,
  :mod:`repro.fuzz.oracles`): every generated case runs through each
  configured pathway pair — reference scan vs dense kernel vs the
  production frame loop over ``.rpb``-decoded and segment-adapted frames,
  inline vs sharded pipeline, sweep grid vs per-config
  loop, batch vs incremental session with a mid-stream checkpoint/restore,
  text and ``.rpb`` round trips — and the outputs are cross-checked
  byte-for-byte, with the metric's own similarity bound replayed on the
  reconstructed trace.
* **Case database + minimizer** (:mod:`repro.fuzz.casedb`,
  :mod:`repro.fuzz.shrink`): failures persist as replayable JSON cases,
  greedily shrunk (drop ranks → drop segments → drop events → simplify
  timestamps) to a minimal reproducer; the corpus under
  ``tests/regression_corpus/`` replays as ordinary pytest parametrizations,
  so every mined bug becomes a permanent regression test.

Everything is keyed by an integer seed through :func:`repro.util.rng.rng_for`,
so two runs of ``repro-trace fuzz --seed S --cases N`` produce identical case
ids and identical pass/fail results.
"""

from repro.fuzz.casedb import CaseDB, CorpusCase, decode_records, encode_records
from repro.fuzz.executor import (
    CaseResult,
    FuzzCase,
    FuzzReport,
    plan_cases,
    run_case,
    run_fuzz,
)
from repro.fuzz.generators import (
    FAMILIES,
    FAMILY_NAMES,
    CaseConfig,
    CaseSpec,
    generate_case,
    trace_from_records,
)
from repro.fuzz.oracles import ORACLE_NAMES, OracleOutcome, applicable_oracles, run_oracles
from repro.fuzz.shrink import ShrinkResult, make_failure_check, shrink_records

__all__ = [
    "CaseConfig",
    "CaseSpec",
    "CaseDB",
    "CorpusCase",
    "CaseResult",
    "FuzzCase",
    "FuzzReport",
    "FAMILIES",
    "FAMILY_NAMES",
    "ORACLE_NAMES",
    "OracleOutcome",
    "applicable_oracles",
    "decode_records",
    "encode_records",
    "generate_case",
    "ShrinkResult",
    "make_failure_check",
    "plan_cases",
    "run_case",
    "run_fuzz",
    "run_oracles",
    "shrink_records",
    "trace_from_records",
]
