"""Production reducer vs reference scan: byte identity for every metric.

``TraceReducer.reduce`` routes in-memory segment lists through
``RankFrame.from_segments`` + ``reduce_frame``; the reference scan of
:mod:`repro.core.reference` normalises and matches one segment at a time.
The two must serialize byte-identically for all nine paper metrics and for
the sampling extensions, which only reach the frame loop through
``TraceReducer`` — and they must agree on the match-stage counts.
"""

import pytest

from repro.core.candidates import MatchCounters
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reducer import TraceReducer
from repro.core.reference import ReferenceReducer
from repro.core.sampling import PeriodicSampling, RandomSampling
from repro.experiments.config import build_workload, get_scale
from repro.trace.io import serialize_reduced_trace

METRIC_FACTORIES = {
    **{name: (lambda name=name: create_metric(name)) for name in METRIC_NAMES},
    "sample_period": lambda: PeriodicSampling(3),
    "sample_random": lambda: RandomSampling(0.3, seed=7),
}


@pytest.fixture(scope="module")
def sweep3d_trace():
    return build_workload("sweep3d_8p", get_scale("smoke")).run_segmented()


@pytest.mark.parametrize("trace_name", ["small_late_sender_trace", "sweep3d_trace"])
@pytest.mark.parametrize("metric_name", list(METRIC_FACTORIES))
def test_reduce_matches_reference_scan(request, trace_name, metric_name):
    segmented = request.getfixturevalue(trace_name)
    make = METRIC_FACTORIES[metric_name]
    got_counters, want_counters = MatchCounters(), MatchCounters()
    got = TraceReducer(make()).reduce(segmented, match_counters=got_counters)
    want = ReferenceReducer(make()).reduce(segmented, match_counters=want_counters)
    assert serialize_reduced_trace(got) == serialize_reduced_trace(want)
    assert got.ranks[0].n_segments > 0
    assert (got_counters.calls, got_counters.rows_compared) == (
        want_counters.calls,
        want_counters.rows_compared,
    )


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="kernel"):
        ReferenceReducer(create_metric("relDiff"), "pruned")
