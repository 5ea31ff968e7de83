"""Tests for the batched matching engine: cached vectors, candidate
matrices, the per-family ``match_batch`` kernels, and the metric-kernel
bugfixes (zero-clamped match limits)."""

import numpy as np
import pytest

from repro.core.candidates import CandidateList, MatchCounters, first_match_index
from repro.core.metrics import create_metric
from repro.core.metrics.distance import AbsDiff, RelDiff
from repro.core.metrics.minkowski import Chebyshev, Euclidean, Manhattan
from repro.core.metrics.wavelet import AvgWave, HaarWave
from repro.core.reduced import StoredSegment
from repro.core.reducer import TraceReducer

from tests.conftest import make_segment

DISTANCE_METRICS = [RelDiff, AbsDiff, Manhattan, Euclidean, Chebyshev, AvgWave, HaarWave]


def _stored(segment, sid=0):
    return StoredSegment(segment_id=sid, segment=segment)


def _jittered(delta, context="c"):
    return make_segment(
        context,
        [("f", 1.0 + delta, 20.0 + delta), ("g", 25.0, 40.0 + delta)],
        end=50.0 + delta,
    )


class TestFirstMatchIndex:
    def test_empty(self):
        assert first_match_index(np.zeros(0, dtype=bool)) is None

    def test_no_match(self):
        assert first_match_index(np.array([False, False])) is None

    def test_first_of_several(self):
        assert first_match_index(np.array([False, True, True])) == 1


class TestCandidateList:
    def test_sequence_protocol(self):
        bucket = CandidateList()
        assert not bucket
        assert len(bucket) == 0
        entries = [_stored(_jittered(float(i)), sid=i) for i in range(3)]
        for entry in entries:
            bucket.append(entry)
        assert bool(bucket)
        assert list(bucket) == entries
        assert bucket[0] is entries[0]
        assert bucket[-1] is entries[2]

    def test_matrix_rows_follow_insertion_order(self):
        metric = AbsDiff(1.0)
        bucket = CandidateList()
        deltas = [0.0, 3.0, 7.0]
        for i, d in enumerate(deltas):
            bucket.append(_stored(_jittered(d), sid=i))
        matrix = bucket.matrix(metric)
        assert matrix.shape == (3, 5)
        for row, delta in zip(matrix, deltas):
            np.testing.assert_allclose(
                row, [1.0 + delta, 20.0 + delta, 25.0, 40.0 + delta, 50.0 + delta]
            )

    def test_matrix_grows_geometrically_and_incrementally(self):
        metric = AbsDiff(1.0)
        bucket = CandidateList()
        for i in range(CandidateList.MIN_CAPACITY + 3):
            bucket.append(_stored(_jittered(float(i)), sid=i))
            matrix = bucket.matrix(metric)
            assert matrix.shape[0] == i + 1
            # The backing buffer only ever doubles.
            assert bucket._matrix.shape[0] in (4, 8, 16)
            np.testing.assert_allclose(matrix[i][0], 1.0 + i)

    def test_trim_front_compacts_rows(self):
        metric = AbsDiff(1.0)
        bucket = CandidateList()
        for i in range(5):
            bucket.append(_stored(_jittered(float(i)), sid=i))
        bucket.matrix(metric)
        bucket.trim_front(2)
        assert [s.segment_id for s in bucket] == [2, 3, 4]
        matrix = bucket.matrix(metric)
        assert matrix.shape == (3, 5)
        np.testing.assert_allclose(matrix[:, 0], [3.0, 4.0, 5.0])

    def test_trim_front_compacts_row_scales(self):
        metric = Euclidean(0.2)
        bucket = CandidateList()
        for i in range(4):
            bucket.append(_stored(_jittered(float(i)), sid=i))
        _, scales = bucket.matrix_and_scales(metric)
        bucket.trim_front(2)
        _, scales = bucket.matrix_and_scales(metric)
        np.testing.assert_allclose(scales, [52.0, 53.0])

    def test_different_metric_rebuilds_matrix(self):
        bucket = CandidateList()
        bucket.append(_stored(_jittered(0.0)))
        pairwise = bucket.matrix(AbsDiff(1.0))
        minkowski = bucket.matrix(Euclidean(0.2))
        assert pairwise.shape[1] == 5
        assert minkowski.shape[1] == 5
        # Minkowski layout leads with the segment duration.
        assert minkowski[0, 0] == pytest.approx(50.0)
        assert pairwise[0, 0] == pytest.approx(1.0)

    def test_refresh_rebuilds_mutated_row(self):
        metric = AbsDiff(1.0)
        bucket = CandidateList()
        stored = _stored(_jittered(0.0))
        bucket.append(stored)
        before = bucket.matrix(metric).copy()
        stored.update_mean(np.asarray([3.0, 22.0, 27.0, 42.0, 52.0]))
        bucket.refresh(stored)
        after = bucket.matrix(metric)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after[0], stored.timestamps())

    def test_refresh_without_matrix_is_noop(self):
        bucket = CandidateList()
        stored = _stored(_jittered(0.0))
        bucket.append(stored)
        bucket.refresh(stored)  # no matrix built yet; must not raise


class TestStoredSegmentVectorCache:
    def test_cached_vector_memoized(self):
        stored = _stored(_jittered(0.0))
        calls = []

        def build(segment):
            calls.append(segment)
            return np.asarray(segment.timestamps())

        first = stored.cached_vector("k", build)
        second = stored.cached_vector("k", build)
        assert first is second
        assert len(calls) == 1

    def test_update_mean_invalidates_cache(self):
        metric = Euclidean(0.2)
        stored = _stored(_jittered(0.0))
        before = metric.candidate_vector(stored)
        stored.update_mean(np.asarray([3.0, 22.0, 27.0, 42.0, 52.0]))
        after = metric.candidate_vector(stored)
        assert before is not after
        assert not np.allclose(before, after)
        # Duration leads the Minkowski layout: mean of 50 and 52.
        assert after[0] == pytest.approx(51.0)

    def test_pickle_drops_cache(self):
        import pickle

        metric = AvgWave(0.2)
        stored = _stored(_jittered(0.0))
        metric.candidate_vector(stored)
        clone = pickle.loads(pickle.dumps(stored))
        assert clone._vectors is None
        assert clone.segment_id == stored.segment_id
        np.testing.assert_allclose(clone.timestamps(), stored.timestamps())


@pytest.mark.parametrize("metric_cls", DISTANCE_METRICS)
class TestKernelAgainstScan:
    """match_batch must reproduce the legacy scan's first-match decision."""

    def _candidates(self):
        deltas = [300.0, 40.0, 0.7, 0.1, 200.0]
        return [_stored(_jittered(d), sid=i) for i, d in enumerate(deltas)]

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.3, 1.0])
    def test_same_choice(self, metric_cls, threshold):
        metric = metric_cls(threshold if metric_cls is not AbsDiff else threshold * 1000)
        candidate = _jittered(0.0)
        entries = self._candidates()
        bucket = CandidateList()
        for entry in entries:
            bucket.append(entry)
        scanned = metric.match(candidate, entries)
        batched = metric.match_row(metric.build_vector(candidate), bucket)
        assert scanned is batched

    def test_no_match_returns_none(self, metric_cls):
        metric = metric_cls(1e-12)
        bucket = CandidateList()
        bucket.append(_stored(_jittered(250.0)))
        assert metric.match_row(metric.build_vector(_jittered(0.0)), bucket) is None


class TestZeroClampedLimitsFixed:
    """Signed max(initial=0) clamped match limits to zero for non-positive
    measurement vectors; the limit now scales with the largest magnitude."""

    def _negative_pair(self):
        # Events before the segment start give negative relative timestamps;
        # the duration (leading Minkowski element) stays >= 0.
        a = make_segment("c", [("f", -50.0, -10.0)], start=0.0, end=0.0)
        b = make_segment("c", [("f", -50.5, -10.2)], start=0.0, end=0.0)
        return a, b

    @pytest.mark.parametrize("metric_cls", [Manhattan, Euclidean, Chebyshev])
    def test_minkowski_negative_measurements_can_match(self, metric_cls):
        a, b = self._negative_pair()
        metric = metric_cls(0.2)
        assert metric.limit(a, b) > 0.0
        assert metric.match(a, [_stored(b)]) is not None

    @pytest.mark.parametrize("metric_cls", [Manhattan, Euclidean, Chebyshev])
    def test_minkowski_scan_and_batch_agree_on_negatives(self, metric_cls):
        a, b = self._negative_pair()
        metric = metric_cls(0.2)
        stored = _stored(b)
        bucket = CandidateList()
        bucket.append(stored)
        assert metric.match_row(metric.build_vector(a), bucket) is metric.match(a, [stored])

    def test_wavelet_non_positive_coefficients_can_match(self):
        class NegatedAvgWave(AvgWave):
            """Transform stub whose coefficients are all <= 0."""

            def transformed(self, segment):
                return -np.abs(super().transformed(segment)) - 1.0

        a, b = _jittered(0.0), _jittered(0.3)
        metric = NegatedAvgWave(0.2)
        assert metric.transformed(a).max() < 0.0
        assert metric.match(a, [_stored(b)]) is not None
        bucket = CandidateList()
        bucket.append(_stored(b))
        assert metric.match_row(metric.build_vector(a), bucket) is not None

    def test_paper_worked_examples_still_hold(self, paper_segments):
        """The magnitude fix must not change the paper's worked-example results."""
        s0, s1, s2 = (paper_segments[k] for k in ("s0", "s1", "s2"))
        assert Manhattan(0.2).limit(s2, s1) == pytest.approx(10.2)  # 0.2 x 51
        transformed = AvgWave(0.2).transformed(s0)
        assert transformed.max() == pytest.approx(17.625)  # the printed final trend
        # ... and the s0/s2 match decision of Figure 3 is unchanged.
        assert AvgWave(0.2).match(s2, [_stored(s0)]) is not None


class TestMatchCounters:
    def test_merged_with(self):
        a = MatchCounters(calls=2, rows_compared=10, seconds=0.5)
        b = MatchCounters(calls=3, rows_compared=5, seconds=0.25)
        merged = a.merged_with(b)
        assert (merged.calls, merged.rows_compared) == (5, 15)
        assert merged.seconds == pytest.approx(0.75)

    def test_rows_per_call(self):
        assert MatchCounters().rows_per_call == 0.0
        assert MatchCounters(calls=4, rows_compared=10).rows_per_call == 2.5

    def test_reducer_fills_counters(self):
        segments = [_jittered(0.0), _jittered(0.1), _jittered(0.2)]
        counters = MatchCounters()
        TraceReducer(create_metric("relDiff")).reduce_segments(
            segments, match_counters=counters
        )
        assert counters.calls == 2  # first segment has no candidates
        assert counters.rows_compared >= counters.calls
        assert counters.seconds >= 0.0


class TestMatchRowAgreesWithScan:
    @pytest.mark.parametrize("metric_cls", DISTANCE_METRICS)
    @pytest.mark.parametrize("delta", [0.05, 250.0])
    def test_candidate_list_and_plain_bucket(self, metric_cls, delta):
        """Both bucket kinds — the stores' CandidateList and a custom store's
        plain list, which takes the vector-scan fallback — pick what the
        paper's scan picks."""
        metric = create_metric(metric_cls.name)
        entries = [_stored(_jittered(d), sid=i) for i, d in enumerate([300.0, 0.0, 0.02])]
        bucket = CandidateList()
        for entry in entries:
            bucket.append(entry)
        probe = _jittered(delta)
        expected = metric.match(probe, entries)
        vector = metric.build_vector(probe)
        assert metric.match_row(vector, bucket) is expected
        assert metric.match_row(vector, list(entries)) is expected
        assert metric.match_row(vector, [entries[0]]) is metric.match(probe, [entries[0]])
