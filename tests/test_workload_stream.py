"""Tests for timestamped query streams (repro.workloads.stream)."""

import numpy as np
import pytest

from repro.online.windows import tumbling_periods
from repro.search.query import Query
from repro.workloads.query_gen import QueryWorkloadModel
from repro.workloads.stream import TimedQuery, diurnal_rate, generate_stream

VOCAB = [f"w{i:03d}" for i in range(100)]


@pytest.fixture(scope="module")
def model():
    return QueryWorkloadModel(VOCAB, num_topics=10, seed=0)


class TestDiurnalRate:
    def test_peak_at_hour_16(self):
        peak = diurnal_rate(16 * 3600, base_qps=10.0, peak_factor=2.0)
        trough = diurnal_rate(4 * 3600, base_qps=10.0, peak_factor=2.0)
        assert peak == pytest.approx(20.0)
        assert trough == pytest.approx(5.0)

    def test_geometric_mean_is_base(self):
        peak = diurnal_rate(16 * 3600, 10.0, 3.0)
        trough = diurnal_rate(4 * 3600, 10.0, 3.0)
        assert np.sqrt(peak * trough) == pytest.approx(10.0)

    def test_periodicity(self):
        assert diurnal_rate(3600, 10.0) == pytest.approx(
            diurnal_rate(3600 + 24 * 3600, 10.0)
        )

    def test_flat_with_factor_one(self):
        for hour in (0, 6, 12, 18):
            assert diurnal_rate(hour * 3600, 7.0, 1.0) == pytest.approx(7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_rate(0, 0.0)
        with pytest.raises(ValueError):
            diurnal_rate(0, 1.0, 0.5)


class TestGenerateStream:
    def test_times_sorted_and_bounded(self, model):
        stream = generate_stream(model, duration_s=600, base_qps=5.0, seed=1)
        times = [tq.time_s for tq in stream]
        assert times == sorted(times)
        assert all(0 <= t < 600 for t in times)

    def test_count_tracks_rate(self, model):
        stream = generate_stream(model, duration_s=3600, base_qps=2.0, seed=2)
        # Expect ~7200 on average across the diurnal swing; generous band.
        assert 3000 < len(stream) < 16000

    def test_queries_attached(self, model):
        stream = generate_stream(model, duration_s=60, base_qps=5.0, seed=3)
        assert all(isinstance(tq, TimedQuery) for tq in stream)
        assert all(len(tq.query) >= 1 for tq in stream)

    def test_deterministic(self, model):
        a = generate_stream(model, duration_s=120, base_qps=3.0, seed=4)
        b = generate_stream(model, duration_s=120, base_qps=3.0, seed=4)
        assert [(t.time_s, t.query.keywords) for t in a] == [
            (t.time_s, t.query.keywords) for t in b
        ]

    def test_peak_hours_busier(self, model):
        stream = generate_stream(
            model, duration_s=24 * 3600, base_qps=1.0, peak_factor=3.0, seed=5
        )
        peak = sum(1 for tq in stream if 14 * 3600 <= tq.time_s < 18 * 3600)
        trough = sum(1 for tq in stream if 2 * 3600 <= tq.time_s < 6 * 3600)
        assert peak > trough * 1.5

    def test_invalid_duration(self, model):
        with pytest.raises(ValueError):
            generate_stream(model, duration_s=0)


def timed(*times):
    """One single-keyword query per timestamp: k0, k1, ..."""
    return [TimedQuery(t, Query((f"k{i}",))) for i, t in enumerate(times)]


def windows(stream, window_s=10.0):
    """Each window's operations; every stream here starts in window 0."""
    return [period.operations for period in tumbling_periods(stream, window_s)]


class TestSplitStream:
    def test_windows_cover_stream(self, model):
        stream = generate_stream(model, duration_s=100, base_qps=5.0, seed=6)
        periods = list(tumbling_periods(stream, 10.0))
        assert stream[0].time_s < 10.0
        assert [op for p in periods for op in p.operations] == [
            tuple(tq.query.keywords) for tq in stream
        ]
        for p in periods:
            assert (p.start_s, p.end_s) == (p.index * 10.0, p.index * 10.0 + 10.0)
            assert p.num_operations == sum(
                p.start_s <= tq.time_s < p.end_s for tq in stream
            )

    def test_empty_middle_windows_emitted(self):
        assert [len(w) for w in windows(timed(1.0, 25.0))] == [1, 0, 1]

    def test_empty_stream(self):
        assert windows([]) == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            windows(timed(0.0), 0.0)


class TestSplitStreamEdgeCases:
    def test_boundary_exact_query_goes_to_next_window(self):
        assert windows(timed(0.0, 10.0)) == [(("k0",),), (("k1",),)]

    def test_empty_window_run_preserves_indices(self):
        assert [len(w) for w in windows(timed(5.0, 45.0))] == [1, 0, 0, 0, 1]

    def test_non_monotonic_timestamps_raise(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            windows(timed(12.0, 3.0))

    def test_equal_timestamps_allowed(self):
        assert [len(w) for w in windows(timed(4.0, 4.0))] == [2]
