"""Tests for repro.util.stats."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import RunningStats, StatSummary, summarize

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRunningStats:
    def test_mean_and_std(self):
        rs = RunningStats()
        rs.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert rs.mean == pytest.approx(5.0)
        assert rs.std_dev == pytest.approx(statistics.stdev([2, 4, 4, 4, 5, 5, 7, 9]))

    def test_std_error(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        rs = RunningStats()
        rs.extend(samples)
        assert rs.std_error == pytest.approx(
            statistics.stdev(samples) / math.sqrt(4)
        )

    def test_min_max(self):
        rs = RunningStats()
        rs.extend([3.0, -1.0, 10.0])
        assert rs.minimum == -1.0
        assert rs.maximum == 10.0

    def test_single_sample(self):
        rs = RunningStats()
        rs.add(42.0)
        assert rs.mean == 42.0
        assert rs.std_dev == 0.0
        assert rs.std_error == 0.0

    def test_empty_raises(self):
        rs = RunningStats()
        with pytest.raises(ValueError):
            _ = rs.mean
        with pytest.raises(ValueError):
            rs.summary()

    @given(st.lists(finite_floats, min_size=2, max_size=50))
    def test_matches_statistics_module(self, samples):
        rs = RunningStats()
        rs.extend(samples)
        assert rs.mean == pytest.approx(statistics.fmean(samples), abs=1e-6)
        assert rs.std_dev == pytest.approx(statistics.stdev(samples), abs=1e-5)


class TestSummary:
    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert isinstance(summary, StatSummary)
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
