"""Tests for the multi-seed replication harness."""

import pytest

from repro.bench.replication import ReplicatedResult, replicate, t_critical_95
from repro.util.stats import summarize


class TestTCritical:
    def test_table_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(9) == pytest.approx(2.262)

    def test_interpolation(self):
        value = t_critical_95(12)
        assert t_critical_95(15) < value < t_critical_95(10)

    def test_large_dof_goes_normal(self):
        assert t_critical_95(500) == pytest.approx(1.96)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            t_critical_95(0)


class TestReplicate:
    def test_deterministic_case_tight_ci(self):
        result = replicate("const", lambda seed: summarize([50.0, 50.0]), [1, 2, 3])
        assert result.mean_of_means == 50.0
        assert result.ci95_half_width == 0.0
        low, high = result.ci95
        assert low <= 50.0 <= high
        assert not low <= 51.0 <= high

    def test_varying_case(self):
        def case(seed):
            return summarize([70.0 + seed, 70.0 + seed])

        result = replicate("vary", case, [0, 2, 4, 6])
        assert result.mean_of_means == pytest.approx(73.0)
        assert result.ci95_half_width > 0
        assert result.per_seed_means == (70.0, 72.0, 74.0, 76.0)

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError):
            replicate("x", lambda seed: summarize([1.0]), [1])

    def test_real_experiment_seed_stability(self):
        """The 2-hop latency estimate is seed-stable: paper value inside
        the replication CI."""
        from repro.bench.experiments.hops import run_hops_case

        def case(seed):
            return run_hops_case(2, duration_ms=30_000.0, seed=seed).summary

        result = replicate("TCP auth 2 hops", case, [1, 2, 3, 4])
        low, high = result.ci95
        assert low <= 74.0 <= high or abs(result.mean_of_means - 74.0) < 3.0
        # per-seed spread is small relative to the mean
        assert result.ci95_half_width < 5.0
