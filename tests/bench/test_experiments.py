"""Fast smoke tests of the experiment runners (short durations).

The full paper-accuracy runs are the paper rows of ``repro seeds``
(``src/repro/seeds.py``); these tests check the runners' mechanics — result
structure, slopes, sample counts — at a fraction of the simulated duration.
"""

import pytest

from repro.bench import paper_data
from repro.bench.experiments import hops, microcosts
from repro.bench.experiments.ablations import (
    AdaptivePingResult,
    GatingResult,
    MessageCountResult,
    run_adaptive_ping_ablation,
    run_interest_gating_ablation,
    run_message_count_case,
)
from repro.bench.experiments.entities import run_entities_case
from repro.bench.experiments.hops import (
    HopsResult,
    run_hops_case,
    run_signing_opt_sweep,
    slope_per_hop,
)
from repro.bench.experiments.keydist import run_keydist_case
from repro.bench.experiments.microcosts import MICRO_ROWS, run_calibrated_micro
from repro.bench.experiments.trackers import growth_ratio, run_trackers_case
from repro.bench.tables import render_comparison
from repro.util.stats import summarize


class TestHopsRunner:
    def test_single_case_structure(self):
        result = run_hops_case(2, duration_ms=20_000.0)
        assert result.hops == 2
        assert result.transport == "TCP"
        assert result.summary.count >= 10
        assert 50.0 < result.summary.mean < 110.0

    def test_comparison_row_names_the_case(self):
        result = run_hops_case(2, duration_ms=15_000.0)
        [row] = hops.comparison_rows([result])
        assert row.label == "TCP auth 2 hops"
        assert row.measured is result.summary
        assert "TCP auth 2 hops" in render_comparison("Table 3", [row])

    def test_latency_grows_with_hops(self):
        short = run_hops_case(2, duration_ms=20_000.0)
        long = run_hops_case(5, duration_ms=20_000.0)
        assert long.summary.mean > short.summary.mean
        # ... and by Table 3's ~7 ms per hop: every hop verifies the token
        lo, hi = paper_data.EXPECTED_HOP_SLOPE_MS
        assert lo <= (long.summary.mean - short.summary.mean) / 3 <= hi

    def test_slope_per_hop(self):
        results = [
            HopsResult(h, "TCP", False, False, summarize([10.0 * h, 10.0 * h]))
            for h in (2, 3, 4)
        ]
        assert slope_per_hop(results) == pytest.approx(10.0)

    def test_slope_requires_two_points(self):
        with pytest.raises(ValueError):
            slope_per_hop(
                [HopsResult(2, "TCP", False, False, summarize([1.0]))]
            )

    def test_signing_opt_sweep_shapes(self):
        results = run_signing_opt_sweep(hops_list=(2,), duration_ms=20_000.0)
        modes = {r.symmetric_channel for r in results}
        assert modes == {False, True}
        signed = next(r for r in results if not r.symmetric_channel)
        optimized = next(r for r in results if r.symmetric_channel)
        assert optimized.summary.mean < signed.summary.mean


class TestMicroRunner:
    def test_covers_all_table3_rows(self):
        results = run_calibrated_micro(samples=50)
        assert [r.label for r in results] == [label for label, _ in MICRO_ROWS]
        assert all(r.calibrated.count == 50 for r in results)

    def test_comparison_rows_carry_paper_means(self):
        rows = microcosts.comparison_rows(run_calibrated_micro(samples=50))
        by_label = {row.label: row for row in rows}
        assert 24.0 < by_label["Sign Trace Message"].paper_mean < 25.0
        assert "Sign Trace Message" in render_comparison("Table 3", rows)


class TestTrackersRunner:
    def test_case_structure(self):
        result = run_trackers_case(10, duration_ms=20_000.0)
        assert result.tracker_count == 10
        assert result.summary.count > 5

    def test_growth_ratio(self):
        a = run_trackers_case(0, duration_ms=20_000.0)
        b = run_trackers_case(20, duration_ms=20_000.0)
        ratio = growth_ratio([a, b])
        assert 0.9 < ratio < 1.3


class TestEntitiesRunner:
    def test_case_structure(self):
        result = run_entities_case(3, tracker_count=3, duration_ms=15_000.0)
        assert result.entity_count == 3
        assert result.samples > 10


class TestKeydistRunner:
    def test_case_structure(self):
        result = run_keydist_case(2, tracker_count=5)
        assert result.hops == 2
        assert result.samples >= 3
        assert result.summary.mean > 40.0


class TestAblations:
    """Small cases of the ablations that read fabric counters, with their
    outputs pinned: moving where a counter is kept must not move a result."""

    def test_message_count_case(self):
        result = run_message_count_case(3, watchers_per_entity=1, duration_ms=10_000.0)
        assert result == MessageCountResult(
            population=3, watchers=3, allpairs_msgs_per_s=6.0, tracing_msgs_per_s=16.8
        )

    def test_interest_gating_ablation(self):
        results = run_interest_gating_ablation(entity_count=2, duration_ms=10_000.0)
        assert results == [
            GatingResult(gated=True, published=4, suppressed=34, delivered=30),
            GatingResult(gated=False, published=38, suppressed=0, delivered=30),
        ]

    def test_adaptive_ping_ablation(self):
        adaptive, fixed = run_adaptive_ping_ablation()
        assert adaptive == AdaptivePingResult("adaptive (section 3.3)", 2512.4015911837905, 6)
        assert fixed == AdaptivePingResult("fixed interval", 10819.901591183792, 6)
