"""Tests for repro.util.clock."""

import pytest

from repro.util.clock import (
    NTP_SKEW_MAX_MS,
    NTP_SKEW_MIN_MS,
    NTPSkewModel,
    SkewedClock,
    VirtualClock,
)


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock().now() == 0.0
        assert VirtualClock(100.0).now() == 100.0

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        assert clock.now() == 5.0

    def test_advance_by(self):
        clock = VirtualClock(10.0)
        clock.advance_by(2.5)
        assert clock.now() == 12.5

    def test_cannot_go_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)
        with pytest.raises(ValueError):
            clock.advance_by(-1.0)

    def test_advance_to_same_time_ok(self):
        clock = VirtualClock(10.0)
        clock.advance_to(10.0)
        assert clock.now() == 10.0


class TestSkewedClock:
    def test_positive_and_negative_offsets(self):
        reference = VirtualClock(1000.0)
        assert SkewedClock(reference, 50.0).now() == 1050.0
        assert SkewedClock(reference, -50.0).now() == 950.0

    def test_tracks_reference(self):
        reference = VirtualClock()
        skewed = SkewedClock(reference, 10.0)
        reference.advance_to(5.0)
        assert skewed.now() == 15.0


class TestNTPSkewModel:
    def test_offsets_within_paper_band(self):
        model = NTPSkewModel(seed=1)
        for _ in range(200):
            offset = model.sample_offset()
            assert NTP_SKEW_MIN_MS <= abs(offset) <= NTP_SKEW_MAX_MS

    def test_both_signs_occur(self):
        model = NTPSkewModel(seed=2)
        offsets = [model.sample_offset() for _ in range(100)]
        assert any(o > 0 for o in offsets)
        assert any(o < 0 for o in offsets)

    def test_p_synced_one_means_zero_offsets(self):
        model = NTPSkewModel(seed=3, p_synced=1.0)
        assert all(model.sample_offset() == 0.0 for _ in range(20))

    def test_deterministic_given_seed(self):
        a = NTPSkewModel(seed=9)
        b = NTPSkewModel(seed=9)
        assert [a.sample_offset() for _ in range(10)] == [
            b.sample_offset() for _ in range(10)
        ]

    def test_clock_for_node(self):
        model = NTPSkewModel(seed=4)
        reference = VirtualClock(500.0)
        clock = model.clock_for_node(reference)
        assert NTP_SKEW_MIN_MS <= abs(clock.now() - 500.0) <= NTP_SKEW_MAX_MS

    def test_tolerance_is_max_skew(self):
        assert NTPSkewModel(seed=0).tolerance_ms == NTP_SKEW_MAX_MS

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            NTPSkewModel(min_skew_ms=-1)
        with pytest.raises(ValueError):
            NTPSkewModel(min_skew_ms=50, max_skew_ms=10)
        with pytest.raises(ValueError):
            NTPSkewModel(p_synced=1.5)
