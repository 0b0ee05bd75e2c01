"""Counter / Gauge / Histogram semantics and the virtual-clock Timer."""

import pytest

from repro.obs import Counter, Gauge, Histogram, Timer
from repro.util.clock import VirtualClock
from repro.util.stats import summarize


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_moves_both_directions(self):
        gauge = Gauge("g")
        gauge.inc(3.0)
        gauge.dec()
        assert gauge.value == 2.0
        gauge.set(-7.5)
        assert gauge.value == -7.5


class TestHistogram:
    def test_moments_match_summarize(self):
        samples = [0.3, 1.7, 12.0, 48.0, 120.0, 4_999.0]
        hist = Histogram("h")
        for value in samples:
            hist.observe(value)
        expected = summarize(samples)
        got = hist.summary()
        assert got.count == expected.count
        assert got.mean == pytest.approx(expected.mean)
        assert got.std_dev == pytest.approx(expected.std_dev)
        assert got.minimum == expected.minimum
        assert got.maximum == expected.maximum

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))

    def test_bucket_counts_include_overflow(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            hist.observe(value)
        buckets = hist.bucket_counts()
        assert buckets["<=1"] == 1
        assert buckets["<=10"] == 1
        assert buckets["+inf"] == 1

    def test_percentile_stays_in_observed_range(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (2.0, 3.0, 4.0, 5.0, 6.0):
            hist.observe(value)
        for q in (0.0, 50.0, 99.0, 100.0):
            assert 2.0 <= hist.percentile(q) <= 6.0

    def test_percentile_overflow_returns_max(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(500.0)
        hist.observe(900.0)
        assert hist.percentile(99.0) == 900.0

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(50.0)

    def test_to_dict_shapes(self):
        hist = Histogram("h")
        assert hist.to_dict() == {"count": 0}
        hist.observe(3.0)
        exported = hist.to_dict()
        assert exported["count"] == 1
        assert exported["mean"] == 3.0
        assert "p50" in exported and "buckets" in exported


class TestTimer:
    def test_measures_virtual_elapsed(self):
        clock = VirtualClock()
        hist = Histogram("t")
        timer = Timer(hist, clock)
        with timer:
            clock._now = 250.0
        assert timer.last_ms == 250.0
        assert hist.count == 1
        assert hist.mean == 250.0

    def test_records_on_exception(self):
        clock = VirtualClock()
        hist = Histogram("t")
        with pytest.raises(RuntimeError):
            with Timer(hist, clock):
                clock._now = 10.0
                raise RuntimeError("boom")
        assert hist.count == 1
        assert hist.mean == 10.0

    def test_works_across_generator_yields(self):
        clock = VirtualClock()
        hist = Histogram("t")

        def process():
            with Timer(hist, clock):
                yield "step"

        gen = process()
        next(gen)
        clock._now = 42.0  # virtual time passes while suspended
        with pytest.raises(StopIteration):
            next(gen)
        assert hist.mean == 42.0
