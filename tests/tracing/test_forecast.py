"""Tests for the NWS-style forecaster."""

import pytest
from hypothesis import given, strategies as st

from repro import build_deployment
from repro.tracing.forecast import NetworkForecaster, SeriesForecaster
from repro.tracing.tracker import ReceivedTrace
from repro.tracing.traces import TraceType


def errors(forecaster: SeriesForecaster) -> dict[str, float]:
    """Each predictor's mean squared one-step error, by name."""
    return {p.name: p.mse() for p in forecaster._predictors}


class TestSeriesForecaster:
    def test_no_data_no_forecast(self):
        assert SeriesForecaster().forecast() is None

    def test_constant_series_predicted_exactly(self):
        forecaster = SeriesForecaster()
        for _ in range(20):
            forecaster.observe(5.0)
        assert forecaster.forecast() == pytest.approx(5.0)
        assert all(e == pytest.approx(0.0) for e in errors(forecaster).values())

    def test_median_wins_with_outliers(self):
        """A spiky series favors the median over last-value."""
        forecaster = SeriesForecaster(window=10)
        values = [10.0, 10.0, 10.0, 200.0] * 8
        for value in values:
            forecaster.observe(value)
        mse = errors(forecaster)
        assert mse["median"] < mse["last"]

    def test_last_wins_on_trend(self):
        """A steadily rising series favors last-value over the mean."""
        forecaster = SeriesForecaster(window=10)
        for i in range(40):
            forecaster.observe(float(i))
        mse = errors(forecaster)
        assert mse["last"] < mse["mean"]
        assert forecaster.best_predictor() == "last"

    def test_window_bounds_memory(self):
        forecaster = SeriesForecaster(window=5)
        for i in range(100):
            forecaster.observe(float(i))
        assert len(forecaster._values) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesForecaster(window=0)
        with pytest.raises(ValueError):
            SeriesForecaster(ewma_alpha=0.0)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=60))
    def test_forecast_within_observed_range(self, values):
        forecaster = SeriesForecaster(window=10)
        for value in values:
            forecaster.observe(value)
        forecast = forecaster.forecast()
        window = values[-10:]
        # every predictor is a convex combination of window values (ewma
        # also mixes older values, all within the global range)
        assert min(values) <= forecast <= max(values)
        assert forecast == pytest.approx(forecast)  # not NaN


class TestNetworkForecasterLive:
    def test_forecasts_rtt_from_traces(self):
        dep = build_deployment(broker_ids=["b1", "b2"], seed=910)
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        forecaster = NetworkForecaster(tracker)

        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=60_000)

        rtt = forecaster.forecast_rtt_ms("svc")
        assert rtt is not None
        # RTT entity<->broker is small: a couple of link crossings + CPU
        assert 0.0 < rtt < 200.0
        assert forecaster.loss["svc"].forecast() == pytest.approx(0.0)

    def test_unknown_entity(self):
        dep = build_deployment(broker_ids=["b1"], seed=911)
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        forecaster = NetworkForecaster(tracker)
        assert forecaster.forecast_rtt_ms("ghost") is None

    def test_a_sampleless_metrics_trace_is_counted_and_the_next_sink_still_runs(self):
        # a verified NETWORK_METRICS trace is signed, not typed; raising out of the
        # sink ends the tracker's trace process before a later-attached ingestor runs
        dep = build_deployment(broker_ids=["b1"], seed=912)
        tracker = dep.add_tracker("w")
        forecaster = NetworkForecaster(tracker)
        seen = []
        tracker.on_trace.append(seen.append)
        traces = [
            ReceivedTrace(TraceType.NETWORK_METRICS, "svc", 1.0, None, payload)
            for payload in ({}, {"mean_rtt_ms": "soon", "loss_rate": 0.0})
        ]

        for trace in traces:
            for sink in tracker.on_trace:
                sink(trace)

        assert seen == traces
        assert forecaster.forecast_rtt_ms("svc") is None
        assert tracker.monitor.metrics.counter_value("tracker.traces_malformed") == 2
