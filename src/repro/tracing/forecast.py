"""NWS-style forecasting over NETWORK_METRICS traces.

The Network Weather Service (the paper's Ref [4]) popularized forecasting
future network performance from measurement streams by running several
simple predictors in parallel and using whichever has the lowest recent
error.  This module applies the same idea to the NETWORK_METRICS traces a
tracker receives, so a consumer can ask "what RTT should I expect to this
entity?" instead of reading the last raw sample.

Predictors: last value, windowed mean, windowed median, and an
exponentially-weighted moving average.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError, MalformedFrameError
from repro.tracing.tracker import ReceivedTrace, Tracker
from repro.tracing.traces import TraceType
from repro.util.serialization import Fields


def _last(values: list[float]) -> float:
    return values[-1]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


@dataclass(slots=True)
class _Predictor:
    name: str
    fn: Callable[[list[float]], float]
    squared_error: float = 0.0
    predictions: int = 0

    def mse(self) -> float:
        return self.squared_error / self.predictions if self.predictions else 0.0


class SeriesForecaster:
    """Adaptive multi-predictor forecaster for one numeric series."""

    def __init__(self, window: int = 10, ewma_alpha: float = 0.3) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        self.window = window
        self.ewma_alpha = ewma_alpha
        self._values: deque[float] = deque(maxlen=window)
        self._ewma: float | None = None
        self._predictors = [
            _Predictor("last", _last),
            _Predictor("mean", _mean),
            _Predictor("median", _median),
            _Predictor("ewma", lambda values: self._ewma if self._ewma is not None else values[-1]),
        ]

    def observe(self, value: float) -> None:
        """Feed one observation; predictor errors update first."""
        if self._values:
            values = list(self._values)
            for predictor in self._predictors:
                prediction = predictor.fn(values)
                predictor.squared_error += (prediction - value) ** 2
                predictor.predictions += 1
        self._values.append(value)
        if self._ewma is None:
            self._ewma = value
        else:
            self._ewma = self.ewma_alpha * value + (1 - self.ewma_alpha) * self._ewma

    @property
    def sample_count(self) -> int:
        return len(self._values)

    def best_predictor(self) -> str:
        """Name of the predictor with the lowest mean squared error."""
        scored = [p for p in self._predictors if p.predictions > 0]
        if not scored:
            return "last"
        return min(scored, key=lambda p: p.mse()).name

    def forecast(self) -> float | None:
        """Prediction from the currently-best predictor; None if no data."""
        if not self._values:
            return None
        best = self.best_predictor()
        for predictor in self._predictors:
            if predictor.name == best:
                return predictor.fn(list(self._values))
        raise AssertionError("unreachable")  # pragma: no cover

    def errors(self) -> dict[str, float]:
        return {p.name: p.mse() for p in self._predictors}


class NetworkForecaster:
    """Attach to a tracker; forecast RTT and loss per traced entity.

    With ``store`` given (an :class:`~repro.analytics.AnalyticsStore`),
    every NETWORK_METRICS sample is also persisted as a
    ``network.metrics`` analytics event (``value`` = mean RTT,
    ``loss_rate`` in the fields), so forecasts can be reproduced offline
    from the same log the availability reports read.
    """

    def __init__(self, tracker: Tracker, window: int = 10, store=None) -> None:
        self.tracker = tracker
        self.window = window
        self.store = store
        self.rtt: dict[str, SeriesForecaster] = {}
        self.loss: dict[str, SeriesForecaster] = {}
        self._previous_hook = tracker.on_trace
        tracker.on_trace = self._observe

    def _observe(self, trace: ReceivedTrace) -> None:
        if trace.trace_type is TraceType.NETWORK_METRICS:
            self._sample(trace)
        if self._previous_hook is not None:
            self._previous_hook(trace)

    def _sample(self, trace: ReceivedTrace) -> None:
        # the payload is signed, not typed; raising here would end the tracker's
        # trace process before the hooks chained behind this one run
        try:
            fields = Fields(trace.payload, "network_metrics")
            rtt_ms = fields.number("mean_rtt_ms")
            loss_rate = fields.number("loss_rate")
        except MalformedFrameError:
            self.tracker.monitor.increment("tracker.traces_malformed")
            return
        entity = trace.entity_id
        if entity not in self.rtt:
            self.rtt[entity] = SeriesForecaster(self.window)
            self.loss[entity] = SeriesForecaster(self.window)
        self.rtt[entity].observe(rtt_ms)
        self.loss[entity].observe(loss_rate)
        if self.store is not None:
            self.store.append(
                trace.received_ms,
                "network.metrics",
                entity=entity,
                value=rtt_ms,
                loss_rate=loss_rate,
            )

    def forecast_rtt_ms(self, entity_id: str) -> float | None:
        forecaster = self.rtt.get(entity_id)
        return forecaster.forecast() if forecaster else None

    def forecast_loss_rate(self, entity_id: str) -> float | None:
        forecaster = self.loss.get(entity_id)
        return forecaster.forecast() if forecaster else None
