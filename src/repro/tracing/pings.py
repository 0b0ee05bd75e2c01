"""Pings, ping responses and the broker's ping history (section 3.3).

"The ping message issued by a broker contains a monotonically increasing
message number and the timestamp at which it was issued.  A ping response
must include both. The message number allows a broker to keep track of
message losses and out-of-order delivery, while the timestamp allows the
broker to compute network latencies."

"For every traced entity, a broker maintains ... the response times (and
loss rates) associated with the last 10 pings."

Paper detection thresholds encoded here and in ``tracing/failure.py``:

* history window: the last **10** pings (``PING_HISTORY_WINDOW``);
* a ping is judged *missed* once its response is **400 ms** overdue
  (``AdaptivePingPolicy.response_deadline_ms``);
* **3** consecutive misses raise a FAILURE_SUSPICION trace, **6** declare
  the entity FAILED (``FailureDetector`` defaults, section 3.3);
* the ping interval adapts between **125 ms** and **8000 ms** around a
  1000 ms base (growth x1.25 on answered, shrink x0.5 on missed).

Broker-restart incarnations: a broker that crashes and recovers keeps its
``PingHistory`` objects, but their windowed state describes the *previous*
incarnation — in particular the highest-answered watermark and the stale
unanswered records issued before the crash.  ``reset_incarnation()`` clears
that windowed state (records, watermark, last-ping timestamp) while
preserving cumulative out-of-order statistics, so the first post-restart
responses are judged on their own merits instead of being suppressed or
mis-matched against pre-crash pings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry
from repro.tracing.traces import NetworkMetrics
from repro.util.serialization import Fields

#: Window size of the broker's per-entity ping history.
PING_HISTORY_WINDOW = 10


@dataclass(frozen=True, slots=True)
class Ping:
    """Broker-to-entity ping."""

    number: int
    issued_ms: float

    def to_dict(self) -> dict:
        return {"kind": "ping", "number": self.number, "issued_ms": self.issued_ms}

    @classmethod
    def from_dict(cls, data: dict) -> "Ping":
        fields = Fields(data, cls)
        return cls(number=fields.integer("number"), issued_ms=fields.number("issued_ms"))


@dataclass(frozen=True, slots=True)
class PingResponse:
    """Entity-to-broker response echoing number and timestamp.

    ``entity_stamp_ms`` is the entity's local send time — opaque to the
    broker (clocks differ) but copied into derived traces so a colocated
    tracker can compute end-to-end latency without clock synchronization,
    exactly the measurement setup of section 6.1.
    """

    number: int
    issued_ms: float
    entity_stamp_ms: float

    def to_dict(self) -> dict:
        return {
            "kind": "ping_response",
            "number": self.number,
            "issued_ms": self.issued_ms,
            "entity_stamp_ms": self.entity_stamp_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PingResponse":
        fields = Fields(data, cls)
        return cls(
            number=fields.integer("number"),
            issued_ms=fields.number("issued_ms"),
            entity_stamp_ms=fields.number("entity_stamp_ms"),
        )


@dataclass(slots=True)
class _PingRecord:
    number: int
    issued_ms: float
    response_ms: float | None = None  # broker receive time

    @property
    def answered(self) -> bool:
        return self.response_ms is not None

    @property
    def rtt_ms(self) -> float | None:
        if self.response_ms is None:
            return None
        return self.response_ms - self.issued_ms


@dataclass(slots=True)
class PingHistory:
    """Sliding window over the last N pings issued to one entity."""

    window: int = PING_HISTORY_WINDOW
    _records: deque = field(default_factory=deque)
    _highest_response_number: int = -1
    _out_of_order: int = 0
    _responses: int = 0
    last_ping_ms: float | None = None
    #: Deployment registry, set by the owning TraceManager; when present,
    #: ping intervals and RTTs flow into ``tracker.ping.*`` histograms.
    metrics: MetricsRegistry | None = None

    def record_ping(self, ping: Ping) -> None:
        if self.metrics is not None and self.last_ping_ms is not None:
            self.metrics.histogram("tracker.ping.interval_ms").observe(
                ping.issued_ms - self.last_ping_ms
            )
        self._records.append(_PingRecord(ping.number, ping.issued_ms))
        while len(self._records) > self.window:
            self._records.popleft()
        self.last_ping_ms = ping.issued_ms

    def record_response(self, response: PingResponse, received_ms: float) -> bool:
        """Mark the matching ping answered; returns False for unmatched.

        Also tracks out-of-order arrivals: a response whose number is below
        the highest number already answered arrived out of order.  Only
        responses that match a recorded, still-unanswered ping enter the
        statistics — unmatched or duplicate responses would otherwise
        inflate the denominator of ``out_of_order_rate()`` (and a
        duplicate must not advance the highest-answered watermark), which
        skewed the NETWORK_METRICS traces of section 3.3.

        A response must echo both the number *and* the issue timestamp of
        a recorded ping (the pair the paper says every response carries);
        matching on the number alone let a stale record from a pre-restart
        incarnation swallow a fresh response that reused its number.
        """
        for record in self._records:
            if (
                record.number == response.number
                and record.issued_ms == response.issued_ms
                and not record.answered
            ):
                record.response_ms = received_ms
                self._responses += 1
                if response.number < self._highest_response_number:
                    self._out_of_order += 1
                else:
                    self._highest_response_number = response.number
                if self.metrics is not None and record.rtt_ms is not None:
                    self.metrics.histogram("tracker.ping.rtt_ms").observe(
                        record.rtt_ms
                    )
                return True
        return False

    def reset_incarnation(self) -> None:
        """Forget windowed state from a previous broker incarnation.

        Called when the owning broker restarts after a crash: every
        recorded ping (answered or not) belongs to the dead incarnation,
        and the highest-answered watermark would misclassify the first
        post-restart responses as out of order.  Cumulative statistics
        (``_out_of_order`` / ``_responses``) survive — they describe the
        entity's link, not the broker's process lifetime.
        """
        self._records.clear()
        self._highest_response_number = -1
        self.last_ping_ms = None

    def last_response_ms(self) -> float | None:
        """Broker receive time of the most recent answered ping, if any."""
        best: float | None = None
        for record in self._records:
            if record.response_ms is not None:
                if best is None or record.response_ms > best:
                    best = record.response_ms
        return best

    # -- windowed statistics -------------------------------------------------------

    def consecutive_misses(self, now_ms: float, deadline_ms: float) -> int:
        """Trailing unanswered pings whose response deadline has passed."""
        misses = 0
        for record in reversed(self._records):
            if record.answered:
                break
            if now_ms - record.issued_ms < deadline_ms:
                # too early to judge this ping; skip it without resetting
                continue
            misses += 1
        return misses

    def loss_rate(self, now_ms: float, deadline_ms: float) -> float:
        """Fraction of judged pings in the window that went unanswered."""
        judged = 0
        lost = 0
        for record in self._records:
            if record.answered:
                judged += 1
            elif now_ms - record.issued_ms >= deadline_ms:
                judged += 1
                lost += 1
        return lost / judged if judged else 0.0

    def rtts(self) -> list[float]:
        return [r.rtt_ms for r in self._records if r.rtt_ms is not None]

    def mean_rtt_ms(self) -> float | None:
        rtts = self.rtts()
        return sum(rtts) / len(rtts) if rtts else None

    def jitter_ms(self) -> float:
        rtts = self.rtts()
        if len(rtts) < 2:
            return 0.0
        mean = sum(rtts) / len(rtts)
        return (sum((r - mean) ** 2 for r in rtts) / (len(rtts) - 1)) ** 0.5

    def out_of_order_rate(self) -> float:
        return self._out_of_order / self._responses if self._responses else 0.0

    def network_metrics(
        self,
        now_ms: float,
        deadline_ms: float,
        bandwidth_estimate_kbps: float = 100_000.0,
    ) -> NetworkMetrics | None:
        """Derive a NETWORK_METRICS trace body; None if no data yet."""
        mean_rtt = self.mean_rtt_ms()
        if mean_rtt is None:
            return None
        return NetworkMetrics(
            loss_rate=self.loss_rate(now_ms, deadline_ms),
            mean_rtt_ms=mean_rtt,
            jitter_ms=self.jitter_ms(),
            out_of_order_rate=self.out_of_order_rate(),
            bandwidth_estimate_kbps=bandwidth_estimate_kbps,
        )

    def __len__(self) -> int:
        return len(self._records)
