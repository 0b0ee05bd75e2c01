"""Directed and duplex links between simulated nodes."""

from __future__ import annotations

import random
from functools import cached_property, partial
from typing import TYPE_CHECKING, Any, Callable

from repro.obs import Counter, Gauge, Histogram
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.transport.base import DeliveryReceipt, TransportProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wire.codec import SizeMemo

Handler = Callable[[Any], None]


class Link:
    """One directed channel delivering payloads to a receiver callback.

    Ordering: for an ``ordered`` profile the link enforces FIFO by never
    scheduling a delivery earlier than the previously scheduled one (models
    TCP's in-order byte stream).  For unordered profiles each payload's
    latency is sampled independently, so reordering happens naturally.

    Reliability: for a ``reliable`` profile, each loss sample adds one
    retransmission penalty instead of dropping.  For unreliable profiles a
    loss sample silently drops the payload (the receiver sees nothing).

    Sizing: every send is sized by the module-level
    :func:`repro.wire.codec.frame_size` through the network's ``memo``,
    which holds the network's codec and registry, so a message forwarded
    over many links is rendered once, not once per send.
    """

    def __init__(
        self,
        sim: Simulator,
        profile: TransportProfile,
        receiver: Handler,
        rng: random.Random,
        monitor: Monitor,
        memo: SizeMemo,
        name: str = "",
    ) -> None:
        # Deferred import: repro.wire reaches back into the messaging
        # package, which imports repro.transport during its own init.
        from repro.wire.codec import frame_size

        self.sim = sim
        self.profile = profile
        self.receiver = receiver
        self.name = name or f"link-{id(self):x}"
        self._frame_size = frame_size
        self._memo = memo
        self._rng = rng
        self._monitor = monitor
        self._metrics = monitor.metrics
        self._last_arrival = 0.0
        self._latest_arrival = 0.0
        # Optional fault window installed by repro.faults; ``None`` on the
        # healthy path so no extra RNG draws happen outside a chaos run.
        self.disruption: Any = None

    # Per-send instruments: each is resolved on its first use and held as
    # the instrument, so a send does no registry lookup by name and an
    # idle (or always-dropping) link registers nothing it never touched.

    @cached_property
    def _msgs_sent(self) -> Counter:
        return self._metrics.counter("transport.msgs.sent")

    @cached_property
    def _bytes_sent(self) -> Counter:
        return self._metrics.counter("transport.bytes.sent")

    @cached_property
    def _codec_bytes(self) -> Counter:
        return self._metrics.counter(f"codec.bytes.{self._memo.codec.name}")

    @cached_property
    def _msgs_delivered(self) -> Counter:
        return self._metrics.counter("transport.msgs.delivered")

    @cached_property
    def _latency_ms(self) -> Histogram:
        return self._metrics.histogram("transport.latency_ms")

    @cached_property
    def _inflight(self) -> Gauge:
        return self._metrics.gauge("transport.inflight")

    def send(self, payload: Any) -> DeliveryReceipt:
        """Send ``payload``; schedules receiver callback in virtual time."""
        profile, rng, sim = self.profile, self._rng, self.sim
        size = self._frame_size(payload, self._memo)
        self._msgs_sent.inc()
        self._bytes_sent.inc(size)
        self._codec_bytes.inc(size)
        latency = profile.sample_latency_ms(size, rng)
        retransmits = 0

        disruption = self.disruption
        if disruption is not None:
            drop, extra_delay_ms = disruption.sample()
            if drop:
                # An injected drop is a blackhole: it bypasses the reliable
                # retransmission path on purpose (see transport/disruption.py).
                self._metrics.counter("transport.msgs.dropped").inc()
                self._monitor.journal.record(
                    sim.now, "link.drop", size_bytes=size, link=self.name, injected=True
                )
                return DeliveryReceipt(False, latency, 0, size)
            latency += extra_delay_ms

        # a loss-free profile draws nothing here (sample_loss would not)
        if profile.loss_probability > 0 and profile.sample_loss(rng):
            if not profile.reliable:
                self._metrics.counter("transport.msgs.dropped").inc()
                self._monitor.journal.record(
                    sim.now, "link.drop", size_bytes=size, link=self.name
                )
                return DeliveryReceipt(False, latency, 0, size)
            # reliable: pay retransmission penalties until a send survives
            while retransmits < profile.max_retransmits:
                retransmits += 1
                latency += profile.retransmit_timeout_ms
                if not profile.sample_loss(rng):
                    break
            self._metrics.counter("transport.retransmits").inc(retransmits)

        now = sim.now
        arrival = now + latency
        if profile.ordered:
            if arrival < self._last_arrival:
                arrival = self._last_arrival
                latency = arrival - now
            self._last_arrival = arrival
        elif arrival < self._latest_arrival:
            # this payload overtakes one sent earlier: a reordered delivery
            self._metrics.counter("transport.msgs.reordered").inc()
            self._monitor.journal.record(
                now, "link.reorder", size_bytes=size, link=self.name
            )
        if arrival > self._latest_arrival:
            self._latest_arrival = arrival

        self._msgs_delivered.inc()
        self._latency_ms.observe(latency)
        self._inflight.inc()
        sim.call_at(arrival, partial(self._deliver, payload))
        return DeliveryReceipt(True, latency, retransmits, size)

    def _deliver(self, payload: Any) -> None:
        self._inflight.dec()
        self.receiver(payload)
