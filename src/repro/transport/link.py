"""Directed and duplex links between simulated nodes."""

from __future__ import annotations

import random
from functools import cached_property
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

    Sizing: every send is sized through the link's wire codec
    (``codec`` argument, else ``json``) via the
    memoized hot path in :mod:`repro.wire.codec`.  A network hands all of
    its links one ``memo``, so a message forwarded over many links is
    rendered once per codec, not once per send; a link built without one
    keeps its own.
    """

    def __init__(
        self,
        sim: Simulator,
        profile: TransportProfile,
        receiver: Handler,
        rng: random.Random,
        name: str = "",
        monitor: Monitor | None = None,
        codec: str | None = None,
        memo: SizeMemo | None = None,
    ) -> None:
        # Deferred import: repro.wire reaches back into the messaging
        # package, which imports repro.transport during its own init.
        from repro.wire.codec import SizeMemo, frame_size, resolve_codec

        self.sim = sim
        self.profile = profile
        self.receiver = receiver
        self.name = name or f"link-{id(self):x}"
        self.codec = resolve_codec(codec)
        self._frame_size = frame_size
        self._memo = memo if memo is not None else SizeMemo()
        self._rng = rng
        self._monitor = monitor
        self._metrics = monitor.metrics if monitor is not None else None
        self._last_arrival = 0.0
        self._latest_arrival = 0.0
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.retransmit_count = 0
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
        return self._metrics.counter(f"codec.bytes.{self.codec.name}")

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
        size = self._frame_size(payload, self.codec, self._metrics, self._memo)
        self.sent_count += 1
        metrics = self._metrics
        if metrics is not None:
            self._msgs_sent.inc()
            self._bytes_sent.inc(size)
            self._codec_bytes.inc(size)
        latency = self.profile.sample_latency_ms(size, self._rng)
        retransmits = 0

        disruption = self.disruption
        if disruption is not None:
            drop, extra_delay_ms = disruption.sample()
            if drop:
                # An injected drop is a blackhole: it bypasses the reliable
                # retransmission path on purpose (see transport/disruption.py).
                self.dropped_count += 1
                if self._monitor is not None:
                    metrics.counter("transport.msgs.dropped").inc()
                    self._monitor.journal.record(
                        self.sim.now,
                        "link.drop",
                        size_bytes=size,
                        link=self.name,
                        injected=True,
                    )
                return DeliveryReceipt(False, latency, 0, size)
            latency += extra_delay_ms

        if self.profile.sample_loss(self._rng):
            if not self.profile.reliable:
                self.dropped_count += 1
                if self._monitor is not None:
                    metrics.counter("transport.msgs.dropped").inc()
                    self._monitor.journal.record(
                        self.sim.now, "link.drop", size_bytes=size, link=self.name
                    )
                return DeliveryReceipt(False, latency, 0, size)
            # reliable: pay retransmission penalties until a send survives
            while retransmits < self.profile.max_retransmits:
                retransmits += 1
                latency += self.profile.retransmit_timeout_ms
                if not self.profile.sample_loss(self._rng):
                    break
            self.retransmit_count += retransmits
            if metrics is not None:
                metrics.counter("transport.retransmits").inc(retransmits)

        arrival = self.sim.now + latency
        if self.profile.ordered and arrival < self._last_arrival:
            arrival = self._last_arrival
            latency = arrival - self.sim.now
        if self.profile.ordered:
            self._last_arrival = arrival
        elif arrival < self._latest_arrival and self._monitor is not None:
            # this payload overtakes one sent earlier: a reordered delivery
            metrics.counter("transport.msgs.reordered").inc()
            self._monitor.journal.record(
                self.sim.now, "link.reorder", size_bytes=size, link=self.name
            )
        self._latest_arrival = max(self._latest_arrival, arrival)

        self.delivered_count += 1
        if self._monitor is not None:
            self._msgs_delivered.inc()
            self._latency_ms.observe(latency)
            self._inflight.inc()
        self.sim.call_at(arrival, lambda: self._deliver(payload))
        return DeliveryReceipt(True, latency, retransmits, size)

    def _deliver(self, payload: Any) -> None:
        if self._metrics is not None:
            self._inflight.dec()
        self.receiver(payload)


class DuplexLink:
    """A symmetric pair of directed links between two endpoints."""

    def __init__(
        self,
        sim: Simulator,
        profile: TransportProfile,
        receiver_a: Handler,
        receiver_b: Handler,
        rng: random.Random,
        name: str = "",
        monitor: Monitor | None = None,
        codec: str | None = None,
    ) -> None:
        self.name = name or f"duplex-{id(self):x}"
        self.a_to_b = Link(
            sim, profile, receiver_b, rng, f"{self.name}.a2b", monitor, codec=codec
        )
        self.b_to_a = Link(
            sim, profile, receiver_a, rng, f"{self.name}.b2a", monitor, codec=codec
        )

    @property
    def profile(self) -> TransportProfile:
        return self.a_to_b.profile
