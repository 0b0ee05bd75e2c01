"""Ping coalescing: one wire frame for co-located traced entities.

A broker hosting many entities on the same machine pays per-frame costs —
ingress processing, per-delivery charges, and ``transport.bytes.sent`` —
for pings that differ only in their session envelope.  The
:class:`PingCoalescer` batches pings that come due within a short window
(``DEFAULT_COALESCE_WINDOW_MS``) and whose target entities share a host
into a single ``ping_batch`` frame, delivered to one delegate entity and
demultiplexed host-side to its co-located siblings.

Detection semantics are unchanged: every session still gets its own
monotonically numbered :class:`~repro.tracing.pings.Ping`, its history
records the ping at the (common) flush instant, and each entity answers —
or fails to answer — independently, so miss counting, suspicion and
failure verdicts behave exactly as with per-session frames.  The relay
below lives at the *host* level: a crashed delegate still demultiplexes
the batch (its host agent is alive even when the entity process is not),
only its own response is suppressed.

Singleton groups are published as plain legacy ``ping`` frames, so a
deployment with no co-location sends the same bytes per ping as one
frame per session would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import MalformedFrameError
from repro.tracing.pings import Ping
from repro.util.serialization import wire_record

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.sim.machine import Machine
    from repro.tracing.broker_ops import TraceManager
    from repro.tracing.session import TraceSession

#: Upper bound on how long a due ping may wait for co-located company
#: before flushing.  The effective slack per flush is
#: ``SLACK_FRAC * current_interval_ms`` capped at this value — the timer
#: coalescing model operating systems use: every timer may fire a little
#: late, and timers that land in the same slack window share one wakeup.
DEFAULT_COALESCE_WINDOW_MS = 50.0

#: Fraction of the ping interval a ping may be delayed to join a batch,
#: keeping cadence and detection-timing shift under 5% at any interval.
SLACK_FRAC = 0.05

#: Wire ``kind`` of a batched ping frame.
PING_BATCH_KIND = "ping_batch"


@wire_record()
class BatchedPing:
    """One entry of a ``ping_batch``: a ping and the entity it is for."""

    entity_id: str
    number: int
    issued_ms: float


@wire_record(PING_BATCH_KIND)
class PingBatch:
    """Pings for co-located entities in one frame; each entry is a
    BatchedPing mapping, decoded on its own so a bad one costs only itself."""

    pings: tuple[dict, ...]


def relay_ping_batch(machine: "Machine", body: dict) -> int:
    """Demultiplex one ``ping_batch`` frame to the host's ping sinks.

    ``machine.ping_sinks`` maps entity id to sink; a
    :class:`~repro.tracing.entity.TracedEntity` sets its entry when it
    subscribes to its broker->entity session topic (latest session wins).

    Returns how many entries found a sink.  Entries for entities not on
    this machine (or long gone), and entries whose ping does not parse,
    are dropped silently — the broker judges the missing responses exactly
    as it judges any lost ping.  A frame whose ``pings`` is not a list of
    mappings raises :class:`MalformedFrameError` before any sink is called.
    """
    entries = PingBatch.from_dict(body).pings
    sinks = machine.ping_sinks
    delivered = 0
    for entry in entries:
        try:
            batched = BatchedPing.from_dict(entry)
        except MalformedFrameError:
            continue
        sink = sinks.get(batched.entity_id)
        if sink is None:
            continue
        sink(Ping(batched.number, batched.issued_ms))
        delivered += 1
    return delivered


class PingCoalescer:
    """Batches due pings from one broker's sessions into shared frames.

    Ping loops :meth:`submit` their session when a ping comes due and then
    sleep until the returned flush delay elapses.  At flush time the
    pending sessions are grouped by host (via ``locate_host``), each group
    gets one frame — a legacy ``ping`` for singleton groups, a
    ``ping_batch`` for co-located ones — and every member session records
    its own freshly numbered ping.
    """

    def __init__(
        self,
        manager: "TraceManager",
        locate_host: Callable[[str], str | None] | None = None,
    ) -> None:
        self.manager = manager
        self.locate_host = locate_host
        self._pending: list["TraceSession"] = []
        self._flush_at: float | None = None

    def submit(self, session: "TraceSession") -> float:
        """Queue one session's due ping; returns the delay until its flush.

        The first submitter of a window opens it with slack proportional
        to its own ping interval (capped at ``DEFAULT_COALESCE_WINDOW_MS``);
        later submitters whose pings come due before the flush join for free.
        Sessions flushed together resume together, so same-interval
        co-located sessions that merge once stay merged.
        """
        sim = self.manager.sim
        if self._flush_at is None:
            slack = min(
                DEFAULT_COALESCE_WINDOW_MS, SLACK_FRAC * session.current_interval_ms
            )
            self._flush_at = sim.now + slack
            sim.call_at(self._flush_at, self._flush)
        self._pending.append(session)
        return max(0.0, self._flush_at - sim.now)

    def _flush(self) -> None:
        manager = self.manager
        pending, self._pending = self._pending, []
        self._flush_at = None
        if manager.broker.failed:
            # the host died inside the window: a dead broker issues no
            # pings; the loops thaw via their own broker.failed branch
            return
        live = [s for s in pending if s.active and not s.declared_failed]

        groups: dict[str, list["TraceSession"]] = {}
        for session in live:
            entity_id = str(session.entity_id)
            host = self.locate_host(entity_id) if self.locate_host else None
            # entities whose host is unknown never share a frame
            key = f"host:{host}" if host else f"solo:{entity_id}"
            groups.setdefault(key, []).append(session)

        metrics = manager.monitor.metrics
        for key in sorted(groups):
            sessions = sorted(groups[key], key=lambda s: str(s.entity_id))
            now = manager.machine.now()
            issued: list[tuple["TraceSession", Ping]] = []
            for session in sessions:
                ping = Ping(number=session.next_ping_number(), issued_ms=now)
                session.history.record_ping(ping)
                issued.append((session, ping))
                metrics.counter("tracker.pings.sent").inc()
            if len(issued) == 1:
                session, ping = issued[0]
                manager._publish_plain(
                    session.topics.broker_to_entity(session.session_id),
                    ping.to_dict(),
                )
                continue
            delegate = self._choose_delegate(sessions)
            pings = tuple(
                BatchedPing(str(session.entity_id), ping.number, ping.issued_ms).to_dict()
                for session, ping in issued
            )
            topic = delegate.topics.broker_to_entity(delegate.session_id)
            manager._publish_plain(topic, PingBatch(pings).to_dict())
            metrics.counter("tracker.pings.coalesced").inc(len(issued) - 1)
            metrics.histogram("tracker.ping.batch_size").observe(float(len(issued)))

    def _choose_delegate(self, sessions: list["TraceSession"]) -> "TraceSession":
        """First (by entity id) session whose client link is still attached.

        A detached delegate would swallow the whole batch for its
        co-located siblings; falling back to the first session keeps the
        choice deterministic when every link is gone.
        """
        broker = self.manager.broker
        for session in sessions:
            if broker.has_client(str(session.entity_id)):
                return session
        return sessions[0]
