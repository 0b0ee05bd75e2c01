"""Declarative fault schedules.

A :class:`FaultPlan` is data, not behaviour: an ordered set of
:class:`FaultEvent` records saying *what* goes wrong, *when* (virtual
milliseconds), and for *how long*.  The
:class:`~repro.faults.controller.FaultController` interprets the plan
against a live deployment; keeping the schedule declarative means the same
plan replays bit-identically under the same seed, serializes into CI seed
snapshots, and reads like the scenario catalog in docs/FAULTS.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ValidationError
from repro.util.serialization import Fields


class FaultKind(enum.Enum):
    """The failure classes the controller knows how to inject."""

    BROKER_CRASH = "broker_crash"
    LINK_PARTITION = "link_partition"
    PACKET_LOSS = "packet_loss"
    DELAY_SPIKE = "delay_spike"
    ENTITY_CRASH = "entity_crash"


#: Kinds that operate on a broker pair and therefore require ``peer``.
_PAIR_KINDS = frozenset({FaultKind.LINK_PARTITION})
#: Kinds whose effect is a window and therefore require ``duration_ms``.
_WINDOW_KINDS = frozenset(
    {FaultKind.LINK_PARTITION, FaultKind.PACKET_LOSS, FaultKind.DELAY_SPIKE}
)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` names the victim: a broker id for broker/link/window kinds,
    an entity id for ``ENTITY_CRASH``.  ``peer`` is the other endpoint of
    a partitioned link.  ``duration_ms`` of ``None`` means the fault is
    never reverted inside the run (a permanent crash).  For broker
    crashes, ``failover_to`` asks the controller to migrate the broker's
    traced entities to another broker once ``detect_after_ms`` of virtual
    time has passed — modelling the Ref [3] discovery delay between the
    crash and the entities noticing it.
    """

    kind: FaultKind
    at_ms: float
    target: str
    duration_ms: float | None = None
    peer: str | None = None
    loss_probability: float = 0.0
    extra_delay_ms: float = 0.0
    failover_to: str | None = None
    detect_after_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValidationError(f"at_ms must be >= 0, got {self.at_ms}")
        if self.duration_ms is not None and self.duration_ms <= 0:
            raise ValidationError(
                f"duration_ms must be positive or None, got {self.duration_ms}"
            )
        if not self.target:
            raise ValidationError("fault event needs a target")
        if self.kind in _PAIR_KINDS and not self.peer:
            raise ValidationError(f"{self.kind.value} needs a peer broker")
        if self.kind not in _PAIR_KINDS and self.peer is not None:
            raise ValidationError(f"{self.kind.value} does not take a peer")
        if self.kind in _WINDOW_KINDS and self.duration_ms is None:
            raise ValidationError(f"{self.kind.value} needs a duration_ms window")
        if self.kind is FaultKind.PACKET_LOSS and not 0.0 < self.loss_probability <= 1.0:
            raise ValidationError(
                f"packet_loss needs loss_probability in (0, 1], got "
                f"{self.loss_probability}"
            )
        if self.kind is FaultKind.DELAY_SPIKE and self.extra_delay_ms <= 0.0:
            raise ValidationError(
                f"delay_spike needs extra_delay_ms > 0, got {self.extra_delay_ms}"
            )
        if self.failover_to is not None and self.kind is not FaultKind.BROKER_CRASH:
            raise ValidationError("failover_to only applies to broker_crash")
        if self.detect_after_ms < 0:
            raise ValidationError(
                f"detect_after_ms must be >= 0, got {self.detect_after_ms}"
            )

    @property
    def revert_at_ms(self) -> float | None:
        """Virtual time the fault heals, or None for permanent faults."""
        if self.duration_ms is None:
            return None
        return self.at_ms + self.duration_ms

    def to_dict(self) -> dict:
        """JSON-ready event form; ``from_dict`` round-trips it."""
        return {
            "kind": self.kind.value,
            "at_ms": self.at_ms,
            "target": self.target,
            "duration_ms": self.duration_ms,
            "peer": self.peer,
            "loss_probability": self.loss_probability,
            "extra_delay_ms": self.extra_delay_ms,
            "failover_to": self.failover_to,
            "detect_after_ms": self.detect_after_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Parse one event dict; raises a ``ValidationError`` if invalid."""
        fields = Fields(data, cls)
        return cls(
            kind=fields.member("kind", FaultKind),
            at_ms=fields.number("at_ms"),
            target=fields.text("target"),
            duration_ms=fields.number("duration_ms", None),
            peer=fields.text("peer", None),
            loss_probability=fields.number("loss_probability", 0.0),
            extra_delay_ms=fields.number("extra_delay_ms", 0.0),
            failover_to=fields.text("failover_to", None),
            detect_after_ms=fields.number("detect_after_ms", 2000.0),
        )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A named, ordered schedule of fault events."""

    name: str
    events: tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fault plan needs a name")
        object.__setattr__(self, "events", tuple(self.events))

    def timeline(self) -> tuple[FaultEvent, ...]:
        """Events sorted by injection time (stable for equal times)."""
        return tuple(sorted(self.events, key=lambda e: e.at_ms))

    def to_dict(self) -> dict:
        """JSON-ready plan form (events in timeline order)."""
        return {
            "name": self.name,
            "events": [event.to_dict() for event in self.timeline()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Parse a plan dict; raises a ``ValidationError`` if invalid."""
        fields = Fields(data, cls)
        return cls(
            name=fields.text("name"),
            events=tuple(FaultEvent.from_dict(event) for event in fields.items("events")),
        )

    def __len__(self) -> int:
        return len(self.events)
