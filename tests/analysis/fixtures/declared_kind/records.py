"""Two tagged records (one through a constant) and one untagged record."""

from dataclasses import dataclass

from repro.util.serialization import wire_record

HEARTBEAT_KIND = "heartbeat"


@wire_record(HEARTBEAT_KIND)
@dataclass(frozen=True)
class Heartbeat:
    number: int


@wire_record("goodbye")
@dataclass(frozen=True)
class Goodbye:
    reason: str


@wire_record()
@dataclass(frozen=True)
class Untagged:
    value: int
