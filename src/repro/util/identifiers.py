"""Identifiers used throughout the tracing framework.

The paper's trace topics are built around 128-bit UUIDs "guaranteed to be
unique in space and time" and generated *at the TDN* so that no entity can
claim another entity's topic (section 3.1).  For deterministic simulation we
generate UUIDs from a seeded random stream rather than from the host's
entropy pool; the uniqueness guarantee is enforced structurally (a generator
never repeats within a simulation run).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ValidationError

_HEX_DIGITS = frozenset(string.hexdigits)


@dataclass(frozen=True, slots=True)
class UUID128:
    """A 128-bit identifier, printable as 32 hex digits.

    Instances are value objects: equality and hashing are by the integer
    value, so they can key dictionaries (e.g. the TDN advertisement store).
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 128):
            raise ValidationError(f"UUID128 value out of range: {self.value!r}")

    @property
    def hex(self) -> str:
        """The canonical 32-hex-digit rendering (no dashes)."""
        return f"{self.value:032x}"

    @classmethod
    def from_hex(cls, text: str) -> "UUID128":
        """Parse a 32-hex-digit string (dashes tolerated)."""
        cleaned = text.replace("-", "")
        if len(cleaned) != 32 or not _HEX_DIGITS.issuperset(cleaned):
            raise ValidationError(f"expected 32 hex digits, got {text!r}")
        return cls(int(cleaned, 16))

    def __str__(self) -> str:
        return self.hex

    def __repr__(self) -> str:
        return f"UUID128({self.hex!r})"


class UUIDGenerator:
    """Deterministic UUID source backed by a seeded RNG.

    Guarantees no repeats within a single generator instance, which is the
    property the TDN relies on when minting trace topics.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed)
        self._issued: set[int] = set()

    def next(self) -> UUID128:
        while True:
            value = self._rng.getrandbits(128)
            if value not in self._issued:
                self._issued.add(value)
                return UUID128(value)

    def __iter__(self) -> Iterator[UUID128]:
        while True:
            yield self.next()


@dataclass(frozen=True, slots=True)
class EntityId:
    """Identifier for an entity (resource, service, application or user).

    The paper keys discovery on the Entity-ID (descriptor
    ``Availability/Traces/<Entity-ID>``), so the id must be stable and
    embeddable in a topic segment: we forbid '/' characters.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("EntityId must be non-empty")
        if "/" in self.name:
            raise ValidationError(f"EntityId may not contain '/': {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class RequestId:
    """Correlates a request message with its response (section 3.2)."""

    value: int

    def __str__(self) -> str:
        return f"req-{self.value}"


@dataclass(frozen=True, slots=True)
class SessionId:
    """Broker-minted identifier for one traced-entity registration session."""

    value: UUID128

    def __str__(self) -> str:
        return f"sess-{self.value.hex[:12]}"

    @property
    def topic_segment(self) -> str:
        """The rendering used when a session id is embedded in a topic."""
        return self.value.hex


@dataclass(slots=True)
class SequenceCounter:
    """Monotonically increasing counter (ping message numbers, request ids)."""

    _next: int = field(default=0)

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    def next_request_id(self) -> RequestId:
        return RequestId(self.next())
