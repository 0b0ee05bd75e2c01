"""Discovery queries and discovery restrictions.

The trace-topic descriptor is ``Availability/Traces/<Entity-ID>`` so that
trackers can construct discovery queries from the Entity-ID alone (section
3.1); the tracker-side query has the form ``/Liveness/<Entity-ID>``
(section 3.4).  Discovery restrictions specify who is authorized to
discover a topic; unauthorized requests are silently ignored by the TDN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.certificates import Certificate, CertificateAuthority
from repro.errors import CertificateError, DiscoveryError
from repro.util.identifiers import EntityId
from repro.util.serialization import wire_record


def trace_descriptor(entity_id: EntityId | str) -> str:
    """The canonical trace-topic descriptor for an entity."""
    eid = entity_id.name if isinstance(entity_id, EntityId) else entity_id
    return f"Availability/Traces/{eid}"


@dataclass(frozen=True, slots=True)
class DiscoveryQuery:
    """A parsed discovery query.

    Accepted spellings (the paper's discovery scheme "provides support
    for a variety of query formats", section 2.2):

    * ``/Liveness/<Entity-ID>``   (the tracker query of section 3.4)
    * ``Availability/Traces/<Entity-ID>``  (the raw descriptor)

    The entity-id segment may contain shell-style wildcards (``*``, ``?``,
    ``[...]``), turning the query into a pattern that matches many
    descriptors — e.g. ``/Liveness/compute-*``.
    """

    descriptor: str

    @classmethod
    def parse(cls, text: str) -> "DiscoveryQuery":
        stripped = text[1:] if text.startswith("/") else text
        parts = stripped.split("/")
        if len(parts) == 2 and parts[0] == "Liveness" and parts[1]:
            return cls(descriptor=trace_descriptor(parts[1]))
        if len(parts) == 3 and parts[:2] == ["Availability", "Traces"] and parts[2]:
            return cls(descriptor=stripped)
        raise DiscoveryError(f"unsupported discovery query {text!r}")

    @classmethod
    def for_entity(cls, entity_id: EntityId | str) -> "DiscoveryQuery":
        return cls(descriptor=trace_descriptor(entity_id))

    @classmethod
    def for_pattern(cls, entity_pattern: str) -> "DiscoveryQuery":
        """A wildcard query over entity ids, e.g. ``compute-*``."""
        if "/" in entity_pattern:
            raise DiscoveryError(f"pattern may not contain '/': {entity_pattern!r}")
        return cls(descriptor=f"Availability/Traces/{entity_pattern}")

    @property
    def entity_id(self) -> str:
        return self.descriptor.rsplit("/", 1)[-1]

    @property
    def is_pattern(self) -> bool:
        """True if the entity-id segment contains wildcards."""
        return any(c in self.entity_id for c in "*?[")

    def matches(self, descriptor: str) -> bool:
        """Does a concrete descriptor satisfy this (possibly wildcard) query?"""
        import fnmatch

        return fnmatch.fnmatchcase(descriptor, self.descriptor)


@wire_record()
class DiscoveryRestrictions:
    """Who may discover a topic.

    ``allowed_subjects`` of ``None`` admits any requester presenting a
    certificate that verifies against the trust anchor; an explicit
    frozenset admits only those certificate subjects.  ``denied_subjects``
    always lose, even if listed as allowed (deny wins ties).
    """

    allowed_subjects: frozenset[str] | None = None
    denied_subjects: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def open_to_authenticated(cls) -> "DiscoveryRestrictions":
        """Any requester with valid credentials may discover."""
        return cls(allowed_subjects=None)

    @classmethod
    def allow_only(cls, *subjects: str) -> "DiscoveryRestrictions":
        return cls(allowed_subjects=frozenset(subjects))

    def permits(
        self,
        credentials: Certificate | None,
        trust_anchor: CertificateAuthority,
        now_ms: float,
    ) -> bool:
        """True iff the presented credentials satisfy the restrictions.

        Never raises: the TDN's contract is to *silently ignore*
        unauthorized discovery requests (section 3.1).
        """
        if credentials is None:
            return False
        try:
            trust_anchor.verify(credentials, now_ms=now_ms)
        except CertificateError:
            return False
        if credentials.subject in self.denied_subjects:
            return False
        if self.allowed_subjects is None:
            return True
        return credentials.subject in self.allowed_subjects
