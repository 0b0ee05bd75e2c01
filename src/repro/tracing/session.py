"""Broker-side session state for one traced entity."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.auth.tokens import AuthorizationToken
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import RSAPrivateKey
from repro.sim.engine import Process, Queue
from repro.tdn.advertisement import TopicAdvertisement
from repro.tracing.failure import FailureDetector
from repro.tracing.interest import InterestRegistry
from repro.tracing.pings import PingHistory
from repro.tracing.topics import TraceTopicSet
from repro.tracing.traces import EntityState
from repro.util.identifiers import EntityId, SessionId


@dataclass(slots=True)
class TraceSession:
    """Everything the hosting broker knows about one traced entity."""

    entity_id: EntityId
    session_id: SessionId
    advertisement: TopicAdvertisement
    topics: TraceTopicSet
    started_ms: float
    #: entity messages and ping judgments awaiting the session worker, in arrival order
    inbox: Queue
    #: the entity's registry on this broker, shared with its later sessions
    interest: InterestRegistry
    #: the ping interval in force; the manager's policy sets and adapts it
    current_interval_ms: float
    detector: FailureDetector = field(default_factory=FailureDetector)
    history: PingHistory = field(default_factory=PingHistory)

    # delegation (section 4.3)
    token: AuthorizationToken | None = None
    token_private_key: RSAPrivateKey | None = None

    # confidentiality (section 5.1)
    trace_key: SymmetricKey | None = None

    # signing-cost optimization (section 6.3): shared entity<->broker key
    channel_key: SymmetricKey | None = None

    # liveness bookkeeping
    entity_state: EntityState = EntityState.INITIALIZING
    ping_number: int = 0           # the next ping's number
    #: the next trace's number, per publication topic: a tracker sees only
    #: the streams it selected and detects gaps in each on its own
    trace_seq: dict[str, int] = field(default_factory=dict)
    active: bool = True            # set False when the session is retired
    suspicion_announced: bool = False
    response_count: int = 0        # matched ping responses (NETWORK_METRICS cadence)
    #: certified tracker subjects already sent this session's trace key
    #: (section 5.1)
    keyed_trackers: set[str] = field(default_factory=set)

    # what the hosting broker runs for the session until it is retired
    worker: Process | None = None          # handles ``inbox`` in order
    on_interest: Callable | None = None    # its handler on ``topics.interest_response``

    @property
    def hex_id(self) -> str:
        """The session id as hex, its wire form."""
        return self.session_id.value.hex

    @property
    def secured(self) -> bool:
        """Are this session's traces confidentiality-protected?"""
        return self.trace_key is not None

    def active_duration_ms(self, now_ms: float) -> float:
        return now_ms - self.started_ms
