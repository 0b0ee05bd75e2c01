"""Broker-side session state for one traced entity."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.auth.tokens import AuthorizationToken
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import RSAPrivateKey
from repro.sim.engine import Queue
from repro.tdn.advertisement import TopicAdvertisement
from repro.tracing.failure import AdaptivePingPolicy, FailureDetector
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
    #: entity messages awaiting the session worker, in arrival order
    inbox: Queue
    ping_policy: AdaptivePingPolicy = field(default_factory=AdaptivePingPolicy)
    detector: FailureDetector = field(default_factory=FailureDetector)
    history: PingHistory = field(default_factory=PingHistory)
    interest: InterestRegistry = field(default_factory=InterestRegistry)

    # delegation (section 4.3)
    token: AuthorizationToken | None = None
    token_private_key: RSAPrivateKey | None = None

    # confidentiality (section 5.1)
    trace_key: SymmetricKey | None = None

    # signing-cost optimization (section 6.3): shared entity<->broker key
    channel_key: SymmetricKey | None = None

    # liveness bookkeeping
    entity_state: EntityState = EntityState.INITIALIZING
    current_interval_ms: float = 0.0
    ping_number: int = 0
    trace_seq: int = 0
    active: bool = True            # set False on silent mode / shutdown
    declared_failed: bool = False
    suspicion_announced: bool = False
    response_count: int = 0        # matched ping responses (NETWORK_METRICS cadence)
    #: (tracker id, key fingerprint) pairs already sent this session's
    #: trace key (section 5.1)
    keyed_trackers: set[tuple[str, bytes]] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.current_interval_ms <= 0:
            self.current_interval_ms = self.ping_policy.base_interval_ms

    @property
    def hex_id(self) -> str:
        """The session id as hex: the manager's index key and the wire form."""
        return self.session_id.value.hex

    @property
    def secured(self) -> bool:
        """Are this session's traces confidentiality-protected?"""
        return self.trace_key is not None

    def next_ping_number(self) -> int:
        number = self.ping_number
        self.ping_number += 1
        return number

    def next_trace_seq(self) -> int:
        """Session-scoped sequence number stamped into published traces,
        letting trackers detect missed traces on lossy transports."""
        seq = self.trace_seq
        self.trace_seq += 1
        return seq

    def active_duration_ms(self, now_ms: float) -> float:
        return now_ms - self.started_ms
