"""Trace types (Table 1) and trace payloads.

The paper's table — including its charming ``GUAGE_INTEREST`` spelling,
which we preserve verbatim for fidelity — enumerates every trace a broker
reports to trackers, from entity state information through failure
detection to load and network metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TopicError, ValidationError
from repro.tracing.interest import InterestCategory
from repro.util.serialization import Fields


class EntityState(enum.Enum):
    """States a traced entity passes through (section 3.3)."""

    INITIALIZING = "INITIALIZING"
    RECOVERING = "RECOVERING"
    READY = "READY"
    SHUTDOWN = "SHUTDOWN"


#: Legal state transitions of the traced-entity state machine.
VALID_TRANSITIONS: dict[EntityState, frozenset[EntityState]] = {
    EntityState.INITIALIZING: frozenset({EntityState.READY, EntityState.SHUTDOWN}),
    EntityState.READY: frozenset({EntityState.RECOVERING, EntityState.SHUTDOWN}),
    EntityState.RECOVERING: frozenset({EntityState.READY, EntityState.SHUTDOWN}),
    EntityState.SHUTDOWN: frozenset(),
}


class TraceType(enum.Enum):
    """Every trace type of Table 1."""

    # state information reported by the traced entity
    INITIALIZING = "INITIALIZING"
    RECOVERING = "RECOVERING"
    READY = "READY"
    SHUTDOWN = "SHUTDOWN"
    # broker-generated failure detection
    FAILURE_SUSPICION = "FAILURE_SUSPICION"
    FAILED = "FAILED"
    DISCONNECT = "DISCONNECT"
    # interest gauging (paper's spelling)
    GUAGE_INTEREST = "GUAGE_INTEREST"
    # tracing lifecycle
    JOIN = "JOIN"
    REVERTING_TO_SILENT_MODE = "REVERTING_TO_SILENT_MODE"
    # heartbeat
    ALLS_WELL = "ALLS_WELL"
    # load & network
    LOAD_INFORMATION = "LOAD_INFORMATION"
    NETWORK_METRICS = "NETWORK_METRICS"

    @classmethod
    def for_state(cls, state: EntityState) -> "TraceType":
        """The trace type announcing a state."""
        return cls(state.value)


#: Table 2: the interest category that gates each trace type, and through
#: it the publication topic the trace goes out on
#: (:meth:`~repro.tracing.topics.TraceTopicSet.topic_for_trace`).
#: GUAGE_INTEREST is the one ungated type; it goes out on the
#: interest-request topic.
TRACE_CATEGORY: dict[TraceType, InterestCategory | None] = {
    TraceType.JOIN: InterestCategory.CHANGE_NOTIFICATIONS,
    TraceType.FAILURE_SUSPICION: InterestCategory.CHANGE_NOTIFICATIONS,
    TraceType.FAILED: InterestCategory.CHANGE_NOTIFICATIONS,
    TraceType.DISCONNECT: InterestCategory.CHANGE_NOTIFICATIONS,
    TraceType.REVERTING_TO_SILENT_MODE: InterestCategory.CHANGE_NOTIFICATIONS,
    TraceType.INITIALIZING: InterestCategory.STATE_TRANSITIONS,
    TraceType.RECOVERING: InterestCategory.STATE_TRANSITIONS,
    TraceType.READY: InterestCategory.STATE_TRANSITIONS,
    TraceType.SHUTDOWN: InterestCategory.STATE_TRANSITIONS,
    TraceType.ALLS_WELL: InterestCategory.ALL_UPDATES,
    TraceType.LOAD_INFORMATION: InterestCategory.LOAD,
    TraceType.NETWORK_METRICS: InterestCategory.NETWORK_METRICS,
    TraceType.GUAGE_INTEREST: None,
}


def category_of(trace_type: TraceType) -> InterestCategory:
    """Which interest category gates a trace type (Table 2 mapping)."""
    category = TRACE_CATEGORY[trace_type]
    if category is None:
        raise TopicError(f"{trace_type} has no gating category")
    return category


def _types_in(category: InterestCategory) -> frozenset[TraceType]:
    return frozenset(t for t, c in TRACE_CATEGORY.items() if c is category)


#: Trace types that signal a change in the status of the traced entity and
#: are therefore published on the ChangeNotifications topic (Table 2).
CHANGE_NOTIFICATION_TYPES = _types_in(InterestCategory.CHANGE_NOTIFICATIONS)

#: Trace types carrying entity state transitions (StateTransitions topic).
STATE_TRANSITION_TYPES = _types_in(InterestCategory.STATE_TRANSITIONS)


@dataclass(frozen=True, slots=True)
class LoadInformation:
    """Load at the traced entity's host: CPU, memory and workload."""

    cpu_utilization: float
    memory_used_mb: float
    memory_total_mb: float
    workload: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_utilization <= 1.0:
            raise ValidationError(f"cpu_utilization out of [0,1]: {self.cpu_utilization}")
        if self.memory_used_mb < 0 or self.memory_total_mb <= 0:
            raise ValidationError("memory figures must be non-negative / positive")
        if self.memory_used_mb > self.memory_total_mb:
            raise ValidationError("memory_used_mb exceeds memory_total_mb")
        if self.workload < 0:
            raise ValidationError("workload must be non-negative")

    def to_dict(self) -> dict:
        return {
            "cpu_utilization": self.cpu_utilization,
            "memory_used_mb": self.memory_used_mb,
            "memory_total_mb": self.memory_total_mb,
            "workload": self.workload,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoadInformation":
        with Fields(data, cls) as fields:
            return cls(
                cpu_utilization=fields.number("cpu_utilization"),
                memory_used_mb=fields.number("memory_used_mb"),
                memory_total_mb=fields.number("memory_total_mb"),
                workload=fields.integer("workload"),
            )


@dataclass(frozen=True, slots=True)
class NetworkMetrics:
    """Metrics about the network realm linking broker and entity.

    Derived by the broker from its ping stream: loss rates, transit delay
    and bandwidth (section 3.3); out-of-order rate comes with UDP.
    """

    loss_rate: float
    mean_rtt_ms: float
    jitter_ms: float
    out_of_order_rate: float
    bandwidth_estimate_kbps: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValidationError(f"loss_rate out of [0,1]: {self.loss_rate}")
        if not 0.0 <= self.out_of_order_rate <= 1.0:
            raise ValidationError(
                f"out_of_order_rate out of [0,1]: {self.out_of_order_rate}"
            )
        if self.mean_rtt_ms < 0 or self.jitter_ms < 0:
            raise ValidationError("delay metrics must be non-negative")

    def to_dict(self) -> dict:
        return {
            "loss_rate": self.loss_rate,
            "mean_rtt_ms": self.mean_rtt_ms,
            "jitter_ms": self.jitter_ms,
            "out_of_order_rate": self.out_of_order_rate,
            "bandwidth_estimate_kbps": self.bandwidth_estimate_kbps,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkMetrics":
        with Fields(data, cls) as fields:
            return cls(
                loss_rate=fields.number("loss_rate"),
                mean_rtt_ms=fields.number("mean_rtt_ms"),
                jitter_ms=fields.number("jitter_ms"),
                out_of_order_rate=fields.number("out_of_order_rate"),
                bandwidth_estimate_kbps=fields.number("bandwidth_estimate_kbps"),
            )
