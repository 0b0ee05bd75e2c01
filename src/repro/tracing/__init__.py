"""The tracing scheme (section 3) — the paper's core contribution.

A traced entity creates a trace topic at the TDN, registers with a broker,
and delegates trace publication to that broker via an authorization token.
The broker polls the entity (pull), detects failures adaptively, and
publishes typed traces (push) over derived constrained topics — but only
when trackers have expressed interest.  Trackers discover the trace topic
(if authorized), subscribe to the trace types they care about, and verify
every trace they receive.

Consumer-side availability numbers (uptime %, outages, MTTR) are
:mod:`repro.analytics`'s; :mod:`repro.tracing.forecast` predicts network
metrics from the NETWORK_METRICS traces a tracker receives.
"""

from repro.tracing.traces import TraceType, EntityState, LoadInformation, NetworkMetrics
from repro.tracing.topics import TraceTopicSet
from repro.tracing.pings import Ping, PingResponse, PingHistory
from repro.tracing.failure import AdaptivePingPolicy, FailureDetector, DetectorVerdict
from repro.tracing.interest import InterestCategory, InterestRegistry
from repro.tracing.registration import TraceRegistrationRequest, RegistrationResponse
from repro.tracing.session import TraceSession
from repro.tracing.entity import TracedEntity
from repro.tracing.broker_ops import TraceManager
from repro.tracing.tracker import Tracker
from repro.tracing.forecast import NetworkForecaster, SeriesForecaster

__all__ = [
    "TraceType",
    "EntityState",
    "LoadInformation",
    "NetworkMetrics",
    "TraceTopicSet",
    "Ping",
    "PingResponse",
    "PingHistory",
    "AdaptivePingPolicy",
    "FailureDetector",
    "DetectorVerdict",
    "InterestCategory",
    "InterestRegistry",
    "TraceRegistrationRequest",
    "RegistrationResponse",
    "TraceSession",
    "TracedEntity",
    "TraceManager",
    "Tracker",
    "NetworkForecaster",
    "SeriesForecaster",
]
