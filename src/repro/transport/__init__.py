"""Simulated transports.

The paper stresses transport independence: entities never deal with the
underlying transport, the brokers do (characteristic #2, section 1).  Here
a :class:`TransportProfile` captures the timing/reliability semantics of a
transport, and a :class:`Link` is one directed channel between two simulated
nodes carrying opaque payloads with those semantics.
"""

from repro.transport.base import TransportProfile
from repro.transport.disruption import LinkDisruption
from repro.transport.link import Link
from repro.transport.tcp import tcp_profile, TCP_CLUSTER
from repro.transport.udp import udp_profile, UDP_CLUSTER

__all__ = [
    "TransportProfile",
    "Link",
    "LinkDisruption",
    "tcp_profile",
    "TCP_CLUSTER",
    "udp_profile",
    "UDP_CLUSTER",
]
