"""Baseline availability-tracking schemes the paper argues against.

* :mod:`repro.baselines.allpairs` — the strawman from the introduction:
  every entity broadcasts heartbeats to every other entity, costing
  N x (N-1) messages per period.  The paper's argument is that count,
  so the module is its closed form, ``allpairs_message_rate``.
* :mod:`repro.baselines.gossip` — a gossip-style failure-detection
  service after van Renesse, Minsky & Hayden (Ref [7]), the strongest
  contemporary alternative surveyed in the related work.

The gossip detector runs on the same simulation kernel so its message
counts and detection latencies are directly comparable with the
broker-based tracing scheme.
"""

from repro.baselines.allpairs import allpairs_message_rate
from repro.baselines.gossip import GossipFailureDetector, GossipNode

__all__ = [
    "allpairs_message_rate",
    "GossipFailureDetector",
    "GossipNode",
]
