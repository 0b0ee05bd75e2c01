"""Topic Discovery Nodes (section 2.2 and 3.1).

TDNs mint trace topics (128-bit UUIDs generated *at the TDN* so no entity
can claim another's topic), produce cryptographically signed topic
advertisements establishing provenance, replicate advertisements across the
TDN cluster for failure tolerance, and answer discovery queries only for
requesters whose credentials satisfy the creator's discovery restrictions.
"""

from repro.tdn.advertisement import (
    AdvertisedTopic,
    TopicAdvertisement,
    TopicCreationRequest,
    TopicLifetime,
    TopicRenewal,
)
from repro.tdn.query import DiscoveryRestrictions, DiscoveryQuery
from repro.tdn.registry import AdvertisementStore
from repro.tdn.node import TDNNode, TDNCluster

__all__ = [
    "AdvertisedTopic",
    "TopicAdvertisement",
    "TopicCreationRequest",
    "TopicLifetime",
    "TopicRenewal",
    "DiscoveryRestrictions",
    "DiscoveryQuery",
    "AdvertisementStore",
    "TDNNode",
    "TDNCluster",
]
