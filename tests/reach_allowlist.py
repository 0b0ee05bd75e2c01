"""The ``src/repro`` defs no committed run reaches, each with why it stays.

``tests/test_reachability.py`` checks this table both ways.  A reason
starts with its class:

- ``harness``: a target ``benchmarks/perf/spans.py`` patches by name;
- ``decode``: decodes outside input; ``error-path``: raises or rejects;
- ``cli``: a ``repro`` subcommand beyond the run list calls it;
- ``analyzer-reads``: ``repro analyze`` reads its source;
- ``repr`` / ``abstract``: a dunder or an interface method;
- ``paper §…``: a mechanism of the paper that no seeded run turns on yet
  (DESIGN.md, "Paper mechanisms with no committed evidence").
"""

from __future__ import annotations

CLASSES = (
    "harness",
    "decode",
    "error-path",
    "cli",
    "analyzer-reads",
    "repr",
    "abstract",
    "paper §",
)

ALLOWED: dict[str, str] = {
    # -- harness
    "repro.messaging.federation:FederatedInterestPlane.has_interest": (
        "harness: a spans.py target"
    ),
    "repro.messaging.matching:SubscriptionIndex.match_patterns": "harness: a spans.py target",
    "repro.messaging.topics:topic_matches": (
        "harness: a spans.py target (ROADMAP item 5 sets its row to NONE)"
    ),
    "repro.tdn.node:TDNCluster.discover_all": (
        "harness: a spans.py target; wildcard discovery, paper §2.2"
    ),
    "repro.tdn.node:TDNCluster.renew_topic": (
        "harness: a spans.py target; topic renewal, paper §2.2"
    ),
    "repro.wire.compact:CompactCodec.encode": (
        "harness: a spans.py target; the harness pins codec=\"json\", so it counts 0 calls"
    ),
    "repro.wire.json_codec:JsonCodec.encode": (
        "harness: a spans.py target; the harness's codec=\"json\" sizes via encode_into"
    ),
    # -- decode
    "repro.analytics.events:AnalyticsEvent.from_dict": "decode: an analytics snapshot row",
    "repro.analytics.store:AnalyticsStore.from_json": "decode: an analytics snapshot document",
    "repro.faults.plan:FaultPlan.from_dict": "decode: a fault-plan document",
    "repro.faults.plan:FaultPlan.to_dict": (
        "decode: the encoder whose output the from_dict round trip and the decode "
        "contract start from"
    ),
    "repro.tdn.advertisement:AdvertisedTopic.entity_id": (
        "decode: the Entity-ID inside a descriptor; rejects a non-trace descriptor"
    ),
    "repro.tdn.query:DiscoveryQuery.parse": "decode: a discovery query string",
    "repro.wire.compact:CompactCodec.decode": "decode: compact wire bytes",
    "repro.wire.compact:_DecodeContext.__init__": "decode: compact wire bytes",
    "repro.wire.compact:_DecodeContext.read_str": "decode: compact wire bytes",
    "repro.wire.compact:_decode_message_body": "decode: compact wire bytes",
    "repro.wire.compact:_decode_value": "decode: compact wire bytes",
    "repro.wire.compact:read_uvarint": "decode: compact wire bytes",
    "repro.wire.compact:unzigzag": "decode: compact wire bytes",
    "repro.wire.json_codec:JsonCodec.decode": "decode: JSON wire bytes",
    "repro.wire.json_codec:message_from_wire_dict": "decode: JSON wire bytes",
    # -- error-path
    "repro.analytics.audit:AuditFinding.describe": (
        "error-path: the text of AuditIncompleteError for an unbalanced audit rule"
    ),
    "repro.sim.engine:Event.name": (
        "error-path: formats an event's name for error text and repr only"
    ),
    "repro.sim.monitor:Monitor.log_malformed": (
        "error-path: journals envelope.malformed for a frame that did not parse"
    ),
    "repro.tracing.broker_ops:TraceManager._log_malformed": (
        "error-path: a session message that did not parse"
    ),
    # -- cli
    "repro.analytics.reports:render_report_json": "cli: repro analytics report --format json",
    "repro.analytics.store:AnalyticsStore.load": "cli: repro analytics report --snapshot FILE",
    "repro.campaigns.spec:CampaignPoint.label": "cli: repro campaign run's progress lines",
    "repro.campaigns.spec:unused_parameters": (
        "cli: repro campaign run warns on a parameter no family accepts"
    ),
    "repro.faults.controller:FaultController._apply_link_window": (
        "cli: the link windows of repro faults link-partition / packet-loss / delay-spike"
    ),
    "repro.faults.scenarios:_delay_spike_plan": "cli: repro faults delay-spike",
    "repro.faults.scenarios:_entity_churn_plan": "cli: repro faults entity-churn",
    "repro.faults.scenarios:_link_partition_plan": "cli: repro faults link-partition",
    "repro.faults.scenarios:_packet_loss_plan": "cli: repro faults packet-loss",
    "repro.messaging.broker_network:BrokerNetwork.heal_link": (
        "cli: repro faults link-partition"
    ),
    "repro.messaging.broker_network:BrokerNetwork.links_of": (
        "cli: repro faults packet-loss / delay-spike"
    ),
    "repro.messaging.broker_network:BrokerNetwork.partition_link": (
        "cli: repro faults link-partition"
    ),
    "repro.obs.registry:MetricsRegistry.to_json": "cli: repro metrics --json",
    "repro.transport.disruption:LinkDisruption.__init__": (
        "cli: repro faults packet-loss / delay-spike install it"
    ),
    "repro.transport.disruption:LinkDisruption.sample": (
        "cli: repro faults packet-loss / delay-spike install it"
    ),
    # -- analyzer-reads
    "repro.crypto.aes:decrypt_block": (
        "analyzer-reads: CRY01 flags calls of this name outside the cipher core; "
        "FIPS-197 vectors"
    ),
    "repro.crypto.aes:encrypt_block": (
        "analyzer-reads: CRY01 flags calls of this name outside the cipher core; "
        "FIPS-197 vectors"
    ),
    "repro.messaging.message:RoutedFrame.wire_dict": (
        "analyzer-reads: WIRE01 reads its source for the frame schema"
    ),
    # -- repr
    "repro.auth.cache:TokenVerificationCache.__contains__": "repr: container dunder",
    "repro.auth.cache:TokenVerificationCache.__len__": "repr: container dunder",
    "repro.auth.credentials:EntityCredentials.__repr__": "repr",
    "repro.crypto.aes:AESKey.__repr__": "repr: shows the key size, never the material",
    "repro.crypto.aes:AESKey.bits": "repr: AESKey.__repr__ reads it",
    "repro.faults.plan:FaultPlan.__len__": "repr: container dunder",
    "repro.messaging.broker:Broker.__repr__": "repr",
    "repro.messaging.client:BrokerClient.__repr__": "repr",
    "repro.messaging.constrained:ConstrainedTopic.__str__": "repr: the canonical topic string",
    "repro.messaging.constrained:ConstrainedTopic.canonical": (
        "repr: ConstrainedTopic.__str__ renders it"
    ),
    "repro.messaging.constrained:ConstrainedTopic.topic": (
        "repr: ConstrainedTopic.__str__ renders it"
    ),
    "repro.messaging.federation:InterestSummary.__repr__": "repr",
    "repro.messaging.matching:SubscriptionIndex.__len__": "repr: container dunder",
    "repro.obs.instruments:Counter.__repr__": "repr",
    "repro.obs.instruments:Gauge.__repr__": "repr",
    "repro.obs.instruments:Histogram.__repr__": "repr",
    "repro.obs.registry:MetricsRegistry.__len__": "repr: container dunder",
    "repro.sim.engine:Event.__repr__": "repr",
    "repro.sim.engine:Event.fired": "repr: Event.__repr__ reads it",
    "repro.sim.machine:Machine.__repr__": "repr",
    "repro.tracing.entity:TracedEntity.__repr__": "repr",
    "repro.tracing.interest:InterestRegistry.__len__": "repr: container dunder",
    "repro.tracing.tracker:Tracker.__repr__": "repr",
    "repro.transport.disruption:LinkDisruption.__repr__": "repr",
    "repro.util.identifiers:RequestId.__str__": "repr",
    "repro.util.identifiers:UUID128.__repr__": "repr",
    "repro.util.identifiers:UUID128.__str__": "repr",
    "repro.util.identifiers:UUIDGenerator.__iter__": "repr: container dunder",
    # -- abstract
    "repro.messaging.broker:PublishGuard.__call__": "abstract: the guard protocol",
    "repro.util.clock:Clock.now": "abstract",
    "repro.wire.codec:Codec.decode": "abstract",
    "repro.wire.codec:Codec.encode": "abstract",
    "repro.wire.codec:Codec.encode_into": "abstract",
    "repro.wire.codec:Codec.frame_overhead": "abstract",
    # -- paper
    "repro.auth.cache:TokenVerificationCache.discard": (
        "paper §4: TokenVerifier.revoke evicts the cached verdict"
    ),
    "repro.auth.verification:TokenVerifier.revoke": "paper §4: token revocation",
    "repro.campaigns.workloads:run_malicious_termination": (
        "paper §5: the malicious-entity termination family"
    ),
    "repro.campaigns.workloads:run_token_replay_flood": "paper §5: the token-replay DoS family",
    "repro.messaging.broker:Broker.announced_patterns": (
        "paper §2: a federated broker's exact summary (its hot set)"
    ),
    "repro.messaging.discovery:BrokerDiscoveryService.deregister_broker": (
        "paper §2.1: a crashed broker leaves the discoverable set"
    ),
    "repro.messaging.discovery:BrokerDiscoveryService.discover": (
        "paper §2.1: broker discovery (Ref [3])"
    ),
    "repro.messaging.federation:_literal_prefix": (
        "paper §2: a wildcard subscription's digest key"
    ),
    "repro.messaging.federation:pattern_digest_keys": (
        "paper §2: a wildcard subscription's digest key"
    ),
    "repro.messaging.matching:SubscriptionIndex._candidates": (
        "paper §2: the trie walk of a wildcard subscription"
    ),
    "repro.messaging.matching:SubscriptionIndex._candidates.<locals>.collect": (
        "paper §2: the trie walk of a wildcard subscription"
    ),
    "repro.messaging.matching:SubscriptionIndex.announced": (
        "paper §2: a federated broker's exact summary (its hot set)"
    ),
    "repro.tdn.node:TDNNode.discover_all": "paper §2.2: wildcard discovery",
    "repro.tdn.node:TDNNode.fail": "paper §2.2: a TDN replica goes down",
    "repro.tdn.node:TDNNode.recover": "paper §2.2: a TDN replica comes back",
    "repro.tdn.node:TDNNode.renew_topic": "paper §2.2: topic lifetime renewal",
    "repro.tdn.query:DiscoveryQuery.for_pattern": "paper §2.2: wildcard discovery",
    "repro.tdn.query:DiscoveryQuery.matches": "paper §2.2: wildcard discovery",
    "repro.tdn.registry:AdvertisementStore.merge_from": (
        "paper §2.2: a TDN replica comes back and catches up"
    ),
    "repro.tdn.registry:AdvertisementStore._remove_descriptor_index": (
        "paper §2.2: expired advertisements are reaped"
    ),
    "repro.tdn.registry:AdvertisementStore.reap_expired": (
        "paper §2.2: expired advertisements are reaped"
    ),
    "repro.tdn.registry:AdvertisementStore.remove": (
        "paper §2.2: expired advertisements are reaped"
    ),
    "repro.tracing.broker_ops:TraceManager._handle_disable": (
        "paper §3: REVERTING_TO_SILENT_MODE (Table 1)"
    ),
    "repro.tracing.entity:TracedEntity._run_startup_discovered": (
        "paper §2.1: an entity finds its broker through discovery"
    ),
    "repro.tracing.entity:TracedEntity.disable_tracing": (
        "paper §3: REVERTING_TO_SILENT_MODE (Table 1)"
    ),
    "repro.tracing.entity:TracedEntity.refresh_token": "paper §4.3: near-expiry token renewal",
    "repro.tracing.entity:TracedEntity.renew_topic": "paper §2.2: topic lifetime renewal",
    "repro.tracing.entity:TracedEntity.start_discovered": (
        "paper §2.1: an entity finds its broker through discovery"
    ),
    "repro.tracing.failure:FailureDetector.verdict": (
        "paper §3.3: a ping response clears an announced suspicion"
    ),
    "repro.tracing.pings:PingHistory.reset_incarnation": (
        "paper §3.3: a restarted broker forgets the dead incarnation's pings"
    ),
    "repro.tracing.tracker:Tracker.run_track_matching": (
        "paper §2.2: track every entity a wildcard query discovers"
    ),
    "repro.tracing.tracker:Tracker.run_untrack": (
        "paper §3: an empty interest response retracts interest"
    ),
    "repro.tracing.tracker:Tracker.track_matching": (
        "paper §2.2: track every entity a wildcard query discovers"
    ),
    "repro.tracing.tracker:Tracker.untrack": (
        "paper §3: an empty interest response retracts interest"
    ),
    "repro.util.clock:NTPSkewModel.__init__": (
        "paper §4: NTP clock skew the token validity check tolerates"
    ),
    "repro.util.clock:NTPSkewModel.clock_for_node": (
        "paper §4: NTP clock skew the token validity check tolerates"
    ),
    "repro.util.clock:NTPSkewModel.sample_offset": (
        "paper §4: NTP clock skew the token validity check tolerates"
    ),
    "repro.util.clock:NTPSkewModel.tolerance_ms": (
        "paper §4: NTP clock skew the token validity check tolerates"
    ),
}
