"""Tracing under adverse conditions: clock skew, lossy/reordering links."""

import pytest

from repro import build_deployment
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.traces import TraceType
from repro.transport.tcp import tcp_profile
from repro.transport.udp import udp_profile
from repro.util.clock import NTPSkewModel
from tests.support import TraceLog


class TestClockSkew:
    def test_protocol_tolerates_paper_ntp_band(self):
        """With every node skewed by 30-100 ms, tokens still verify
        (the paper's skew-tolerant expiry check, section 4.3)."""
        dep = build_deployment(
            broker_ids=["b1", "b2"],
            seed=1000,
            ntp_model=NTPSkewModel(seed=5),
        )
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        log = TraceLog(tracker)
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=30_000)
        assert log.of_type(TraceType.ALLS_WELL)
        assert dep.metrics.counter_value("auth.invalid_token") == 0
        assert dep.metrics.counter_value("tracker.tokens_rejected") == 0

    def test_skew_beyond_tolerance_rejects_tokens(self):
        """If a verifier's clock runs far ahead, fresh tokens can look
        expired — the failure mode the NTP bound prevents."""
        dep = build_deployment(broker_ids=["b1", "b2"], seed=1001)
        entity = dep.add_traced_entity("svc")
        entity.token_validity_ms = 5_000.0
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        log = TraceLog(tracker)
        entity.start("b1")
        dep.sim.run(until=3_000)
        # wrench the forwarding broker's clock one minute ahead
        dep.network.machine("machine-b2").clock.offset_ms = 60_000.0
        tracker.track("svc")
        dep.sim.run(until=20_000)
        assert not log.of_type(TraceType.ALLS_WELL)
        assert dep.metrics.counter_value("auth.invalid_token") > 0

    def test_latency_measurement_immune_to_skew(self):
        """Colocating entity and measuring tracker removes skew from the
        latency math — the paper's measurement design, verified."""
        dep = build_deployment(
            broker_ids=["b1"],
            seed=1002,
            ntp_model=NTPSkewModel(seed=9),
        )
        entity = dep.add_traced_entity("svc", machine_name="shared")
        tracker = dep.add_tracker("w", machine_name="shared")
        tracker.connect("b1")
        log = TraceLog(tracker)
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=30_000)
        latencies = log.latencies(TraceType.ALLS_WELL)
        assert latencies
        # all positive and plausible despite the broker's skewed clock
        assert all(20.0 < latency < 300.0 for latency in latencies)


class TestLossyNetworks:
    def test_udp_loss_shows_in_network_metrics(self):
        """Dropped pings/responses surface as a nonzero measured loss rate."""
        dep = build_deployment(
            broker_ids=["b1"],
            seed=1003,
            profile=udp_profile(loss_probability=0.15),
            ping_policy=AdaptivePingPolicy(
                base_interval_ms=500.0, min_interval_ms=200.0,
                max_interval_ms=500.0, response_deadline_ms=250.0,
                # lossy links must not spiral into failure declarations
            ),
        )
        # avoid false failure declarations under 15% loss
        from repro.tracing.failure import FailureDetector

        for manager in dep.managers.values():
            manager.detector_factory = lambda: FailureDetector(
                suspicion_threshold=5, failure_threshold=10
            )
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b1")
        log = TraceLog(tracker)
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=120_000)

        metrics = log.of_type(TraceType.NETWORK_METRICS)
        assert metrics
        measured_loss = metrics[-1].payload["loss_rate"]
        assert measured_loss > 0.0

    def test_tcp_retransmission_keeps_stream_complete(self):
        """A lossy link under TCP delivers every trace, just later."""
        dep = build_deployment(
            broker_ids=["b1", "b2"],
            seed=1004,
            profile=tcp_profile(loss_probability=0.1, retransmit_timeout_ms=30.0),
        )
        entity = dep.add_traced_entity("svc")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity.start("b1")
        dep.sim.run(until=3_000)
        tracker.track("svc")
        dep.sim.run(until=60_000)
        published = dep.monitor.count("trace.published.ALLS_WELL")
        received = dep.metrics.counter_value("tracker.traces_received.alls_well")
        assert published > 10
        assert received == published
