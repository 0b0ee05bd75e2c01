"""FaultController end-to-end behaviour on the chaos deployment.

Covers the three properties ISSUE 4 calls out: deterministic replay
(bit-identical snapshots per seed), partition-heal reconverging interest
fabric-wide, and entity churn leaving no orphan subscriptions behind.
"""

import pytest

from repro.errors import SimulationError
from repro.faults import (
    FaultController,
    FaultEvent,
    FaultKind,
    FaultPlan,
    build_chaos_deployment,
    run_scenario,
    scenario_plan,
)
from repro.faults.scenarios import (
    ENTITY_BROKER,
    ENTITY_ID,
    SCENARIOS,
    TRACKER_BROKER,
    TRACKER_ID,
)
from repro.tracing.topics import TraceTopicSet
from repro.tracing.traces import TraceType
from repro.util.snapshots import render_snapshot
from tests.support import TraceLog, empty_kinds, index_clients, index_patterns, index_remote


def run_chaos(plan, seed=42, until=60_000.0):
    """Bootstrapped chaos deployment with ``plan`` driven to ``until``;
    returns the deployment, the entity, the tracker's log and the controller."""
    dep = build_chaos_deployment(seed)
    entity = dep.add_traced_entity(ENTITY_ID)
    tracker = dep.add_tracker(TRACKER_ID)
    tracker.interest_refresh_ms = 0.0
    tracker.connect(TRACKER_BROKER)
    log = TraceLog(tracker)
    entity.start(ENTITY_BROKER)
    controller = FaultController(dep, plan)
    controller.start()
    dep.sim.run(until=3_000)
    tracker.track(ENTITY_ID)
    dep.sim.run(until=until)
    return dep, entity, log, controller


class TestLifecycle:
    def test_start_twice_rejected(self):
        dep = build_chaos_deployment(1)
        controller = FaultController(dep, FaultPlan(name="empty"))
        controller.start()
        with pytest.raises(SimulationError):
            controller.start()

    def test_probe_installed_on_every_manager(self):
        dep = build_chaos_deployment(1)
        controller = FaultController(dep, FaultPlan(name="empty"))
        for manager in dep.managers.values():
            assert manager.recovery_probe is controller.probe


class TestDeterministicReplay:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_snapshot(self, name):
        first = run_scenario(name, seed=11, duration_ms=40_000.0)
        second = run_scenario(name, seed=11, duration_ms=40_000.0)
        assert render_snapshot(first) == render_snapshot(second)

    def test_different_seed_differs(self):
        # ping jitter guarantees the counters move with the seed
        a = run_scenario("broker-crash", seed=1)
        b = run_scenario("broker-crash", seed=2)
        assert render_snapshot(a) != render_snapshot(b)

    def test_fault_timeline_replays_identically(self):
        times = []
        for _ in range(2):
            dep, *_ = run_chaos(scenario_plan("entity-churn"), until=90_000.0)
            times.append(
                [(r.time_ms, r.kind) for r in dep.journal.records()
                 if r.kind.startswith("fault.") or r.kind.startswith("recovery.")]
            )
        assert times[0] == times[1]


class TestPartitionHeal:
    def test_interest_reconverges_fabric_wide(self):
        plan = scenario_plan("link-partition")
        dep, entity, log, _ = run_chaos(plan, until=60_000.0)

        # fault window closed and the link is back in the routing fabric
        assert dep.metrics.gauge_value("faults.active") == 0.0
        assert "b3" in dep.network.neighbors_of("b1")

        # the tracker's interest in the entity's heartbeat topic is known on
        # every broker again: each one can route toward a subscriber
        session = dep.manager_of(ENTITY_BROKER).session_of(ENTITY_ID)
        topics = TraceTopicSet(session.advertisement.fields.trace_topic, ENTITY_ID)
        heartbeat = topics.all_updates.canonical
        for broker in dep.network.brokers():
            assert broker.has_any_subscriber(heartbeat), broker.broker_id

        # heartbeats flow end-to-end after the heal
        heal_ms = plan.events[0].revert_at_ms
        late = [t for t in log.of_type(TraceType.ALLS_WELL)
                if t.received_ms > heal_ms + 5_000]
        assert late, "tracker should receive heartbeats after the heal"


class TestEntityChurn:
    def test_no_orphan_subscriptions_after_churn(self):
        dep, entity, log, _ = run_chaos(
            scenario_plan("entity-churn"), until=90_000.0
        )

        # the entity came back and a fresh session is active
        session = dep.manager_of(ENTITY_BROKER).session_of(ENTITY_ID)
        assert session is not None and session.active

        for broker in dep.network.brokers():
            connected = set(broker.client_ids)
            index = broker._subs
            # no kind may keep an emptied key (pruning invariant)
            assert not empty_kinds(index), broker.broker_id
            for pattern in index_patterns(index):
                # client subscriptions only for currently attached clients
                orphans = set(index_clients(index, pattern)) - connected
                assert not orphans, f"{broker.broker_id}:{pattern} -> {orphans}"
                # remote interest only names live brokers
                for remote in index_remote(index, pattern):
                    assert not dep.network.broker(remote).failed

    def test_churned_entity_recovers_twice(self):
        dep, entity, log, controller = run_chaos(
            scenario_plan("entity-churn"), until=90_000.0
        )
        assert dep.metrics.counter_value("faults.injected.entity_crash") == 2
        assert dep.metrics.counter_value("trace.recovery.completed") == 2
        assert controller.probe.pending() == ()
        # the tracker observed both failures and both recoveries
        assert len(log.of_type(TraceType.FAILED)) >= 2
        kinds = [t.trace_type for t in log.traces]
        assert TraceType.RECOVERING in kinds


class TestLinkWindows:
    def test_packet_loss_window_drops_and_restores(self):
        dep, entity, log, _ = run_chaos(
            scenario_plan("packet-loss"), until=60_000.0
        )
        assert dep.metrics.counter_value("transport.msgs.dropped") > 0
        reverts = dep.journal.records("fault.reverted")
        assert len(reverts) == 1
        assert reverts[0].fields["drops"] > 0
        # windows fully uninstalled
        for link in dep.network.links_of("b1"):
            assert link.disruption is None

    def test_delay_spike_inflates_rtt_then_heals(self):
        dep, entity, log, _ = run_chaos(
            scenario_plan("delay-spike"), until=60_000.0
        )
        reverts = dep.journal.records("fault.reverted")
        assert len(reverts) == 1
        assert reverts[0].fields["delayed"] > 0
        assert reverts[0].fields["drops"] == 0
        for link in dep.network.links_of("b1"):
            assert link.disruption is None
