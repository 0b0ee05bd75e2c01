"""Multiple entities and trackers coexisting in one deployment."""

import pytest

from repro import build_deployment
from repro.tracing.interest import InterestCategory
from repro.tracing.traces import TraceType


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2", "b3"], seed=600)


class TestMultipleEntities:
    def test_traces_isolated_per_entity(self, dep):
        entity_a = dep.add_traced_entity("svc-a")
        entity_b = dep.add_traced_entity("svc-b")
        tracker = dep.add_tracker("w")
        tracker.connect("b3")
        entity_a.start("b1")
        entity_b.start("b2")
        dep.sim.run(until=4_000)
        tracker.track("svc-a")  # only tracks A
        dep.sim.run(until=20_000)
        entities_seen = {t.entity_id for t in tracker.received}
        assert entities_seen == {"svc-a"}

    def test_distinct_trace_topics(self, dep):
        entity_a = dep.add_traced_entity("svc-a")
        entity_b = dep.add_traced_entity("svc-b")
        entity_a.start("b1")
        entity_b.start("b1")
        dep.sim.run(until=4_000)
        assert (
            entity_a.advertisement.fields.trace_topic != entity_b.advertisement.fields.trace_topic
        )

    def test_one_tracker_many_entities(self, dep):
        names = [f"svc-{i}" for i in range(4)]
        for name in names:
            dep.add_traced_entity(name).start("b1")
        tracker = dep.add_tracker("w")
        tracker.connect("b3")
        dep.sim.run(until=5_000)
        for name in names:
            tracker.track(name)
        dep.sim.run(until=30_000)
        seen = {t.entity_id for t in tracker.traces_of_type(TraceType.ALLS_WELL)}
        assert seen == set(names)

    def test_failure_of_one_does_not_affect_others(self, dep):
        entity_a = dep.add_traced_entity("svc-a")
        entity_b = dep.add_traced_entity("svc-b")
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        entity_a.start("b1")
        entity_b.start("b1")
        dep.sim.run(until=4_000)
        tracker.track("svc-a")
        tracker.track("svc-b")
        dep.sim.run(until=8_000)
        entity_a.crash()
        dep.sim.run(until=120_000)
        failed = {t.entity_id for t in tracker.traces_of_type(TraceType.FAILED)}
        assert failed == {"svc-a"}
        late_b = [
            t for t in tracker.traces_of_type(TraceType.ALLS_WELL)
            if t.entity_id == "svc-b" and t.received_ms > 60_000
        ]
        assert late_b


class TestMultipleTrackers:
    def test_fanout_to_all_interested(self, dep):
        entity = dep.add_traced_entity("svc")
        trackers = []
        for i, broker in enumerate(["b1", "b2", "b3"]):
            tracker = dep.add_tracker(f"w{i}")
            tracker.connect(broker)
            trackers.append(tracker)
        entity.start("b1")
        dep.sim.run(until=4_000)
        for tracker in trackers:
            tracker.track("svc")
        dep.sim.run(until=20_000)
        for tracker in trackers:
            assert tracker.traces_of_type(TraceType.ALLS_WELL)

    def test_mixed_interests(self, dep):
        entity = dep.add_traced_entity("svc")
        hb_tracker = dep.add_tracker(
            "hb", interests=frozenset({InterestCategory.ALL_UPDATES})
        )
        ch_tracker = dep.add_tracker(
            "ch", interests=frozenset({InterestCategory.CHANGE_NOTIFICATIONS})
        )
        hb_tracker.connect("b2")
        ch_tracker.connect("b3")
        entity.start("b1")
        dep.sim.run(until=4_000)
        hb_tracker.track("svc")
        ch_tracker.track("svc")
        dep.sim.run(until=15_000)
        entity.crash()
        dep.sim.run(until=120_000)

        assert hb_tracker.traces_of_type(TraceType.ALLS_WELL)
        assert not hb_tracker.traces_of_type(TraceType.FAILED)
        assert ch_tracker.traces_of_type(TraceType.FAILED)
        assert not ch_tracker.traces_of_type(TraceType.ALLS_WELL)

    def test_secured_keys_per_tracker(self, dep):
        entity = dep.add_traced_entity("svc", secured=True)
        tracker_a = dep.add_tracker("wa")
        tracker_b = dep.add_tracker("wb")
        tracker_a.connect("b2")
        tracker_b.connect("b3")
        entity.start("b1")
        dep.sim.run(until=4_000)
        tracker_a.track("svc")
        tracker_b.track("svc")
        dep.sim.run(until=30_000)
        assert tracker_a.trace_key_for("svc") == entity.trace_key
        assert tracker_b.trace_key_for("svc") == entity.trace_key
        assert tracker_a.traces_of_type(TraceType.ALLS_WELL)
        assert tracker_b.traces_of_type(TraceType.ALLS_WELL)
