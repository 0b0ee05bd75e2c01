"""FaultPlan / FaultEvent: validation, ordering, serialization."""

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.faults import FaultEvent, FaultKind, FaultPlan


def crash(at_ms=1_000.0, **kwargs):
    kwargs.setdefault("target", "b1")
    return FaultEvent(kind=FaultKind.BROKER_CRASH, at_ms=at_ms, **kwargs)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            crash(at_ms=-1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValidationError):
            crash(duration_ms=0.0)

    def test_permanent_fault_allowed(self):
        assert crash(duration_ms=None).revert_at_ms is None

    def test_target_required(self):
        with pytest.raises(ValidationError):
            FaultEvent(kind=FaultKind.BROKER_CRASH, at_ms=0.0, target="")

    def test_partition_requires_peer(self):
        with pytest.raises(ValidationError):
            FaultEvent(
                kind=FaultKind.LINK_PARTITION, at_ms=0.0, target="b1",
                duration_ms=10.0,
            )

    def test_peer_forbidden_outside_pair_kinds(self):
        with pytest.raises(ValidationError):
            crash(peer="b2")

    def test_window_kinds_require_duration(self):
        with pytest.raises(ValidationError):
            FaultEvent(
                kind=FaultKind.PACKET_LOSS, at_ms=0.0, target="b1",
                loss_probability=0.5,
            )

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_packet_loss_probability_bounds(self, p):
        with pytest.raises(ValidationError):
            FaultEvent(
                kind=FaultKind.PACKET_LOSS, at_ms=0.0, target="b1",
                duration_ms=10.0, loss_probability=p,
            )

    def test_delay_spike_needs_positive_delay(self):
        with pytest.raises(ValidationError):
            FaultEvent(
                kind=FaultKind.DELAY_SPIKE, at_ms=0.0, target="b1",
                duration_ms=10.0, extra_delay_ms=0.0,
            )

    def test_failover_only_for_broker_crash(self):
        with pytest.raises(ValidationError):
            FaultEvent(
                kind=FaultKind.ENTITY_CRASH, at_ms=0.0, target="svc",
                failover_to="b2",
            )

    def test_revert_time(self):
        event = crash(at_ms=100.0, duration_ms=50.0)
        assert event.revert_at_ms == 150.0


class TestPlan:
    def test_plan_needs_name(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(name="", events=())

    def test_timeline_sorted_by_injection_time(self):
        plan = FaultPlan(
            name="p",
            events=(crash(at_ms=300.0), crash(at_ms=100.0), crash(at_ms=200.0)),
        )
        assert [e.at_ms for e in plan.timeline()] == [100.0, 200.0, 300.0]

    def test_len(self):
        assert len(FaultPlan(name="p", events=(crash(),))) == 1


class TestSerialization:
    def roundtrip(self, plan):
        return FaultPlan.from_dict(plan.to_dict())

    def test_plan_roundtrips(self):
        plan = FaultPlan(
            name="mixed",
            events=(
                crash(at_ms=100.0, duration_ms=50.0, failover_to="b2",
                      detect_after_ms=5.0),
                FaultEvent(
                    kind=FaultKind.LINK_PARTITION, at_ms=10.0, target="b1",
                    peer="b3", duration_ms=20.0,
                ),
                FaultEvent(
                    kind=FaultKind.PACKET_LOSS, at_ms=30.0, target="b2",
                    duration_ms=5.0, loss_probability=0.25,
                ),
                FaultEvent(
                    kind=FaultKind.DELAY_SPIKE, at_ms=40.0, target="b3",
                    duration_ms=5.0, extra_delay_ms=100.0,
                ),
                FaultEvent(
                    kind=FaultKind.ENTITY_CRASH, at_ms=50.0, target="svc",
                    duration_ms=5.0,
                ),
            ),
        )
        restored = self.roundtrip(plan)
        assert restored.name == plan.name
        assert restored.timeline() == plan.timeline()

    def test_to_dict_emits_sorted_timeline(self):
        plan = FaultPlan(name="p", events=(crash(at_ms=200.0), crash(at_ms=50.0)))
        times = [e["at_ms"] for e in plan.to_dict()["events"]]
        assert times == [50.0, 200.0]

    def test_malformed_event_rejected(self):
        with pytest.raises(ValidationError):
            FaultEvent.from_dict({"kind": "meteor", "at_ms": 0.0, "target": "x"})

    def test_malformed_plan_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlan.from_dict({"name": "p"})
