"""Scale smoke tests: a larger deployment stays correct and deterministic."""

import pytest

from repro import build_deployment
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.traces import TraceType
from tests.support import TraceLog

POLICY = AdaptivePingPolicy(
    base_interval_ms=2_000.0, min_interval_ms=500.0,
    max_interval_ms=4_000.0, response_deadline_ms=500.0,
)


def build_scenario(seed=1400):
    """5 brokers in a ring+chord, 12 entities, 18 trackers."""
    dep = build_deployment(
        broker_ids=[f"b{i}" for i in range(5)],
        seed=seed,
        ping_policy=POLICY,
        extra_links=[("b0", "b4"), ("b1", "b3")],
    )
    entities = []
    for i in range(12):
        entity = dep.add_traced_entity(f"svc-{i:02d}")
        dep.sim.call_later(
            137.0 * i, lambda e=entity, b=f"b{i % 5}": e.start(b)
        )
        entities.append(entity)
    dep.sim.run(until=8_000)
    logs = {}
    for i in range(18):
        tracker = dep.add_tracker(f"w-{i:02d}")
        tracker.connect(f"b{(i + 2) % 5}")
        logs[tracker.tracker_id] = TraceLog(tracker)
        for j in range(3):  # each tracker follows three entities
            tracker.track(f"svc-{(i + j) % 12:02d}")
    return dep, entities, logs


class TestScale:
    def test_everyone_registered_and_traced(self):
        dep, entities, logs = build_scenario()
        dep.sim.run(until=60_000)
        assert all(e.session_id is not None for e in entities)
        for tracker_id, log in logs.items():
            seen = {t.entity_id for t in log.of_type(TraceType.ALLS_WELL)}
            assert len(seen) == 3, f"{tracker_id} saw {seen}"
        # zero security violations in a healthy system
        assert dep.metrics.counter_value("auth.invalid_token") == 0
        assert dep.metrics.counter_value("tracker.traces_bad_signature") == 0
        assert dep.metrics.counter_value("broker.violations") == 0

    def test_mixed_failures_isolated(self):
        dep, entities, logs = build_scenario(seed=1401)
        dep.sim.run(until=30_000)
        entities[3].crash()
        dep.sim.process(entities[7].shutdown())
        dep.sim.run(until=180_000)

        failed_seen = set()
        shutdown_seen = set()
        for log in logs.values():
            failed_seen |= {t.entity_id for t in log.of_type(TraceType.FAILED)}
            shutdown_seen |= {t.entity_id for t in log.of_type(TraceType.SHUTDOWN)}
        assert failed_seen == {"svc-03"}
        assert shutdown_seen == {"svc-07"}

    def test_deterministic_at_scale(self):
        def fingerprint(seed):
            dep, entities, logs = build_scenario(seed=seed)
            dep.sim.run(until=45_000)
            return tuple(
                (tracker_id, len(log), round(sum(log.latencies() or [0.0]), 6))
                for tracker_id, log in logs.items()
            )

        first = fingerprint(1402)
        assert first == fingerprint(1402)
        assert first != fingerprint(1403)
