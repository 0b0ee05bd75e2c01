"""A run that has reached steady state stops growing (ROADMAP item 23).

``tests/support.py:run_sizes`` walks a deployment and returns the size of
every container the run owns.  Each run here is taken to a horizon and to
four times it: every size must read the same at both, except a capped
container, which must stay within its cap.  The tracker keeps one last
trace per watched entity, so its ``received`` view must still answer
"which entities were heard since ``t``" exactly as a full history does.
"""

from __future__ import annotations

import pytest

from repro import build_deployment
from repro.auth.cache import DEFAULT_TOKEN_CACHE_CAPACITY
from repro.bench.hotpath import HOTPATH_PING_POLICY
from repro.faults import FaultController
from repro.faults.scenarios import (
    ENTITY_BROKER,
    ENTITY_ID,
    SCENARIOS,
    TRACKER_BROKER,
    TRACKER_ID,
    build_chaos_deployment,
    scenario_plan,
)
from repro.wire.codec import OVERHEAD_MEMO_CAPACITY, SIZE_MEMO_CAPACITY
from tests.support import TraceLog, run_sizes

#: ``trace-steady``'s warm-up and slice (benchmarks/perf/workloads.py)
STEADY_WARM_MS, STEADY_SLICE_MS = 4_000.0, 80.0
#: a chaos run's horizon here: the catalog's, and never before the first
#: gauge (60 s), whose instruments are created on first use
CHAOS_MIN_HORIZON_MS = 90_000.0

_CAPS = {"size_memo.sizes": SIZE_MEMO_CAPACITY, "size_memo.overheads": OVERHEAD_MEMO_CAPACITY}


def _cap(name: str) -> int | None:
    if name.startswith("token_cache."):
        return DEFAULT_TOKEN_CACHE_CAPACITY
    return _CAPS.get(name)


def growth(short: dict[str, int], long: dict[str, int]) -> list[str]:
    """Sizes that differ between two horizons of one run, beyond a cap."""
    grown = []
    for name in sorted(short.keys() | long.keys()):
        before, after = short.get(name), long.get(name)
        cap = _cap(name)
        if after is not None and (after <= cap if cap is not None else after == before):
            continue
        grown.append(f"{name}: {before} -> {after}" + (f" (cap {cap})" if cap else ""))
    return grown


def trace_steady(entities: int, slices: int):
    """``trace-steady``'s deployment (three brokers, three trackers) after
    its warm-up and ``slices`` slices; returns it and each tracker's log."""
    dep = build_deployment(
        broker_ids=["b1", "b2", "b3"], seed=42, ping_policy=HOTPATH_PING_POLICY, codec="json"
    )
    traced = [
        dep.add_traced_entity(f"svc-{i:02d}", machine_name=f"host-{i // 4}")
        for i in range(entities)
    ]
    logs = {}
    for tracker_id, broker_id in (("w1", "b3"), ("w2", "b2"), ("w3", "b1")):
        tracker = dep.add_tracker(tracker_id)
        tracker.connect(broker_id)
        logs[tracker_id] = TraceLog(tracker)
    for i, entity in enumerate(traced):
        entity.start("b1" if (i // 4) % 2 == 0 else "b2")
    dep.sim.run(until=2_000.0)
    for tracker in dep.trackers.values():
        for entity in traced:
            tracker.track(str(entity.entity_id))
    dep.sim.run(until=STEADY_WARM_MS + slices * STEADY_SLICE_MS)
    return dep, logs


def chaos(name: str, until_ms: float):
    """One catalog scenario driven to ``until_ms``, set up as ``run_scenario``
    sets it up; returns the deployment and its tracker's log."""
    dep = build_chaos_deployment(42)
    entity = dep.add_traced_entity(ENTITY_ID)
    tracker = dep.add_tracker(TRACKER_ID)
    tracker.interest_refresh_ms = 0.0
    tracker.connect(TRACKER_BROKER)
    log = TraceLog(tracker)
    entity.start(ENTITY_BROKER)
    FaultController(dep, scenario_plan(name)).start()
    dep.sim.run(until=3_000)
    tracker.track(ENTITY_ID)
    dep.sim.run(until=until_ms)
    return dep, {TRACKER_ID: log}


def chaos_horizon(name: str) -> float:
    return max(SCENARIOS[name][1], CHAOS_MIN_HORIZON_MS)


def silent_view_disagreements(dep, logs: dict[str, TraceLog]) -> list[str]:
    """Cut-off times at which the ``received`` view and a full history
    disagree on which entities a tracker heard since then."""
    wrong = []
    for tracker_id, log in logs.items():
        view = dep.trackers[tracker_id].received
        cutoffs = sorted({0.0, dep.sim.now + 1.0, *(t.received_ms for t in log.traces)})
        for cutoff in cutoffs:
            from_history = {t.entity_id for t in log.traces if t.received_ms >= cutoff}
            from_view = {t.entity_id for t in view if t.received_ms >= cutoff}
            if from_history != from_view:
                wrong.append(f"{tracker_id} since {cutoff}: {from_history} vs {from_view}")
    return wrong


class TestSteadyRunsStopGrowing:
    def test_trace_steady_at_smoke_scale(self):
        short, _ = trace_steady(4, 24)
        long, _ = trace_steady(4, 4 * 24)
        assert growth(run_sizes(short), run_sizes(long)) == []

    def test_broker_crash(self):
        horizon = chaos_horizon("broker-crash")
        short, _ = chaos("broker-crash", horizon)
        long, _ = chaos("broker-crash", 4 * horizon)
        assert growth(run_sizes(short), run_sizes(long)) == []


class TestTheLastTraceViewAnswersTheHarness:
    """``benchmarks/perf/workloads.py:_silent_pairs`` reads
    ``Tracker.received``: one trace per watched entity must give the answer
    every trace gave."""

    def test_trace_steady_at_smoke_scale(self):
        assert silent_view_disagreements(*trace_steady(4, 24)) == []

    def test_broker_crash(self):
        assert silent_view_disagreements(*chaos("broker-crash", chaos_horizon("broker-crash"))) == []


@pytest.mark.deep
class TestSoakAtFullScale:
    """Every catalog scenario, and ``trace-steady`` at its full 24
    entities over the ``--seconds 40`` window (960 slices)."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_chaos_scenario(self, name):
        horizon = chaos_horizon(name)
        short, _ = chaos(name, horizon)
        long, long_logs = chaos(name, 4 * horizon)
        assert growth(run_sizes(short), run_sizes(long)) == []
        assert silent_view_disagreements(long, long_logs) == []

    def test_trace_steady(self):
        short, _ = trace_steady(24, 960)
        long, logs = trace_steady(24, 4 * 960)
        assert growth(run_sizes(short), run_sizes(long)) == []
        assert silent_view_disagreements(long, logs) == []
