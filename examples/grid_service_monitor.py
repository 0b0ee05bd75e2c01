#!/usr/bin/env python3
"""Grid-service monitoring: the workload the paper's introduction motivates.

A small computational grid runs services on different sites (brokers).  An
operations tracker follows all of them; a scheduler tracker only wants
load information to place jobs.  During the run one service crashes (and
is detected via FAILURE_SUSPICION -> FAILED), another degrades and
recovers (RECOVERING -> READY), and services report their host load.

Run:  python examples/grid_service_monitor.py
"""

from repro import EntityState, TraceType, build_deployment
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.interest import InterestCategory
from repro.tracing.traces import LoadInformation

SERVICES = ["compute-01", "compute-02", "storage-01", "gateway-01"]


def main() -> None:
    dep = build_deployment(
        broker_ids=["site-a", "site-b", "site-c"],
        seed=7,
        ping_policy=AdaptivePingPolicy(
            base_interval_ms=1_000.0, min_interval_ms=200.0,
            max_interval_ms=4_000.0, response_deadline_ms=300.0,
        ),
    )

    # services spread over the grid sites
    entities = {}
    for index, name in enumerate(SERVICES):
        entity = dep.add_traced_entity(name)
        entity.start(["site-a", "site-b", "site-c"][index % 3])
        entities[name] = entity
    dep.sim.run(until=4_000)

    # operations wants everything; the scheduler only load information
    ops = dep.add_tracker("ops-console")
    ops.connect("site-c")
    scheduler = dep.add_tracker(
        "job-scheduler", interests=frozenset({InterestCategory.LOAD})
    )
    scheduler.connect("site-a")
    ops_seen, scheduler_seen = [], []
    ops.on_trace.append(ops_seen.append)
    scheduler.on_trace.append(scheduler_seen.append)
    for name in SERVICES:
        ops.track(name)
        scheduler.track(name)

    # live event log at the operations console
    ops.on_trace.append(lambda t: print(
        f"  [{t.received_ms/1000:7.2f}s] {t.entity_id:<12s} {t.trace_type.value}"
    ))

    print("== grid running ==")
    dep.sim.run(until=12_000)

    # compute-02's host heats up, degrades, then recovers
    print("== compute-02 reports load, degrades, recovers ==")
    e = entities["compute-02"]
    dep.sim.process(e.report_load(LoadInformation(0.93, 3_600.0, 4_096.0, 48)))
    dep.sim.run(until=13_000)
    dep.sim.process(e.report_state(EntityState.RECOVERING))
    dep.sim.run(until=18_000)
    dep.sim.process(e.report_state(EntityState.READY))
    dep.sim.run(until=22_000)

    # storage-01 crashes hard: watch suspicion escalate to failure
    print("== storage-01 crashes ==")
    entities["storage-01"].crash()
    dep.sim.run(until=60_000)

    # gateway-01 shuts down gracefully
    print("== gateway-01 shuts down ==")
    dep.sim.process(entities["gateway-01"].shutdown())
    dep.sim.run(until=70_000)

    print("\n== summary ==")
    for name in SERVICES:
        kinds = [t.trace_type for t in ops_seen if t.entity_id == name]
        failed = TraceType.FAILED in kinds
        shutdown = TraceType.SHUTDOWN in kinds
        status = "FAILED" if failed else ("SHUTDOWN" if shutdown else "READY")
        print(f"  {name:<12s} traces={len(kinds):3d}  final={status}")

    load_traces = [t for t in scheduler_seen if t.trace_type is TraceType.LOAD_INFORMATION]
    print(f"\nscheduler saw {len(load_traces)} load reports and "
          f"{len(scheduler_seen) - len(load_traces)} other traces "
          "(selective interest keeps its stream lean)")
    detection = dep.journal.records("failure_declared")
    if detection:
        print(f"storage-01 failure declared at t={detection[0].time_ms/1000:.2f}s "
              "by its hosting broker")


if __name__ == "__main__":
    main()
