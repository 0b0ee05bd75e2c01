#!/usr/bin/env python3
"""Chaos recovery: crash a broker, watch the system get the entity back.

Builds the three-broker ring the chaos scenarios use, starts one traced
entity and one tracker, then hands a `FaultPlan` to the `FaultController`:
broker `b1` dies at t=20 s for 30 s, with failover to `b2` once the
outage is noticed.  The run prints the full recovery story — crash,
detection, migration, re-registration — and the measured detection →
re-registration latency (`trace.recovery_ms`), bit-identical on every
rerun at the same seed.

Run:  python examples/chaos_recovery.py
"""

from repro import TraceType
from repro.faults import FaultController, FaultEvent, FaultKind, FaultPlan
from repro.faults.scenarios import build_chaos_deployment

SEED = 42


def main() -> None:
    # 1. the shared chaos deployment: brokers b1-b2-b3 in a ring, with a
    #    fast ping policy so the paper's miss thresholds resolve quickly
    dep = build_chaos_deployment(seed=SEED)
    entity = dep.add_traced_entity("svc")
    tracker = dep.add_tracker("watchdog")
    tracker.connect("b3")
    received = []
    tracker.on_trace.append(received.append)
    entity.start("b1")

    # 2. the fault schedule: one broker crash with failover, as data
    plan = FaultPlan(
        name="crash-and-recover",
        events=(
            FaultEvent(
                kind=FaultKind.BROKER_CRASH,
                at_ms=20_000.0,
                target="b1",
                duration_ms=30_000.0,
                failover_to="b2",
                detect_after_ms=2_000.0,
            ),
        ),
    )
    controller = FaultController(dep, plan)
    controller.start()  # before sim.run; installs the RecoveryProbe

    # 3. run: bootstrap, track, then let the crash and the recovery play out
    dep.sim.run(until=3_000)
    tracker.track("svc")
    dep.sim.run(until=90_000)

    # 4. the story, straight from the journal
    print("chaos timeline (virtual ms):")
    for kind in ("fault.injected", "fault.failover",
                 "recovery.detected", "recovery.completed", "fault.reverted"):
        for rec in dep.journal.records(kind):
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(rec.fields.items())
            )
            print(f"  t={rec.time_ms:>9.2f}  {rec.kind:<19} {detail}")

    # 5. the recovery summary the chaos seed gate pins
    registry = dep.metrics
    detected = registry.counter_value("trace.recovery.detected")
    completed = registry.counter_value("trace.recovery.completed")
    recovery = registry.snapshot()["histograms"].get("trace.recovery_ms", {})
    heartbeats = [t for t in received if t.trace_type is TraceType.ALLS_WELL]
    post_crash = [t for t in heartbeats if t.received_ms > 20_000.0]

    print(f"\nfailures detected: {detected}, recoveries completed: {completed}")
    print(f"recovery windows still open: {controller.probe.pending() or 'none'}")
    if recovery.get("count"):
        print(f"detection -> re-registration latency: {recovery['mean']:.2f} ms")
    print(f"heartbeats received: {len(heartbeats)} total, "
          f"{len(post_crash)} after the crash — the stream survived the outage")
    print(f"(seed={SEED}; rerun reproduces every number above exactly)")


if __name__ == "__main__":
    main()
