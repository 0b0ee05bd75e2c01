#!/usr/bin/env python3
"""Quickstart: trace one entity, watch its heartbeats.

Builds a three-broker deployment, registers a traced entity on the first
broker, points a tracker at it from the last broker, and prints the
heartbeat stream the tracker receives — every trace signed with the
entity-delegated authorization token and verified end to end.

Run:  python examples/quickstart.py
"""

from repro import TraceType, build_deployment


def main() -> None:
    # 1. a deployment: brokers in a chain, TDN cluster, CA, guards installed
    dep = build_deployment(broker_ids=["broker-a", "broker-b", "broker-c"], seed=42)

    # 2. an entity that wants to be traced, and a tracker that cares
    entity = dep.add_traced_entity("payment-service")
    tracker = dep.add_tracker("ops-dashboard")
    tracker.connect("broker-c")
    # the tracker keeps only each entity's last trace: keep them all here
    received = []
    tracker.on_trace.append(received.append)

    # 3. the entity runs its full startup protocol: trace-topic creation at
    #    the TDN, registration with its broker, token delegation
    entity.start("broker-a")
    dep.sim.run(until=3_000)  # 3 virtual seconds
    print(f"entity registered: session={entity.session_id}, state={entity.state.value}")

    # 4. the tracker discovers the trace topic (authorized via the TDN) and
    #    subscribes to all trace streams
    tracker.track("payment-service")
    dep.sim.run(until=30_000)  # 30 virtual seconds

    # 5. what arrived?
    heartbeats = [t for t in received if t.trace_type is TraceType.ALLS_WELL]
    latencies = [t.latency_ms for t in heartbeats if t.latency_ms is not None]
    print(f"\nreceived {len(received)} traces, "
          f"{len(heartbeats)} of them ALLS_WELL heartbeats")
    if latencies:
        mean = sum(latencies) / len(latencies)
        print(f"mean end-to-end trace latency: {mean:.2f} ms "
              f"(crypto-dominated, as the paper reports)")

    metrics = [t for t in received if t.trace_type is TraceType.NETWORK_METRICS]
    if metrics:
        last = metrics[-1].payload
        print(f"latest network metrics: rtt={last['mean_rtt_ms']:.2f} ms, "
              f"loss={last['loss_rate']:.1%}")


if __name__ == "__main__":
    main()
