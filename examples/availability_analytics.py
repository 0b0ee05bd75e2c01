#!/usr/bin/env python3
"""Downstream analytics on a trace stream: the persistent store end to end.

The tracing scheme delivers verified traces; this example shows what a
consumer builds on top of them:

* an AnalyticsStore persisting every trace (plus the run's journal
  evidence) into a queryable, snapshot-able event log,
* a NetworkForecaster running NWS-style predictors (the paper's Ref [4])
  over NETWORK_METRICS traces to answer "what RTT should I expect?",
* the SLO report (`repro.analytics.reports`) answering "how available
  was each entity?" (uptime %, outage count, MTTR) straight from the
  persisted events.

Run:  python examples/availability_analytics.py
"""

from repro import build_deployment
from repro.analytics import build_report, build_timelines, render_report_markdown
from repro.tracing.failure import AdaptivePingPolicy
from repro.tracing.forecast import NetworkForecaster


def main() -> None:
    dep = build_deployment(
        broker_ids=["b1", "b2"],
        seed=31,
        ping_policy=AdaptivePingPolicy(
            base_interval_ms=1_000.0, min_interval_ms=200.0,
            max_interval_ms=2_000.0, response_deadline_ms=300.0,
        ),
    )
    flaky = dep.add_traced_entity("flaky-worker")
    steady = dep.add_traced_entity("steady-worker")
    tracker = dep.add_tracker("analytics")
    tracker.connect("b2")

    store = dep.attach_analytics()
    forecaster = NetworkForecaster(tracker, store=store)

    flaky.start("b1")
    steady.start("b1")
    dep.sim.run(until=4_000)
    tracker.track("flaky-worker")
    tracker.track("steady-worker")

    # the flaky worker crashes twice and re-registers each time
    for round_start in (30_000, 120_000):
        dep.sim.run(until=round_start)
        flaky.crash()
        dep.sim.run(until=round_start + 60_000)
        dep.sim.process(flaky.reregister())

    dep.sim.run(until=300_000)

    # fold the journal in so the persisted log also holds audit evidence
    # (sessions created, keys distributed, recoveries), then query it
    dep.finalize_analytics(example="availability_analytics")
    report = build_report(store)

    flaky_row = report["entities"]["flaky-worker"]
    flaky_timeline = build_timelines(store.events())["flaky-worker"]
    print(f"flaky-worker: {flaky_row['outages']} outages, "
          f"MTTR {flaky_row['mttr_ms'] / 1000:.1f}s, was it up at t=100s? "
          f"{flaky_timeline.was_up_at(100_000, dep.sim.now)}")

    print("\n== network forecasts (NWS-style predictor selection) ==")
    for name in ("flaky-worker", "steady-worker"):
        rtt = forecaster.forecast_rtt_ms(name)
        if rtt is None:
            print(f"  {name:<14s} no metrics yet")
            continue
        best = forecaster.rtt[name].best_predictor()
        print(f"  {name:<14s} expected RTT {rtt:6.2f} ms "
              f"(best predictor: {best})")

    print(f"\n== persistent store: {store.count()} events ==")
    print(render_report_markdown(report))


if __name__ == "__main__":
    main()
