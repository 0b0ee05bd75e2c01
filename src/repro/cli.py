"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info``
    Package, paper and experiment-index summary.
``quickstart``
    Run the minimal tracing scenario and print what the tracker saw.
``demo``
    Run a scenario: ``failure`` (crash detection) or ``secure``
    (confidential traces).
``metrics``
    Run the quickstart scenario and print the full repro.obs metrics
    snapshot (text, or JSON with ``--json``).
``analyze``
    Run the repro.analysis domain linter over source trees (exit 1 on
    findings; ``--sarif`` for the machine-readable SARIF report).
``faults``
    Run one chaos scenario from the repro.faults catalog and print its
    fault/recovery summary (``--json`` for the canonical snapshot).
``campaign``
    Run a declarative parameter-sweep campaign (``campaign run --spec
    FILE``) or regenerate its report artifacts from a committed
    snapshot (``campaign report --snapshot FILE``); docs/CAMPAIGNS.md.
``seeds``
    Regenerate every committed seed under ``benchmarks/results/`` from
    the :mod:`repro.seeds` table; ``git diff --exit-code
    benchmarks/results`` afterwards is the CI gate.  No flags.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import __version__


def _cmd_info(_args) -> int:
    from repro.crypto.costmodel import PAPER_CALIBRATION

    print(f"repro {__version__} — IPDPS 2007 availability-tracing reproduction")
    print("paper: Pallickara, Ekanayake, Fox — 'A Scalable Approach for the")
    print("       Secure and Authorized Tracking of the Availability of")
    print("       Entities in Distributed Systems'")
    print()
    print("experiments: Tables 3-4, Figures 2-5 and the ablations, one")
    print("             `repro seeds` row each (EXPERIMENTS.md)")
    print(f"calibrated crypto operations: {len(PAPER_CALIBRATION)}")
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def _start_tracing(dep, entity_id, tracker_id, tracker_broker, secured=False):
    """Register one traced entity at ``b1`` and point one tracker at it."""
    entity = dep.add_traced_entity(entity_id, secured=secured)
    tracker = dep.add_tracker(tracker_id)
    tracker.connect(tracker_broker)
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track(entity_id)
    return entity, tracker


def _run_quickstart(args):
    """The minimal scenario: one traced entity, one tracker, three brokers.

    Returns the deployment and the tracker's heartbeat latencies.
    """
    from repro import TraceType, build_deployment
    from repro.tracing.tracker import latency_samples

    dep = build_deployment(broker_ids=["b1", "b2", "b3"], seed=args.seed)
    _, tracker = _start_tracing(dep, "demo-service", "demo-tracker", "b3")
    latencies = latency_samples(tracker, TraceType.ALLS_WELL)
    dep.sim.run(until=float(args.duration) * 1000.0)
    return dep, latencies


def _cmd_quickstart(args) -> int:
    from repro import TraceType

    dep, latencies = _run_quickstart(args)
    print(f"traces received: {dep.metrics.counter_value('tracker.traces.received')}")
    for kind in sorted(t.value for t in TraceType):
        count = dep.metrics.counter_value(f"tracker.traces_received.{kind.lower()}")
        if count:
            print(f"  {kind:<20s} x{count}")
    if latencies:
        print(f"mean heartbeat latency: {sum(latencies)/len(latencies):.2f} ms")
    return 0


def _cmd_metrics(args) -> int:
    """Dump the quickstart run's metrics snapshot."""
    dep, _ = _run_quickstart(args)

    if args.json:
        print(dep.metrics.to_json())
    else:
        print(dep.metrics.render_text())
        if len(dep.journal):
            print()
            print(f"journal: {len(dep.journal)} events, "
                  f"kinds: {', '.join(dep.journal.kinds())}")
    return 0


def _cmd_analyze(args) -> int:
    """Run the domain linter; exit 0 clean, 1 on findings, 2 on bad usage.

    ``--sarif`` additionally emits a SARIF 2.1.0 report for code-scanning
    upload.
    """
    from repro.analysis import analyze_paths, format_findings_text, format_sarif
    from repro.analysis.runner import select_checkers
    from repro.errors import ConfigurationError

    try:
        checkers = select_checkers(args.rules)
        findings = analyze_paths(args.paths, checkers)
    except ConfigurationError as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return 2

    print(format_findings_text(findings))
    if args.sarif:
        report = format_sarif(findings, checkers)
        if args.sarif == "-":
            print(report)
        else:
            with open(args.sarif, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
    return 1 if findings else 0


def _cmd_faults(args) -> int:
    """Run one chaos scenario and print (or dump as JSON) its snapshot."""
    from repro.faults import run_scenario
    from repro.util.snapshots import render_snapshot

    duration_ms = None if args.duration is None else float(args.duration) * 1000.0
    snapshot = run_scenario(args.scenario, seed=args.seed, duration_ms=duration_ms)
    if args.json:
        print(render_snapshot(snapshot), end="")
        return 0

    counters = snapshot["counters"]
    print(f"chaos scenario: {snapshot['scenario']} "
          f"(seed {snapshot['seed']}, {snapshot['duration_ms']/1000:.0f}s virtual)")
    injected = {
        name.rsplit(".", 1)[-1]: count
        for name, count in counters.items()
        if name.startswith("faults.injected.") and count
    }
    print(f"faults injected: {injected or 'none'}")
    print(f"traces delivered: {counters['broker.msgs.delivered']} "
          f"(unroutable {counters['broker.msgs.unroutable']})")
    recovery = snapshot["recovery"]
    if recovery["count"]:
        print(f"recoveries: {recovery['count']} "
              f"(mean {recovery['mean_ms']:.0f} ms, max {recovery['max_ms']:.0f} ms "
              "detection -> re-registration)")
    else:
        print("recoveries: none measured")
    pending = counters["trace.recovery.detected"] - counters["trace.recovery.completed"]
    if pending:
        print(f"unrecovered entities at end of run: {pending}")
    return 0


def _regenerate(command: str) -> tuple[str, str]:
    """A campaign report's footer: the ``repro`` command that wrote it."""
    return "this report", f"PYTHONPATH=src python -m repro {command}"


def _cmd_campaign(args) -> int:
    """Run a campaign, or regenerate its report.

    ``campaign run`` executes the spec's full matrix and writes
    ``snapshot.json`` plus report artifacts under ``--out``; with
    ``--json`` it prints the canonical snapshot.  ``campaign report``
    re-renders the report artifacts from an existing snapshot file.
    """
    import json as _json

    from repro.campaigns import (
        generate_report,
        load_spec,
        run_campaign,
        unused_parameters,
    )
    from repro.errors import ReproError
    from repro.util.snapshots import render_snapshot

    try:
        if args.action == "report":
            snapshot = _json.loads(
                pathlib.Path(args.snapshot).read_text(encoding="utf-8")
            )
            out_dir = args.out or pathlib.Path(args.snapshot).parent
            command = f"campaign report --snapshot {args.snapshot}"
            if args.out:
                command += f" --out {args.out}"
            written = generate_report(snapshot, out_dir, _regenerate(command))
            for path in written:
                print(f"wrote {path}")
            return 0

        spec = load_spec(args.spec)
        for name in unused_parameters(spec):
            print(
                f"repro campaign: warning: parameter {name!r} is accepted "
                "by no family in this campaign (typo?)",
                file=sys.stderr,
            )

        snapshot = run_campaign(
            spec, seed=args.seed, progress=None if args.json else print
        )
    except ReproError as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2

    rendered = render_snapshot(snapshot)
    if args.json:
        print(rendered, end="")

    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        snapshot_path = out_dir / "snapshot.json"
        snapshot_path.write_text(rendered, encoding="utf-8")
        command = f"campaign run --spec {args.spec}"
        if args.seed is not None:
            command += f" --seed {args.seed}"
        written = generate_report(snapshot, out_dir, _regenerate(f"{command} --out {args.out}"))
        if not args.json:
            print(f"wrote {snapshot_path}")
            for path in written:
                print(f"wrote {path}")
    return 0


def _cmd_analytics(args) -> int:
    """Drive the availability analytics store (docs/ANALYTICS.md).

    ``analytics run`` executes one chaos scenario with the store
    attached, enforces the audit-completeness gate, and writes (or
    prints) the store snapshot JSON.  ``analytics report`` renders the
    SLO report (markdown or JSON) from such a snapshot,
    deterministically (the committed pair under
    ``benchmarks/results/analytics/`` is a :mod:`repro.seeds` row); an
    unreadable or malformed snapshot is exit 2 with a one-line message.
    """
    from repro.analytics import (
        AnalyticsStore,
        build_report,
        render_report_json,
        render_report_markdown,
    )
    from repro.errors import AuditIncompleteError, ReproError

    if args.action == "run":
        from repro.faults import run_scenario
        from repro.analytics import assert_audit_complete

        store = AnalyticsStore()
        try:
            run_scenario(
                args.scenario,
                seed=args.seed,
                analytics_store=store,
                deployment_probe=None if args.no_audit else assert_audit_complete,
            )
        except AuditIncompleteError as exc:
            print(exc, file=sys.stderr)
            return 1
        if args.out:
            store.save(args.out)
            print(f"wrote {store.count()} events to {args.out}")
        else:
            print(store.export_json())
        return 0

    if args.action == "report":
        try:
            store = AnalyticsStore.load(args.snapshot)
        except ReproError as exc:
            print(f"repro analytics: {exc}", file=sys.stderr)
            return 2
        report = build_report(store)
        renderer = render_report_json if args.format == "json" else render_report_markdown
        rendered = renderer(report) + "\n"
        if args.out:
            pathlib.Path(args.out).write_text(rendered, encoding="utf-8")
            print(f"wrote {args.out}")
        else:
            print(rendered, end="")
        return 0

    return 2  # pragma: no cover - argparse restricts actions


def _cmd_seeds(_args) -> int:
    """Run every :data:`repro.seeds.SEED_GROUPS` producer into the tree; exit 1
    when one refuses (the analytics row's audit gate).  Drift is ``git diff``'s."""
    from repro.errors import ReproError
    from repro.seeds import RESULTS_DIR, SEED_GROUPS

    for name, group in SEED_GROUPS.items():
        try:
            group.produce(RESULTS_DIR)
        except ReproError as exc:
            print(f"repro seeds: {name}: {exc}", file=sys.stderr)
            return 1
        for file in group.files:
            print(f"{name}: wrote {RESULTS_DIR / file}")
    return 0


def _cmd_demo(args) -> int:
    from repro import TraceType, build_deployment

    if args.scenario == "failure":
        from repro.tracing.failure import AdaptivePingPolicy
        from repro.tracing.tracker import first_arrivals

        dep = build_deployment(
            broker_ids=["b1", "b2"], seed=args.seed,
            ping_policy=AdaptivePingPolicy(
                base_interval_ms=1_000.0, min_interval_ms=200.0,
                max_interval_ms=2_000.0, response_deadline_ms=300.0,
            ),
        )
        entity, tracker = _start_tracing(dep, "svc", "w", "b2")
        first = first_arrivals(tracker)
        dep.sim.run(until=10_000)
        print("crashing the entity at t=10s ...")
        entity.crash()
        dep.sim.run(until=60_000)
        for kind in (TraceType.FAILURE_SUSPICION, TraceType.FAILED):
            when = f"t={first[kind]/1000:.2f}s" if kind in first else "never"
            print(f"  {kind.value:<20s} {when}")
    elif args.scenario == "secure":
        dep = build_deployment(broker_ids=["b1", "b2"], seed=args.seed)
        _, tracker = _start_tracing(dep, "svc", "w", "b2", secured=True)
        dep.sim.run(until=30_000)
        heartbeats = dep.metrics.counter_value("tracker.traces_received.alls_well")
        print(f"trace key distributed: {tracker.trace_key_for('svc') is not None}")
        print(f"decrypted heartbeats:  {heartbeats}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.faults.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure & authorized availability tracking (IPDPS 2007 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and experiment summary")

    quickstart = sub.add_parser("quickstart", help="run the minimal scenario")
    quickstart.add_argument("--seed", type=int, default=42)
    quickstart.add_argument("--duration", type=float, default=30.0,
                            help="virtual seconds to simulate")

    demo = sub.add_parser("demo", help="run a scenario")
    demo.add_argument("scenario", choices=["failure", "secure"])
    demo.add_argument("--seed", type=int, default=7)

    metrics = sub.add_parser(
        "metrics", help="run the quickstart scenario and dump the metrics snapshot"
    )
    metrics.add_argument("--seed", type=int, default=42)
    metrics.add_argument("--duration", type=float, default=30.0,
                         help="virtual seconds to simulate")
    metrics.add_argument("--json", action="store_true",
                         help="emit the snapshot as JSON")

    analyze = sub.add_parser(
        "analyze", help="run the repro.analysis domain linter (exit 1 on findings)"
    )
    analyze.add_argument("paths", nargs="*", default=["src"],
                         help="files or directories to analyze (default: src)")
    analyze.add_argument("--rules", type=lambda s: [r for r in s.split(",") if r],
                         default=None, metavar="RULE[,RULE...]",
                         help="restrict to a comma-separated subset of rules")
    analyze.add_argument("--sarif", metavar="FILE", default=None,
                         help="also write a SARIF 2.1.0 report to FILE "
                              "('-' for stdout)")

    faults = sub.add_parser(
        "faults", help="run a deterministic chaos scenario (repro.faults)"
    )
    faults.add_argument(
        "--scenario",
        required=True,
        choices=list(SCENARIOS),
        help="scenario from the docs/FAULTS.md catalog",
    )
    faults.add_argument("--seed", type=int, default=42)
    faults.add_argument("--duration", type=float, default=None,
                        help="virtual seconds to simulate "
                             "(default: the scenario's own horizon)")
    faults.add_argument("--json", action="store_true",
                        help="emit the canonical snapshot JSON")

    campaign = sub.add_parser(
        "campaign",
        help="run a declarative parameter-sweep campaign (docs/CAMPAIGNS.md)",
    )
    campaign_sub = campaign.add_subparsers(dest="action", required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="expand and execute a campaign spec"
    )
    campaign_run.add_argument("--spec", required=True, metavar="FILE",
                              help="JSON campaign spec "
                                   "(see benchmarks/campaigns/)")
    campaign_run.add_argument("--seed", type=int, default=None,
                              help="override the spec's base seed")
    campaign_run.add_argument("--out", metavar="DIR", default=None,
                              help="write snapshot.json + report artifacts "
                                   "into DIR")
    campaign_run.add_argument("--json", action="store_true",
                              help="print the full snapshot JSON instead of "
                                   "progress lines")
    campaign_report = campaign_sub.add_parser(
        "report", help="regenerate report artifacts from a snapshot"
    )
    campaign_report.add_argument("--snapshot", required=True, metavar="FILE",
                                 help="campaign snapshot JSON")
    campaign_report.add_argument("--out", metavar="DIR", default=None,
                                 help="output directory (default: next to "
                                      "the snapshot)")

    analytics = sub.add_parser(
        "analytics",
        help="persistent availability analytics (docs/ANALYTICS.md)",
    )
    analytics_sub = analytics.add_subparsers(dest="action", required=True)
    analytics_run = analytics_sub.add_parser(
        "run", help="run a chaos scenario with the analytics store attached"
    )
    analytics_run.add_argument(
        "--scenario",
        required=True,
        choices=list(SCENARIOS),
        help="scenario from the docs/FAULTS.md catalog",
    )
    analytics_run.add_argument("--seed", type=int, default=42)
    analytics_run.add_argument("--out", metavar="FILE", default=None,
                               help="write the store snapshot JSON to FILE "
                                    "(default: print it)")
    analytics_run.add_argument("--no-audit", action="store_true",
                               help="skip the audit-completeness gate")
    analytics_report = analytics_sub.add_parser(
        "report", help="render the SLO report from a store snapshot"
    )
    analytics_report.add_argument("--snapshot", required=True, metavar="FILE",
                                  help="store snapshot JSON "
                                       "(see benchmarks/results/analytics/)")
    analytics_report.add_argument("--format", choices=["markdown", "json"],
                                  default="markdown")
    analytics_report.add_argument("--out", metavar="FILE", default=None,
                                  help="write the rendering to FILE "
                                       "(default: print it)")

    sub.add_parser(
        "seeds",
        help="regenerate every committed seed under benchmarks/results "
             "(then: git diff --exit-code benchmarks/results)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "quickstart": _cmd_quickstart,
        "demo": _cmd_demo,
        "metrics": _cmd_metrics,
        "analyze": _cmd_analyze,
        "faults": _cmd_faults,
        "campaign": _cmd_campaign,
        "analytics": _cmd_analytics,
        "seeds": _cmd_seeds,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
