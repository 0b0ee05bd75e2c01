"""Fabric-scale curve: entities vs RSS and forwards per event.

Drives ``repro.bench.scale`` over a sweep of fabric sizes — up to the
64-broker / 100 000-entity point the scalability claim (§4) is about —
and commits the measured curve under ``benchmarks/results/``:

* ``scale_curve.json`` — one record per point: the deterministic
  snapshot plus peak RSS (``ru_maxrss``)
* ``scale_curve.txt`` — the rendered table EXPERIMENTS.md cites

Each point runs in its **own subprocess** so ``ru_maxrss`` is the true
peak of that point alone, not whatever larger point ran earlier in the
process.  Per-event cost is the deterministic ``fwd/event`` column
(``broker.msgs.forwarded_out`` / events): every event is published
diametrically opposite its subscriber, so it crosses brokers/2 ring
links.  Host time per event is the wall-clock benchmark's job
(``benchmarks/perf/run.py``, docs/PERFORMANCE.md).

The verbatim control plane rides along at the small points for
comparison; past ~20k entities its O(entities × brokers) interest table
stops being worth materializing, which is itself the result.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --quick  # small points only
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

SEED = 42

#: (brokers, entities, events, federation) sweep; verbatim comparison
#: points stay small — the O(entities x brokers) interest table is the
#: scaling wall this curve exists to show.
POINTS = [
    (8, 5_000, 500, True),
    (8, 5_000, 500, False),
    (16, 20_000, 1_000, True),
    (16, 20_000, 1_000, False),
    (32, 50_000, 1_500, True),
    (64, 100_000, 2_000, True),
]

QUICK_POINTS = [point for point in POINTS if point[1] <= 20_000]


def run_child(brokers: int, entities: int, events: int, federation: bool) -> dict:
    """One sweep point, isolated in a subprocess for clean ru_maxrss."""
    cmd = [
        sys.executable,
        __file__,
        "--child",
        "--brokers",
        str(brokers),
        "--entities",
        str(entities),
        "--events",
        str(events),
        "--seed",
        str(SEED),
    ]
    if not federation:
        cmd.append("--verbatim")
    proc = subprocess.run(
        cmd,
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC_DIR)},
    )
    return json.loads(proc.stdout)


def child_main(args: argparse.Namespace) -> None:
    """Measure one point in-process and print the JSON record."""
    import resource

    from repro.bench.scale import run_scale_point

    snapshot = run_scale_point(
        brokers=args.brokers,
        entities=args.entities,
        events=args.events,
        seed=args.seed,
        federation=not args.verbatim,
    )
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    snapshot["rss_mb"] = round(rss_kb / 1024.0, 1)
    json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def render_table(records: list[dict]) -> str:
    lines = [
        "fabric-scale curve (seed %d): control floods, RSS and forwards per event"
        % SEED,
        "",
        f"{'plane':<9} {'brokers':>7} {'entities':>9} {'floods':>7} "
        f"{'fp.fwd':>7} {'RSS MiB':>8} {'fwd/event':>9}",
    ]
    for record in records:
        plane = "federated" if record["federation"] else "verbatim"
        forwards = record["counters"]["broker.msgs.forwarded_out"] / record["events"]
        lines.append(
            f"{plane:<9} {record['brokers']:>7} {record['entities']:>9} "
            f"{record['control_floods']:>7} "
            f"{record['counters']['fed.forwards.false_positive']:>7} "
            f"{record['rss_mb']:>8.1f} {forwards:>9.1f}"
        )
    lines += [
        "",
        "floods: control-plane broadcasts issued for the whole run.  The",
        "federated plane pays ~one per broker per anti-entropy round",
        "regardless of the pattern count; the verbatim plane pays one per",
        "pattern (plus an O(entities x brokers) interest table, which is",
        "why it has no large points).  fp.fwd: digest false-positive",
        "forwards — the budgeted cost of summarization, re-checked and",
        "dropped at the destination's exact index.  fwd/event:",
        "broker.msgs.forwarded_out / events — each event is published",
        "diametrically opposite its subscriber, so it crosses brokers/2",
        "ring links (plus the false-positive forwards).",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small points only")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--brokers", type=int, default=8)
    parser.add_argument("--entities", type=int, default=5_000)
    parser.add_argument("--events", type=int, default=500)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--verbatim", action="store_true")
    args = parser.parse_args(argv)

    if args.child:
        child_main(args)
        return 0

    records = []
    for brokers, entities, events, federation in (
        QUICK_POINTS if args.quick else POINTS
    ):
        plane = "federated" if federation else "verbatim"
        print(
            f"running {plane} point: {brokers} brokers, {entities} entities ...",
            file=sys.stderr,
        )
        record = run_child(brokers, entities, events, federation)
        records.append(record)

        # the curve's load-bearing claims, checked on every regeneration
        assert record["received"] == events, record
        assert record["counters"]["broker.interest.stale_forwards"] == 0, record
        if federation:
            assert record["control_floods"] <= 2 * brokers, record

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "scale_curve.json").write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n"
    )
    table = render_table(records)
    (RESULTS_DIR / "scale_curve.txt").write_text(table + "\n")
    print(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
