"""Wall-clock benchmark of the repro stack: four workloads, per-layer host time.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed 42] [--traced] [--out FILE]
    python3 benchmarks/perf/run.py --compare A.json B.json

Every pass runs in a fresh interpreter (``one_pass.py``), one at a time.
Untraced passes give the end-to-end metrics (median of three passes per
workload, interleaved A B C D A B C D A B C D); a traced run plus its
untraced twin over the same slices gives the per-layer metrics.  With
``--workload`` the last line of standard output is the one-object JSON
summary the benchmark driver reads (``--trace 0``: end-to-end metrics,
``--trace 1``: per-layer metrics).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
PASSES = 3

sys.path[:0] = [str(HERE), str(SOURCE)]
try:
    import layers
    import report
    import workloads
except ModuleNotFoundError as missing:
    # a directory holding only the benchmark: nothing to measure, no result
    raise SystemExit(f"error: the program under test is not in {SOURCE}: {missing}") from None


def host_fingerprint() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # never let git search above the checkout
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def run_one_pass(name: str, seed: int, slices: int, smoke: bool, spans_out=None) -> dict:
    """Start ``one_pass.py`` in a fresh interpreter and parse its JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CODEC"}
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "one_pass.py"),
        "--workload", name, "--seed", str(seed), "--slices", str(slices),
    ]
    if smoke:
        command.append("--smoke")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if not done.stdout.strip():
        raise RuntimeError(f"{name}: pass exited {done.returncode} without a result")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit_code"] = done.returncode
    nproc = os.cpu_count() or 1
    if result["load_start"][0] > nproc:
        print(
            f"warning: 1-min load {result['load_start'][0]:.2f} exceeded nproc={nproc} "
            f"when a {name} pass started; timings may be inflated",
            file=sys.stderr,
        )
    return result


def _without(result: dict, *keys: str) -> dict:
    return {k: v for k, v in result.items() if k not in keys}


def summarize(name: str, passes: list[dict], traced: dict | None, reference: dict | None) -> dict:
    """Fold one workload's passes into medians, checks and per-layer values."""
    problems: list[str] = []
    everything = passes + [p for p in (reference, traced) if p is not None]
    for result in everything:
        if result["exit_code"] or result["failed"] or result["violations"]:
            problems += result["violations"] or [f"pass exited {result['exit_code']}"]
    for group, label in ((passes, "untraced passes"), ([reference, traced], "traced run and its twin")):
        digests = {p["sim_digest"] for p in group if p is not None}
        if len(digests) > 1:
            problems.append(f"{label} disagree on sim_digest: {sorted(digests)}")

    spec = workloads.spec_of(name)
    counted = passes or [reference]
    summary = {
        "why": spec.why,
        "correct": not problems,
        "problems": problems,
        "attempted": counted[0]["attempted"],
        "failed": max(p["failed"] for p in everything),
        "slices": counted[0]["slices"],
        "sim_digest": counted[0]["sim_digest"],
        "passes": [_without(p, "counts") for p in passes],
    }
    summary["failed_share"] = summary["failed"] / summary["attempted"]
    if passes:
        summary["end_to_end"] = {
            m.name: {
                "value": statistics.median(p[m.name] for p in passes),
                "unit": m.unit,
                "passes": [p[m.name] for p in passes],
            }
            for m in layers.END_TO_END
        }
    if traced is not None:
        summary["per_layer"] = layers.per_layer(traced, reference)
        summary["traced"] = _without(traced, "counts")
        summary["reference"] = _without(reference, "counts")
    return summary


def measure(names: list[str], seed: int, seconds: int, smoke: bool, end_to_end: bool, traced: bool) -> dict:
    specs = [workloads.spec_of(name) for name in names]
    passes: dict[str, list[dict]] = {name: [] for name in names}
    if end_to_end:
        for _ in range(PASSES):
            for spec in specs:  # interleaved, so drift in host speed hits every workload alike
                slices = workloads.SMOKE_SLICES if smoke else spec.window_slices(seconds)
                passes[spec.name].append(run_one_pass(spec.name, seed, slices, smoke))
    twins: dict[str, tuple] = {name: (None, None) for name in names}
    if traced:
        for spec in specs:
            slices = workloads.SMOKE_SLICES if smoke else spec.traced_slices
            spans_out = HERE / "out" / f"{spec.name}.spans.json"
            reference = run_one_pass(spec.name, seed, slices, smoke)
            run = run_one_pass(spec.name, seed, slices, smoke, spans_out=spans_out)
            run["spans_file"] = str(spans_out.relative_to(ROOT))
            twins[spec.name] = (run, reference)
    return {
        "schema": 1,
        "host": host_fingerprint(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": {name: summarize(name, passes[name], *twins[name]) for name in names},
    }


def driver_line(workload: dict, trace: bool) -> str:
    """The one-object summary the benchmark driver parses."""
    if trace:
        metrics = {
            m.name: {"value": workload["per_layer"][m.name], "unit": m.unit} for m in layers.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": workload["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in layers.END_TO_END
            if m.across_seeds
        }
    return json.dumps(
        {
            "correct": workload["correct"],
            "attempted": workload["attempted"],
            "failed": workload["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42, help="seed of every generated input")
    parser.add_argument(
        "--seconds", type=int, default=10,
        help="host seconds the three windows of a workload are sized for (240 slices per 10 s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced run",
    )
    parser.add_argument("--traced", action="store_true", help="both: untraced passes, then traced runs")
    parser.add_argument("--smoke", action="store_true", help="self-test scale (24 slices, small fabric)")
    parser.add_argument("--out", help="write the full result (host, raw passes, medians) here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(pathlib.Path(path).read_text(encoding="utf-8")) for path in args.compare)
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        bounds = {m.name: m.bound for m in layers.END_TO_END}
        bounds.update({m["name"]: m["bound"] for m in manifest["end_to_end"]})
        table, acceptable = report.compare(a, b, bounds)
        print(table)
        return 0 if acceptable else 1

    if args.workload and args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}")
    names = [args.workload] if args.workload else list(workloads.NAMES)
    result = measure(
        names, args.seed, args.seconds, args.smoke,
        end_to_end=args.traced or args.trace == 0,
        traced=args.traced or args.trace == 1,
    )
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for table in (report.end_to_end_table(result), report.layer_table(result)):
        if table:
            print(table, end="\n\n")
    correct = True
    for name, workload in result["workloads"].items():
        correct &= workload["correct"]
        for problem in workload["problems"]:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
    if args.workload:
        print(driver_line(result["workloads"][args.workload], trace=not (args.traced or args.trace == 0)))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
