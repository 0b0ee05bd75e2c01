"""One pass of one workload in this process; prints one JSON line.

``run.py`` starts this file in a fresh interpreter for every pass, so no
pass inherits another's caches, message-id counter or heap.  All times here
are host seconds from ``time.perf_counter``; the virtual clock appears only
as ``sim_now_ms`` and inside the determinism digest.

Times are reported twice: ``raw_*`` as measured, and speed-corrected under
the plain names.  The host this benchmark was written on runs the same
pure-Python work anywhere between 1.0x and 1.5x of its best time, in
plateaus that last seconds to minutes, and the program slows by the same
factor as any other Python code does (README.md has the measurement).  A
fixed calibration kernel is therefore run between slices, and every time is
divided by how much slower than :data:`REFERENCE_KERNEL_S` the kernel ran
beside it: "host seconds at the reference speed".
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import sys
import time
from heapq import heappop, heappush

#: "process ready": taken before the program is imported, so set-up pays for imports
_PROCESS_READY = time.perf_counter()


#: Seconds one :func:`kernel` call takes on a fast plateau of the host the
#: benchmark was written on; it fixes the unit, not the comparisons.
REFERENCE_KERNEL_S = 1.10e-3

#: Calibration runs for this share of the time it calibrates.
CALIBRATION_SHARE = 0.08


def kernel() -> float:
    """A fixed mix of what the program does: heap, dict, tuples, strings."""
    heap: list = []
    table: dict = {}
    start = time.perf_counter()
    for i in range(1500):
        heappush(heap, ((i * 7919) % 1013, i))
        table[i % 257] = (i, str(i))
    while heap:
        heappop(heap)
    return time.perf_counter() - start


class Speedometer:
    """How much slower than the reference the host runs, sampled over time."""

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.calls = 0

    def sample(self, calibrated_s: float) -> None:
        """Run the kernel until it has had its share of ``calibrated_s``."""
        while self.kernel_s < CALIBRATION_SHARE * calibrated_s:
            self.kernel_s += kernel()
            self.calls += 1

    @property
    def slowdown(self) -> float:
        return self.kernel_s / self.calls / REFERENCE_KERNEL_S


def obs_replay_s(ops: dict[str, int]) -> float:
    """Host seconds to repeat the window's instrument and journal operations.

    The instruments are too cheap to time call by call, so the drill replays
    the counted operations — registry lookup included, as the program's call
    sites do it — against a fresh registry and journal.
    """
    from repro.obs import EventJournal, MetricsRegistry

    registry, journal = MetricsRegistry(), EventJournal()
    start = time.perf_counter()
    for _ in range(ops["Counter.inc"]):
        registry.counter("replay.counter").inc()
    for _ in range(ops["Histogram.observe"]):
        registry.histogram("replay.histogram").observe(1.0)
    for _ in range(ops["Gauge.set"]):
        registry.gauge("replay.gauge").set(1.0)
    for _ in range(ops["Gauge.inc"]):
        registry.gauge("replay.gauge").inc()
    for _ in range(ops["Gauge.dec"]):
        registry.gauge("replay.gauge").dec()
    for _ in range(ops["EventJournal.record"]):
        journal.record(0.0, "replay", size_bytes=0, link="replay")
    return time.perf_counter() - start


def run_pass(name: str, seed: int, slices: int, smoke: bool, spans_out: str | None) -> dict:
    import workloads

    recorder = None
    if spans_out is not None:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    setup_speed, window_speed = Speedometer(), Speedometer()
    try:
        load_start = os.getloadavg()

        def setup_elapsed() -> float:
            return time.perf_counter() - _PROCESS_READY - setup_speed.kernel_s

        def breathe() -> None:  # set-up calls this between its stages
            setup_speed.sample(setup_elapsed())

        workload = workloads.build(name, seed, slices, smoke, breathe)
        workload.begin_window()
        breathe()
        setup_s = setup_elapsed()
        if recorder is not None:
            recorder.enter_phase("window")
        slice_s = []
        window_s = 0.0
        for index in range(slices):
            slice_start = time.perf_counter()
            workload.run_slice(index)
            slice_s.append(time.perf_counter() - slice_start)
            window_s += slice_s[-1]
            # outside the slice's time and in proportion to it, so that the
            # kernel samples host speed where the window spent its time
            window_speed.sample(window_s)
        finish_start = time.perf_counter()
        workload.finish()
        evidence_s = time.perf_counter() - finish_start
    finally:
        if recorder is not None:
            recorder.uninstall()
    workload.end_window()
    verdict = workload.verdict()

    delivered = workload.delta("broker.msgs.delivered")
    raw = {
        "setup_s": setup_s,
        "run_s": window_s + evidence_s,
        "window_s": window_s,
        "evidence_s": evidence_s,
        "slice_ms_p50": 1e3 * statistics.median(slice_s),
        "slice_ms_p90": 1e3 * statistics.quantiles(slice_s, n=10)[-1],
    }
    slowdown = dict.fromkeys(raw, window_speed.slowdown) | {"setup_s": setup_speed.slowdown}
    result = {
        "workload": name,
        "seed": seed,
        "slices": slices,
        "smoke": smoke,
        "traced": recorder is not None,
        **{name: value / slowdown[name] for name, value in raw.items()},
        **{f"raw_{name}": value for name, value in raw.items()},
        "setup_slowdown": setup_speed.slowdown,
        "window_slowdown": window_speed.slowdown,
        "delivered": delivered,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "violations": list(verdict.violations),
        "sim_digest": workloads.sim_digest(workload.monitor, workload.sim),
        "sim_now_ms": workload.sim.now,
        "load_start": load_start,
        "load_end": os.getloadavg(),
        "counts": {
            name: value
            for name, value in sorted(workload.deltas.items())
            if not name.startswith("monitor.") or name == "monitor.control.floods"
        },
    }
    result["us_per_delivered"] = 1e6 * result["run_s"] / delivered if delivered else None
    if recorder is not None:
        targets = recorder.target_table()
        result["root_s"] = recorder.root_s["window"]
        result["targets"] = targets
        result["obs_replay_s"] = obs_replay_s(
            {row["name"].split(":", 1)[1]: row["window_calls"] for row in targets}
        )
        pathlib.Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        recorder.dump(spans_out, workload=name, seed=seed, slices=slices, clock="perf_counter")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slices", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", help="record spans and write them to this file")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.slices, args.smoke, args.spans_out)
    print(json.dumps(result))
    for line in result["violations"]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    return 1 if result["failed"] or result["violations"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
