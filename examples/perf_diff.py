#!/usr/bin/env python3
"""Perf diffing: compare two runs with before/after snapshots.

The docs/PERFORMANCE.md evidence loop for *virtual* metrics, end to end:
run the co-located ping-heavy scenario twice from the same seed — once
under the `json` wire codec and once under `compact` — then diff the two
registry snapshots with `repro.obs.diff` and print the table a PR would
paste.  The same table is available from the CLI:

    repro metrics --diff before.json after.json

Run:  python examples/perf_diff.py
"""

from repro.bench.hotpath import run_ping_heavy
from repro.obs import diff_snapshots, render_diff

SEED = 42
DURATION_MS = 30_000.0


def main() -> None:
    # 1. both sides of the experiment, same seed, same virtual duration
    print("running ping-heavy scenario (12 co-located entities) twice...")
    before = run_ping_heavy(seed=SEED, duration_ms=DURATION_MS, codec="json")
    after = run_ping_heavy(seed=SEED, duration_ms=DURATION_MS, codec="compact")

    # 2. the headline numbers a PR leads with
    b_before = before["counters"]["transport.bytes.sent"]
    b_after = after["counters"]["transport.bytes.sent"]
    print()
    print(
        f"wire bytes sent: {b_before} -> {b_after} "
        f"({100.0 * (1.0 - b_after / b_before):.1f}% less)"
    )
    # behaviour must not move with the codec: same pings, same cache hits
    for name in ("tracker.pings.sent", "auth.token.cache.hit"):
        print(f"{name}: {before['counters'][name]} -> {after['counters'][name]}")

    # 3. the full per-instrument delta table (changed rows only)
    print()
    print("before/after diff table:")
    print(render_diff(diff_snapshots(before, after)))


if __name__ == "__main__":
    main()
