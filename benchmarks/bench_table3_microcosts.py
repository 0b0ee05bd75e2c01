"""EXP-T3-micro: Table 3 per-operation security costs.

Regenerates the middle block of Table 3 from the calibrated cost model
(the values the macro benchmarks actually charge) and, separately, times
our real pure-Python primitives for transparency.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.bench.experiments.microcosts import (
    comparison_rows,
    measure_real_primitives,
    run_calibrated_micro,
)
from repro.bench.tables import render_comparison


def test_table3_microcosts(benchmark, report):
    results = run_once(benchmark, run_calibrated_micro, samples=2_000)

    rows = comparison_rows(results)
    real = measure_real_primitives(iterations=10)
    real_lines = ["", "Actual pure-Python primitive timings (wall-clock ms):"]
    for name, summary in sorted(real.items()):
        real_lines.append(
            f"  {name:<14s} mean={summary.mean:8.3f}  sd={summary.std_dev:7.3f}"
        )
    report(
        "table3_microcosts",
        render_comparison(
            "Table 3: Security and Authorization related costs (ms)", rows
        )
        + "\n".join(real_lines),
    )

    # calibration must match the paper's micro rows closely
    for row in rows:
        assert row.measured.mean == pytest.approx(row.paper_mean, rel=0.08), row.label

    # orderings the paper's section 6.3 argument relies on
    by_label = {r.label: r.calibrated.mean for r in results}
    assert by_label["Sign Trace Message"] > by_label["Verify Signature in Trace Message"]
    assert by_label["Encrypting Trace Message"] < by_label["Decrypting Trace Message"]
    assert (
        by_label["Sign Trace Message"] + by_label["Verify Signature in Trace Message"]
        > 5 * (
            by_label["Encrypting Trace Message"]
            + by_label["Decrypting Trace Message"]
        )
    )
