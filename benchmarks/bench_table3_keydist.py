"""EXP-T3-keydist: Table 3 key distribution overhead (section 5.1)."""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.bench.experiments.keydist import comparison_rows, run_keydist_sweep
from repro.bench.tables import render_comparison


def test_table3_keydist(benchmark, report):
    results = run_once(benchmark, run_keydist_sweep)

    rows = comparison_rows(results)
    report(
        "table3_keydist",
        render_comparison("Table 3: Key Distribution Overhead (ms)", rows)
        + "\n\nNote: measured from the GUAGE_INTEREST publication that"
        "\nelicited the tracker's response to the tracker holding the trace"
        "\nkey.  The paper's much larger deviations (~37-40 ms) include"
        "\ngauge-arrival waiting time, which our measurement excludes.",
    )

    # shape: monotone growth with hops, and key distribution costs more
    # than a single secured trace (it includes an RSA unsealing)
    means = [r.summary.mean for r in sorted(results, key=lambda r: r.hops)]
    assert means == sorted(means)
    assert all(m > 60.0 for m in means)
    # each cell within 25% of the paper's mean
    for row in rows:
        assert row.measured.mean == pytest.approx(row.paper_mean, rel=0.25), row.label
