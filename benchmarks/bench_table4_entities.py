"""EXP-T4: Table 4 — overhead while increasing the traced entities.

One broker, thirty trackers, and 10/20/30 traced entities colocated on a
single machine; the shared crypto workload inflates both the mean and the
deviation super-linearly, just as the paper reports (and explains:
"the security operations related to the generation of trace messages are
compute intensive ... performed by every traced entity for every trace").
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.bench.experiments.entities import comparison_rows, run_entities_sweep
from repro.bench.tables import render_comparison

DURATION_MS = 45_000.0


def test_table4_entities(benchmark, report):
    results = run_once(benchmark, run_entities_sweep, duration_ms=DURATION_MS)

    rows = comparison_rows(results)
    routing_lines = ["", "routing counters per case:"]
    for result in results:
        if result.routing is not None:
            routing_lines.append(
                f"  entities={result.entity_count:<3d} {result.routing.render()}"
            )
    report(
        "table4_entities",
        render_comparison(
            "Table 4: trace routing overhead by traced entities (TCP)", rows
        )
        + "\n".join(routing_lines),
    )

    ordered = sorted(results, key=lambda r: r.entity_count)
    means = [r.summary.mean for r in ordered]
    stds = [r.summary.std_dev for r in ordered]
    # monotone growth of mean and deviation with colocated entities
    assert means == sorted(means)
    assert stds == sorted(stds)
    # super-linear: the 20->30 jump exceeds the 10->20 jump
    assert means[2] - means[1] > means[1] - means[0]
    # each cell within 25% of the paper's mean
    for row in rows:
        assert row.measured.mean == pytest.approx(row.paper_mean, rel=0.25), row.label
