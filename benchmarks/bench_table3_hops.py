"""EXP-T3-hops: Table 3 trace routing overhead + Figure 2.

Regenerates all four macro blocks of Table 3 (TCP/UDP x auth/auth+security
at 2-6 hops) and checks the shape claims: ~7 ms per hop, a ~17.6 ms
security premium, and UDP a few ms under TCP throughout.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.bench import paper_data
from repro.bench.experiments.hops import (
    comparison_rows,
    run_hops_sweep,
    slope_per_hop,
)
from repro.bench.tables import render_comparison, render_series

DURATION_MS = 120_000.0


def test_table3_hops(benchmark, report, save_figure):
    results = run_once(benchmark, run_hops_sweep, duration_ms=DURATION_MS)

    rows = comparison_rows(results)
    series: dict[str, list[tuple[float, float]]] = {}
    for result in results:
        mode = "auth+sec" if result.secured else "auth"
        series.setdefault(f"{result.transport}/{mode}", []).append(
            (result.hops, result.summary.mean)
        )

    report(
        "table3_hops",
        render_comparison("Table 3: Trace routing overhead (ms)", rows)
        + "\n\n"
        + render_series("Figure 2: trace overhead vs hops", "hops", series),
    )
    from repro.bench.svgplot import series_dict_to_svg

    save_figure(
        "figure2_hops",
        series_dict_to_svg(
            "Figure 2: trace routing overhead vs hops",
            "hops", "trace overhead (ms)", series,
        ),
    )

    # --- shape assertions ------------------------------------------------------
    lo, hi = paper_data.EXPECTED_HOP_SLOPE_MS
    for transport in ("TCP", "UDP"):
        for secured in (False, True):
            block = [
                r for r in results
                if r.transport == transport and r.secured == secured
            ]
            slope = slope_per_hop(block)
            assert lo <= slope <= hi, (
                f"{transport} secured={secured}: slope {slope:.2f} outside "
                f"[{lo}, {hi}]"
            )

    gap_lo, gap_hi = paper_data.EXPECTED_SECURITY_GAP_MS
    for transport in ("TCP", "UDP"):
        for hops in (2, 4, 6):
            auth = next(
                r for r in results
                if r.transport == transport and not r.secured and r.hops == hops
            )
            sec = next(
                r for r in results
                if r.transport == transport and r.secured and r.hops == hops
            )
            gap = sec.summary.mean - auth.summary.mean
            assert gap_lo <= gap <= gap_hi, (
                f"{transport} {hops} hops: security gap {gap:.2f} outside band"
            )

    udp_lo, udp_hi = paper_data.EXPECTED_UDP_SAVING_MS
    for secured in (False, True):
        for hops in (2, 4, 6):
            tcp = next(
                r for r in results
                if r.transport == "TCP" and r.secured == secured and r.hops == hops
            )
            udp = next(
                r for r in results
                if r.transport == "UDP" and r.secured == secured and r.hops == hops
            )
            saving = tcp.summary.mean - udp.summary.mean
            assert udp_lo <= saving <= udp_hi, (
                f"secured={secured} {hops} hops: UDP saving {saving:.2f} "
                "outside band"
            )

    # absolute calibration: every cell within 10% of the paper's mean
    for row in rows:
        assert row.measured.mean == pytest.approx(row.paper_mean, rel=0.10), row.label
