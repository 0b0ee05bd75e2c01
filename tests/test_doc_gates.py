"""The helpers behind the doc rules OBS02, DOC01 and DOC03 (`repro analyze`;
``tests/analysis/test_self_check.py`` requires the shipped tree clean of
them), plus the docs/PERFORMANCE.md trajectory tables against the files
they quote."""

import json
import pathlib
import re

from repro.analysis.rules import docs
from repro.analysis.rules.observability import (
    doc_instrument_names,
    registered_instruments,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"


class TestMetricDocs:
    def test_code_scan_sees_known_instruments(self, analyzed_tree):
        index, _findings, _seconds = analyzed_tree
        names, prefixes = registered_instruments(index)
        assert "broker.msgs.delivered" in names
        assert "auth.token.cache.hit" in names
        # the constant-resolved gauge and an f-string family prefix
        assert "broker.interest.patterns" in names
        assert any(p.startswith("crypto.ms.") for p in prefixes)

    def test_doc_scan_sees_placeholders(self):
        exact, placeholders = doc_instrument_names(
            (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        )
        assert "transport.bytes.sent" in exact
        assert "crypto.ms." in placeholders
        # a tracing-layer count is an instrument like any other
        assert "trace.suppressed_no_subscriber" in exact


class TestDocstrings:
    def test_covers_the_promised_packages(self):
        assert set(docs.COVERED) == {
            "analytics",
            "auth",
            "bench",
            "campaigns",
            "faults",
            "messaging",
            "obs",
        }


class TestExperiments:
    def test_cited_benches_exist_and_are_classified(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        cited = docs.cited_in(text)
        assert "bench_table3_hops.py" in cited
        assert "bench_scale.py" in cited
        for name in cited:
            assert (BENCH_DIR / name).exists()
        assert docs.bench_style(BENCH_DIR / "bench_table3_hops.py") == "pytest"
        assert docs.bench_style(BENCH_DIR / "bench_scale.py") == "script"

    def test_script_style_footer_carries_the_warning(self):
        footer = docs.footer_block(BENCH_DIR, ["bench_scale.py"])
        assert "not collected by `pytest benchmarks/`" in footer
        assert "PYTHONPATH=src python benchmarks/bench_scale.py" in footer


class TestTrajectoryTables:
    """docs/PERFORMANCE.md "Trajectory" quotes every ``BENCH_<n>.json``."""

    def test_every_bench_file_has_its_row_in_each_workload_table(self):
        text = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
        section = text.split("\n## Trajectory\n", 1)[1].split("\n## ", 1)[0]
        tables = {
            match.group(1): match.group(2).splitlines()
            for match in re.finditer(r"^`([a-z-]+)`:\n\n((?:\|.*\n)+)", section, re.M)
        }
        bench_files = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert bench_files
        for path in bench_files:
            workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
            assert set(workloads) <= set(tables), path.name
            for workload, result in workloads.items():
                setup_s, run_s, us_per_delivered, peak_rss_mb = (
                    result["end_to_end"][metric]["value"]
                    for metric in ("setup_s", "run_s", "us_per_delivered", "peak_rss_mb")
                )
                row = (
                    f"| `{path.name}` | {setup_s:.3f} s | {run_s:.3f} s "
                    f"| {us_per_delivered:.1f} µs | {peak_rss_mb:.1f} MiB |"
                )
                assert row in tables[workload], f"{workload}: expected {row}"
