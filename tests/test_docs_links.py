"""The doc rules DOC02 (links, reachability) and OBS02 restricted to the
``analytics.`` instrument family detect what they promise to
(``tests/analysis/test_self_check.py`` requires the shipped tree clean)."""

import pathlib

from repro.analysis.rules import docs
from repro.analysis.runner import analyze_paths, select_checkers

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_checker_covers_readme_and_docs():
    files = {p.name for p in docs.doc_files(REPO_ROOT)}
    assert "README.md" in files
    assert "FAULTS.md" in files
    assert "ARCHITECTURE.md" in files


def test_checker_detects_breakage(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "[ok](docs/REAL.md) [bad](docs/MISSING.md) [ext](https://example.com) "
        "[anchor](#section)\n"
    )
    (tmp_path / "docs" / "REAL.md").write_text("[up](../README.md#quick)\n")
    assert docs.broken_links(tmp_path) == [
        (tmp_path / "README.md", 1, "docs/MISSING.md")
    ]


def test_reachability_detects_orphan(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("[a](docs/A.md)\n")
    (tmp_path / "docs" / "A.md").write_text("[b](B.md#anchor)\n")
    (tmp_path / "docs" / "B.md").write_text("no links\n")
    (tmp_path / "docs" / "ORPHAN.md").write_text("nobody links here\n")
    assert docs.unreachable_docs(tmp_path) == [tmp_path / "docs" / "ORPHAN.md"]


def analytics_findings(findings):
    return [f for f in findings if f.rule == "OBS02" and "'analytics." in f.message]


def test_analytics_instrument_check_detects_gap(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("[obs](docs/OBSERVABILITY.md)\n")
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
        "documented: `analytics.events.ingested`\n\nstale: `analytics.store.gone`\n"
    )
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        'registry.counter("analytics.events.ingested")\n'
        'registry.gauge("analytics.store.undocumented")\n'
    )
    hits = analytics_findings(
        analyze_paths([tmp_path / "src"], select_checkers(["OBS02"]))
    )
    assert {(pathlib.Path(f.path).name, f.line, f.message.split("'")[1]) for f in hits} == {
        ("mod.py", 2, "analytics.store.undocumented"),
        ("OBSERVABILITY.md", 3, "analytics.store.gone"),
    }
