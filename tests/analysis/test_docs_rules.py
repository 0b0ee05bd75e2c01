"""DOC01-DOC03 fire at ``path:line`` on a miniature repository, and are
inert when the run has no repository root."""

from pathlib import Path

import pytest

from repro.analysis.runner import analyze_paths, select_checkers

DOC_RULES = ["DOC01", "DOC02", "DOC03"]


@pytest.fixture
def mini_repo(tmp_path):
    package = tmp_path / "src" / "repro"
    (package / "obs").mkdir(parents=True)
    (package / "sim").mkdir()
    (package / "__init__.py").write_text("")
    (package / "obs" / "__init__.py").write_text('"""Documented package."""\n')
    (package / "obs" / "mod.py").write_text(
        '"""Documented module."""\n\n\n'
        "class Gauge:\n"
        '    """Documented class."""\n\n'
        "    def __init__(self):\n        pass\n\n"
        "    def read(self):\n        return 0\n\n"
        "    def _private(self):\n        return 1\n"
    )
    # outside the covered packages: no docstrings required
    (package / "sim" / "__init__.py").write_text("")
    (package / "sim" / "engine.py").write_text("def step():\n    return 1\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_a.py").write_text("def test_a():\n    pass\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "A.md").write_text("intro\n\nsee [gone](GONE.md)\n")
    (tmp_path / "docs" / "ORPHAN.md").write_text("nobody links here\n")
    (tmp_path / "README.md").write_text("[a](docs/A.md)\n")
    (tmp_path / "EXPERIMENTS.md").write_text(
        "# Experiments\n\n## Table A\n\nfrom `benchmarks/bench_a.py`\n\n"
        "## Table B\n\ncites bench_missing.py\n"
    )
    return tmp_path


def located(findings):
    return {(f.rule, Path(f.path).name, f.line) for f in findings}


def test_each_doc_rule_names_path_and_line(mini_repo):
    findings = analyze_paths([mini_repo / "src"], select_checkers(DOC_RULES))
    assert located(findings) == {
        ("DOC01", "mod.py", 10),  # Gauge.read(); __init__ and _private exempt
        ("DOC02", "A.md", 3),
        ("DOC02", "ORPHAN.md", 1),
        ("DOC03", "EXPERIMENTS.md", 3),  # footer missing
        ("DOC03", "EXPERIMENTS.md", 7),  # cited file missing
    }
    footer = next(f for f in findings if f.rule == "DOC03" and f.line == 3)
    assert "python -m pytest benchmarks/bench_a.py -s" in footer.message


def test_current_footer_and_noqa_are_clean(mini_repo):
    experiments = mini_repo / "EXPERIMENTS.md"
    experiments.write_text(
        "## Table A\n\nfrom `benchmarks/bench_a.py`\n\n<!-- regen:begin -->\n"
        "> Regenerate: `PYTHONPATH=src python -m pytest benchmarks/bench_a.py -s`\n"
        "<!-- regen:end -->\n"
    )
    mod = mini_repo / "src" / "repro" / "obs" / "mod.py"
    mod.write_text(
        mod.read_text().replace("def read(self):", "def read(self):  # repro: noqa[DOC01]")
    )
    findings = analyze_paths([mini_repo / "src"], select_checkers(["DOC01", "DOC03"]))
    assert findings == []


def test_inert_without_a_repository_root(mini_repo):
    (mini_repo / "README.md").unlink()
    assert analyze_paths([mini_repo / "src"], select_checkers(DOC_RULES)) == []
    # ... and when the run does not index the repro package root
    (mini_repo / "README.md").write_text("[a](docs/A.md)\n")
    obs = mini_repo / "src" / "repro" / "obs"
    assert analyze_paths([obs / "mod.py"], select_checkers(DOC_RULES)) == []
