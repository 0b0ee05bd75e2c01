"""File walking, rule selection, and the text rendering."""

import pytest

from repro.analysis.runner import (
    all_rule_ids,
    analyze_paths,
    format_findings_text,
    iter_python_files,
    select_checkers,
)
from repro.errors import ConfigurationError

DIRTY = "def f():\n    raise ValueError('x')\n"
CLEAN = "def f():\n    return 1\n"


@pytest.fixture()
def fake_tree(tmp_path):
    """A miniature src/repro tree with one violation."""
    pkg = tmp_path / "src" / "repro" / "util"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(DIRTY)
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "__pycache__").mkdir()
    (pkg / "__pycache__" / "junk.py").write_text("raise ValueError('ignored')\n")
    return tmp_path / "src"


class TestIterPythonFiles:
    def test_walk_skips_pycache_and_sorts(self, fake_tree):
        names = [p.name for p in iter_python_files([fake_tree])]
        assert names == ["clean.py", "dirty.py"]

    def test_explicit_file_passes_through(self, fake_tree):
        target = fake_tree / "repro" / "util" / "dirty.py"
        assert list(iter_python_files([target])) == [target]

    def test_missing_path_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            list(iter_python_files([tmp_path / "nope"]))


class TestSelectCheckers:
    def test_default_is_full_catalogue(self):
        assert [c.rule for c in select_checkers(None)] == all_rule_ids()

    def test_subset_preserves_catalogue_order(self):
        assert [c.rule for c in select_checkers(["ERR01", "DET01"])] == [
            "DET01",
            "ERR01",
        ]

    def test_rule_ids_case_insensitive(self):
        assert [c.rule for c in select_checkers(["err01"])] == ["ERR01"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            select_checkers(["NOPE99"])


class TestAnalyzePaths:
    def test_finds_the_violation(self, fake_tree):
        findings = analyze_paths([fake_tree])
        assert [(f.rule, f.line) for f in findings] == [("ERR01", 2)]
        assert findings[0].path.endswith("repro/util/dirty.py")

    def test_restricting_rules_hides_it(self, fake_tree):
        assert analyze_paths([fake_tree], select_checkers(["OBS01"])) == []


class TestRendering:
    def test_text_output_ends_with_summary(self, fake_tree):
        text = format_findings_text(analyze_paths([fake_tree]))
        assert text.endswith("1 finding")
        assert "ERR01" in text
