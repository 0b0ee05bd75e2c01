"""The ``repro analyze`` subcommand: exit codes, suppression, SARIF."""

import json

import pytest

from repro.cli import main

DIRTY = "import time\ndef f():\n    stamp = time.time()\n    raise ValueError(stamp)\n"
CLEAN = "def f():\n    return 1\n"


@pytest.fixture()
def dirty_file(tmp_path):
    target = tmp_path / "src" / "repro" / "sim" / "example.py"
    target.parent.mkdir(parents=True)
    target.write_text(DIRTY)
    return target


@pytest.fixture()
def clean_file(tmp_path):
    target = tmp_path / "src" / "repro" / "sim" / "example.py"
    target.parent.mkdir(parents=True)
    target.write_text(CLEAN)
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_file, capsys):
        assert main(["analyze", str(clean_file)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_file, capsys):
        assert main(["analyze", str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "DET01" in out and "ERR01" in out

    def test_unknown_rule_exits_two(self, clean_file, capsys):
        assert main(["analyze", str(clean_file), "--rules", "NOPE99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "ghost")]) == 2


class TestRuleSelection:
    def test_rules_filter_restricts_findings(self, dirty_file, capsys):
        assert main(["analyze", str(dirty_file), "--rules", "ERR01"]) == 1
        out = capsys.readouterr().out
        assert "ERR01" in out and "DET01" not in out


class TestStats:
    def test_noqa_marked_file_is_clean(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "sim" / "example.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import time\nstamp = time.time()  # repro: noqa[DET01]\n"
        )
        assert main(["analyze", str(target)]) == 0


class TestSarifOutput:
    def test_sarif_to_stdout(self, dirty_file, capsys):
        assert main(["analyze", str(dirty_file), "--sarif", "-"]) == 1
        out = capsys.readouterr().out
        sarif = json.loads(out[out.index('{\n  "$schema"'):])
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-analyze"
        assert {r["ruleId"] for r in sarif["runs"][0]["results"]} == {"DET01", "ERR01"}

    def test_sarif_to_file(self, clean_file, tmp_path, capsys):
        target = tmp_path / "out.sarif"
        assert main(["analyze", str(clean_file), "--sarif", str(target)]) == 0
        assert json.loads(target.read_text())["runs"][0]["results"] == []
