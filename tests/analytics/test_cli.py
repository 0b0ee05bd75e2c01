"""The ``repro analytics`` CLI, held to the committed analytics seed: ``run``
writes it and ``report`` renders its report (that the library producer
regenerates both is ``tests/test_seeds.py``)."""

import pytest

from repro.cli import build_parser, main
from repro.seeds import RESULTS_DIR, SEED_GROUPS

SEED_SNAPSHOT, SEED_REPORT = (
    RESULTS_DIR / file for file in SEED_GROUPS["analytics"].files
)


class TestParser:
    def test_run_flags(self):
        args = build_parser().parse_args(
            ["analytics", "run", "--scenario", "broker-crash",
             "--out", "a.json", "--seed", "7"]
        )
        assert args.command == "analytics"
        assert args.action == "run"
        assert args.out == "a.json"
        assert args.seed == 7
        assert not hasattr(args, "db")

    def test_report_flags(self):
        args = build_parser().parse_args(
            ["analytics", "report", "--snapshot", "x.json",
             "--format", "markdown"]
        )
        assert args.action == "report"
        assert args.format == "markdown"


class TestSeedMirror:
    def test_run_reproduces_committed_seed_snapshot(self, tmp_path, capsys):
        out = tmp_path / "memory.json"
        code = main(
            ["analytics", "run", "--scenario", "broker-crash",
             "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == SEED_SNAPSHOT.read_bytes()

    def test_report_reproduces_committed_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            ["analytics", "report", "--snapshot", str(SEED_SNAPSHOT),
             "--format", "markdown", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == SEED_REPORT.read_bytes()

    def test_report_text_format_prints_to_stdout(self, capsys):
        code = main(
            ["analytics", "report", "--snapshot", str(SEED_SNAPSHOT)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "availability report" in captured.out
        assert "evidence:" in captured.out


class TestMalformedSnapshot:
    """A snapshot ``report`` cannot read is one named line and exit 2."""

    @pytest.mark.parametrize(
        ("content", "problem"),
        [
            ('{"events": 5}', "'events' must be a list"),
            ('{"events": [], "meta": [1, 2]}', "'meta' must be a mapping"),
            ('{"meta": {}}', "'events' is missing"),
            (None, "cannot read analytics snapshot"),
        ],
        ids=["events-not-a-list", "meta-not-a-mapping", "no-events", "missing-file"],
    )
    def test_report_names_the_problem(self, tmp_path, capsys, content, problem):
        snapshot = tmp_path / "snapshot.json"
        if content is not None:
            snapshot.write_text(content, encoding="utf-8")
        code = main(["analytics", "report", "--snapshot", str(snapshot)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("repro analytics: ")
        assert problem in captured.err
        assert "Traceback" not in captured.err
