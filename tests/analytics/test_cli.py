"""The ``repro analytics`` CLI, held to the committed analytics seed: either
backend's ``run`` writes it and ``report`` renders its report (that the
library producer regenerates both is ``tests/test_seeds.py``)."""

from repro.analytics import AnalyticsStore, SqliteBackend
from repro.cli import build_parser, main
from repro.seeds import RESULTS_DIR, SEED_GROUPS

SEED_SNAPSHOT, SEED_REPORT = (
    RESULTS_DIR / file for file in SEED_GROUPS["analytics"].files
)


class TestParser:
    def test_run_flags(self):
        args = build_parser().parse_args(
            ["analytics", "run", "--scenario", "broker-crash",
             "--db", "a.db", "--seed", "7"]
        )
        assert args.command == "analytics"
        assert args.action == "run"
        assert args.db == "a.db"
        assert args.seed == 7

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

    def test_sqlite_backend_produces_the_identical_snapshot(
        self, tmp_path, capsys
    ):
        out = tmp_path / "sqlite.json"
        code = main(
            ["analytics", "run", "--scenario", "broker-crash",
             "--db", str(tmp_path / "a.db"), "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == SEED_SNAPSHOT.read_bytes()

    def test_db_alone_keeps_the_seed_events_in_that_file(self, tmp_path, capsys):
        db = tmp_path / "a.db"
        code = main(["analytics", "run", "--scenario", "broker-crash", "--db", str(db)])
        capsys.readouterr()
        assert code == 0
        stored = SqliteBackend(str(db))
        events = [e.to_dict() for e in stored.events()]
        stored.close()
        assert events
        assert events == [e.to_dict() for e in AnalyticsStore.load(SEED_SNAPSHOT).events()]

    def test_report_text_format_prints_to_stdout(self, capsys):
        code = main(
            ["analytics", "report", "--snapshot", str(SEED_SNAPSHOT)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "availability report" in captured.out
        assert "evidence:" in captured.out
