"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_info(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_demo_choices(self):
        args = build_parser().parse_args(["demo", "failure", "--seed", "9"])
        assert args.scenario == "failure"
        assert args.seed == 9
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "availability"])

    def test_metrics_flags(self):
        args = build_parser().parse_args(["metrics", "--json", "--seed", "5"])
        assert args.command == "metrics"
        assert args.json is True
        assert args.seed == 5

    def test_faults_flags(self):
        args = build_parser().parse_args(
            ["faults", "--scenario", "broker-crash", "--json", "--seed", "7"]
        )
        assert args.command == "faults"
        assert args.scenario == "broker-crash"
        assert args.json is True
        assert args.seed == 7

    def test_faults_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--scenario", "meteor-strike"])

    def test_faults_requires_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])

    def test_campaign_run_flags(self):
        args = build_parser().parse_args(
            [
                "campaign", "run",
                "--spec", "benchmarks/campaigns/smoke.json",
                "--seed", "7", "--json",
            ]
        )
        assert args.command == "campaign"
        assert args.action == "run"
        assert args.spec == "benchmarks/campaigns/smoke.json"
        assert args.seed == 7
        assert args.json is True

    def test_campaign_report_flags(self):
        args = build_parser().parse_args(
            ["campaign", "report", "--snapshot", "snap.json", "--out", "dir"]
        )
        assert args.action == "report"
        assert args.snapshot == "snap.json"
        assert args.out == "dir"

    def test_campaign_requires_action_and_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seeds_takes_no_flags(self):
        assert build_parser().parse_args(["seeds"]).command == "seeds"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["seeds", "--only", "routing"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "IPDPS 2007" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--duration", "15"]) == 0
        out = capsys.readouterr().out
        assert "ALLS_WELL" in out
        assert "mean heartbeat latency" in out

    def test_metrics_text(self, capsys):
        assert main(["metrics", "--duration", "15"]) == 0
        out = capsys.readouterr().out
        for family in ("[broker]", "[tracker]", "[transport]", "[crypto]", "[tdn]"):
            assert family in out
        assert "broker.msgs.ingress" in out

    def test_metrics_json(self, capsys):
        import json

        assert main(["metrics", "--duration", "15", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["broker.msgs.ingress"] > 0
        assert snapshot["histograms"]["tracker.trace.latency_ms"]["count"] > 0

    def test_demo_failure(self, capsys):
        assert main(["demo", "failure"]) == 0
        out = capsys.readouterr().out
        assert "FAILED" in out

    def test_demo_secure(self, capsys):
        assert main(["demo", "secure"]) == 0
        out = capsys.readouterr().out
        assert "trace key distributed: True" in out

    def test_faults_text(self, capsys):
        assert main(["faults", "--scenario", "entity-churn", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "chaos scenario: entity-churn" in out
        assert "faults injected" in out

    def test_faults_json_matches_run_scenario(self, capsys):
        import json

        from repro.faults import run_scenario

        assert main(["faults", "--scenario", "broker-crash", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot == run_scenario("broker-crash")

    def test_seeds_walks_the_table_and_stops_at_a_refusing_producer(
        self, capsys, monkeypatch, tmp_path
    ):
        # the real table is tests/test_seeds.py's; here: one row written, one refusing
        # (as the analytics row's audit gate does), one never reached
        from repro import seeds
        from repro.errors import AuditIncompleteError

        def refuse(results):
            raise AuditIncompleteError("audit incomplete: 1 rule(s) unbalanced")

        def written(results):
            (results / "a.json").write_text("{}\n")

        monkeypatch.setattr(seeds, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(
            seeds,
            "SEED_GROUPS",
            {
                "first": seeds.SeedGroup(("a.json",), written),
                "gated": seeds.SeedGroup(("b.json",), refuse),
                "never": seeds.SeedGroup(("c.json",), written),
            },
        )
        assert main(["seeds"]) == 1
        captured = capsys.readouterr()
        assert f"first: wrote {tmp_path / 'a.json'}" in captured.out
        assert "never" not in captured.out
        assert captured.err == "repro seeds: gated: audit incomplete: 1 rule(s) unbalanced\n"
