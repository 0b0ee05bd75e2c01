"""The report generator: purity, tables, figures, footnotes.

The content tests read the smoke campaign the ``seed_run`` fixture produced
(``tests/test_seeds.py`` holds it byte-equal to the committed artifacts).
"""

import json

import pytest

from repro.cli import main
from repro.seeds import RESULTS_DIR, SEED_GROUPS


@pytest.fixture(scope="module")
def snapshot(live_seed) -> dict:
    return live_seed("campaign")


@pytest.fixture(scope="module")
def report(seed_run) -> str:
    _snapshot, report_file, *_figures = SEED_GROUPS["campaign"].files
    return (seed_run("campaign") / report_file).read_text()


class TestPurity:
    def test_report_is_a_pure_function_of_the_snapshot(self, tmp_path, capsys):
        """``repro campaign report`` over the committed snapshot *file* rewrites
        the committed artifacts: the JSON round trip loses nothing the report
        reads, where the seed producer renders from the live snapshot."""
        snapshot_file, *artifacts = SEED_GROUPS["campaign"].files
        snapshot_path = RESULTS_DIR / snapshot_file
        assert main(
            ["campaign", "report", "--snapshot", str(snapshot_path), "--out", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        for file in artifacts:
            name = file.rsplit("/", 1)[-1]
            expected = (RESULTS_DIR / file).read_text()
            if name == "report.md":  # the footer names the command that wrote it
                expected = expected.replace(
                    "*Regenerate the committed seeds with:*", "*Regenerate this report with:*"
                ).replace(
                    "python -m repro seeds",
                    f"python -m repro campaign report --snapshot {snapshot_path}"
                    f" --out {tmp_path}",
                )
            assert (tmp_path / name).read_text() == expected, name


class TestContent:
    def test_every_family_gets_a_table(self, snapshot, report):
        for family in snapshot["families"]:
            assert f"## {family}" in report

    def test_adversarial_table_shows_the_defense_columns(self, report):
        assert "violations" in report
        assert "terminated" in report

    def test_baseline_comparison_grid_present(self, report):
        assert "## Baseline comparison" in report
        assert "baseline-gossip" in report

    def test_dependability_summary_present(self, report):
        assert "## Dependability summary" in report
        assert "MTTR" in report

    def test_projected_axes_are_footnoted(self, report):
        assert "projected away" in report
        assert "`churn_cycles`" in report

    def test_regeneration_footer_names_the_command(self, report):
        # the committed seed's one producer (src/repro/seeds.py)
        assert report.endswith("```sh\nPYTHONPATH=src python -m repro seeds\n```\n")
        assert "repro campaign run" not in report

    def test_a_report_outside_the_seeds_names_its_own_command(self, tmp_path, capsys):
        spec = tmp_path / "tiny.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "tiny",
                    "workloads": ["churn-mobile"],
                    "axes": [{"name": "entities", "values": [2]}],
                    "fixed": {"brokers": 3, "churn_cycles": 1},
                    "base_seed": 42,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["campaign", "run", "--spec", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        report = (out / "report.md").read_text()
        assert report.endswith(
            "*Regenerate this report with:*\n\n```sh\n"
            f"PYTHONPATH=src python -m repro campaign run --spec {spec} --out {out}\n```\n"
        )
        assert "repro seeds" not in report
