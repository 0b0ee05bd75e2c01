"""CampaignSpec validation, round-trip, and matrix expansion."""

import pathlib

import pytest

from repro.campaigns import (
    Axis,
    CampaignSpec,
    expand,
    load_spec,
    unused_parameters,
)
from repro.errors import ConfigurationError, ValidationError

#: Every campaign spec the repository ships, the offline ones included.
COMMITTED_SPECS = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "campaigns").glob("*.json")
)


def _spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="t",
        workloads=("churn-mobile",),
        baselines=("baseline-gossip",),
        axes=(Axis("entities", (2, 3)), Axis("churn_cycles", (1, 2))),
        fixed={"brokers": 3},
        repetitions=1,
        base_seed=42,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(name="")

    def test_at_least_one_workload_required(self):
        with pytest.raises(ConfigurationError):
            _spec(workloads=())  # baselines alone are not a campaign

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValidationError):
            _spec(repetitions=0)

    def test_axis_needs_values(self):
        with pytest.raises(ValidationError):
            _spec(axes=(Axis("entities", ()),))

    def test_axis_and_fixed_collision_rejected(self):
        with pytest.raises(ValidationError):
            _spec(fixed={"entities": 5})


class TestRoundTrip:
    def test_to_from_dict_is_identity(self):
        spec = _spec(repetitions=3, base_seed=7)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValidationError):
            CampaignSpec.from_dict({"workloads": ["churn-mobile"]})

    def test_load_spec_smoke_file(self):
        spec = load_spec("benchmarks/campaigns/smoke.json")
        assert spec.name == "smoke"
        assert len(expand(spec)) >= 4

    def test_load_spec_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_spec("benchmarks/campaigns/no-such-spec.json")

    def test_load_spec_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError):
            load_spec(bad)


class TestExpansion:
    def test_workloads_precede_baselines_with_stable_indexes(self):
        points = expand(_spec())
        assert [p.index for p in points] == list(range(len(points)))
        kinds = [p.kind for p in points]
        assert kinds == sorted(kinds, key=("workload", "baseline").index)

    def test_full_grid_for_accepting_family(self):
        churn = [p for p in expand(_spec()) if p.family == "churn-mobile"]
        cells = {(p.params["entities"], p.params["churn_cycles"]) for p in churn}
        assert cells == {(2, 1), (2, 2), (3, 1), (3, 2)}
        assert all(p.params["brokers"] == 3 for p in churn)

    def test_projection_deduplicates_baseline_cells(self):
        gossip = [p for p in expand(_spec()) if p.family == "baseline-gossip"]
        # gossip ignores churn_cycles (and fixed brokers): 2x2 grid -> 2 points
        assert sorted(p.params["entities"] for p in gossip) == [2, 3]
        assert all("churn_cycles" not in p.params for p in gossip)
        assert all("brokers" not in p.params for p in gossip)

    def test_repetitions_step_the_seed(self):
        points = expand(_spec(axes=(), repetitions=3), seed=100)
        churn = [p for p in points if p.family == "churn-mobile"]
        assert [(p.repetition, p.seed) for p in churn] == [
            (0, 100), (1, 101), (2, 102),
        ]

    def test_seed_argument_overrides_base_seed(self):
        assert expand(_spec(), seed=7)[0].seed == 7
        assert expand(_spec())[0].seed == 42

    def test_unknown_family_raises_with_known_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            expand(_spec(workloads=("no-such-family",)))
        assert "no-such-family" in str(excinfo.value)
        assert "churn-mobile" in str(excinfo.value)

    def test_label_is_stable(self):
        point = expand(_spec())[0]
        assert point.family in point.label()
        assert f"seed={point.seed}" in point.label()


class TestLints:
    def test_unused_parameters_flags_universal_typos(self):
        spec = _spec(axes=(Axis("entites", (2, 3)),))  # typo: no family accepts
        assert unused_parameters(spec) == ("entites",)
        assert unused_parameters(_spec()) == ()

    @pytest.mark.parametrize("path", COMMITTED_SPECS, ids=lambda path: path.name)
    def test_every_committed_spec_is_valid(self, path):
        """A committed spec names only registered families and accepted
        parameters, so it expands; nothing else runs the offline ones."""
        spec = load_spec(path)
        assert expand(spec, seed=42)
        assert unused_parameters(spec) == ()
