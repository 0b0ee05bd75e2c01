"""The workload-family registry: contracts, determinism, §5 defenses."""

import pytest

from repro.campaigns import WORKLOADS, workload_family
from repro.errors import ConfigurationError

#: Cheap parameterizations, one per family, for determinism checks.
_CHEAP = {
    "churn-mobile": {"duration_ms": 40_000.0, "churn_period_ms": 15_000.0},
    "unauthorized-publisher": {"duration_ms": 30_000.0, "flood": 4},
    "token-replay-flood": {"duration_ms": 30_000.0, "flood": 4},
    "malicious-termination": {"duration_ms": 45_000.0, "flood": 4},
    "baseline-gossip": {"duration_ms": 20_000.0},
}


class TestRegistry:
    def test_lookup_unknown_name_lists_known_families(self):
        with pytest.raises(ConfigurationError) as excinfo:
            workload_family("meteor-strike")
        message = str(excinfo.value)
        assert "meteor-strike" in message
        for name in WORKLOADS:
            assert name in message

    def test_families_declare_valid_metadata(self):
        assert set(WORKLOADS) == {
            "churn-mobile",
            "unauthorized-publisher",
            "token-replay-flood",
            "malicious-termination",
            "baseline-gossip",
        }
        for family in WORKLOADS.values():
            assert family.kind in {"protocol", "adversarial", "baseline"}
            assert family.description
            # every accepted parameter has a default: accepts is the defaults' keys
            assert family.accepts == frozenset(family.defaults) != frozenset(), family.name

    def test_resolve_overlays_defaults_and_rejects_unknowns(self):
        family = workload_family("churn-mobile")
        resolved = family.resolve({"entities": 5})
        assert resolved["entities"] == 5
        assert resolved["brokers"] == family.defaults["brokers"]
        with pytest.raises(ConfigurationError) as excinfo:
            family.resolve({"fanout": 3})
        assert "fanout" in str(excinfo.value)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(_CHEAP))
    def test_two_runs_are_bit_identical(self, name):
        family = workload_family(name)
        params = _CHEAP[name]
        assert family.run(dict(params), seed=11) == family.run(
            dict(params), seed=11
        )


class TestAdversarialDefenses:
    """The §5.2 stories the campaign snapshots are built to evidence."""

    def test_unauthorized_publisher_is_terminated_silently(self):
        metrics = workload_family("unauthorized-publisher").run(
            dict(_CHEAP["unauthorized-publisher"]), seed=3
        )
        assert metrics["attack"]["attempts"] > 0
        # three strikes: the broker discards, counts, and terminates
        assert metrics["defense"]["violations"] == 3
        assert metrics["defense"]["terminated"] >= 1
        assert metrics["defense"]["attacker_blacklisted"] is True
        # the tracker never believes a forged FAILED verdict
        assert metrics["forged_failed_seen"] == 0
        assert metrics["alls_well_received"] > 0

    def test_token_replay_is_rejected_before_any_crypto(self):
        metrics = workload_family("token-replay-flood").run(
            dict(_CHEAP["token-replay-flood"]), seed=3
        )
        attack, defense = metrics["attack"], metrics["defense"]
        assert attack["captured"] > 0
        assert attack["replays"] > 0
        # §4.1 constrained topics: replays die before token verification
        assert attack["token_verifies_during_flood"] == 0
        assert defense["rejected_constrained"] > 0
        assert defense["terminated"] >= 1

    def test_malicious_termination_does_not_block_real_recovery(self):
        metrics = workload_family("malicious-termination").run(
            dict(_CHEAP["malicious-termination"]), seed=3
        )
        assert metrics["defense"]["violations"] == 3
        assert metrics["defense"]["terminated"] >= 1
        # the genuine churn cycle still detects and recovers
        assert metrics["recovery"]["count"] >= 1
