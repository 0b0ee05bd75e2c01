"""Wildcard topic discovery and bulk tracking."""

import pytest

from repro import build_deployment
from repro.tdn.query import DiscoveryQuery, DiscoveryRestrictions
from repro.tracing.traces import TraceType
from tests.support import run_process


@pytest.fixture
def dep():
    return build_deployment(broker_ids=["b1", "b2"], seed=1100)


def start_fleet(dep, names, **kwargs):
    entities = []
    for name in names:
        entity = dep.add_traced_entity(name, **kwargs)
        entity.start("b1")
        entities.append(entity)
    dep.sim.run(until=5_000)
    return entities


class TestQueryPatterns:
    def test_pattern_detection(self):
        assert DiscoveryQuery.for_pattern("compute-*").is_pattern
        assert not DiscoveryQuery.for_entity("compute-1").is_pattern

    def test_pattern_matching(self):
        query = DiscoveryQuery.for_pattern("compute-*")
        assert query.matches("Availability/Traces/compute-1")
        assert not query.matches("Availability/Traces/storage-1")

    def test_pattern_rejects_slash(self):
        from repro.errors import DiscoveryError

        with pytest.raises(DiscoveryError):
            DiscoveryQuery.for_pattern("a/b")

    def test_liveness_spelling_supports_wildcards(self):
        query = DiscoveryQuery.parse("/Liveness/compute-?")
        assert query.is_pattern
        assert query.matches("Availability/Traces/compute-7")


class TestWildcardDiscovery:
    def test_discover_all_returns_matching(self, dep):
        start_fleet(dep, ["compute-1", "compute-2", "storage-1"])
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        advertisements = run_process(dep.sim, 
            dep.tdn.discover_all(
                DiscoveryQuery.for_pattern("compute-*"),
                tracker.credentials.certificate,
            )
        )
        names = sorted(str(ad.entity_id) for ad in advertisements)
        assert names == ["compute-1", "compute-2"]

    def test_restrictions_filter_silently(self, dep):
        dep.add_traced_entity("compute-open").start("b1")
        restricted = dep.add_traced_entity(
            "compute-private",
            restrictions=DiscoveryRestrictions.allow_only("somebody-else"),
        )
        restricted.start("b1")
        dep.sim.run(until=5_000)
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        advertisements = run_process(dep.sim, 
            dep.tdn.discover_all(
                DiscoveryQuery.for_pattern("compute-*"),
                tracker.credentials.certificate,
            )
        )
        assert [str(ad.entity_id) for ad in advertisements] == ["compute-open"]

    def test_no_match_returns_empty(self, dep):
        start_fleet(dep, ["compute-1"])
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        advertisements = run_process(dep.sim, 
            dep.tdn.discover_all(
                DiscoveryQuery.for_pattern("gpu-*"),
                tracker.credentials.certificate,
            )
        )
        assert advertisements == []


class TestBulkTracking:
    def test_track_matching_tracks_whole_fleet(self, dep):
        start_fleet(dep, ["compute-1", "compute-2", "compute-3", "db-1"])
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        proc = tracker.track_matching("compute-*")
        dep.sim.run(until=40_000)
        tracked = proc.value
        assert len(tracked) == 3
        seen = {t.entity_id for t in tracker.traces_of_type(TraceType.ALLS_WELL)}
        assert seen == {"compute-1", "compute-2", "compute-3"}

    def test_track_matching_skips_already_tracked(self, dep):
        start_fleet(dep, ["compute-1", "compute-2"])
        tracker = dep.add_tracker("w")
        tracker.connect("b2")
        tracker.track("compute-1")
        dep.sim.run(until=8_000)
        proc = tracker.track_matching("compute-*")
        dep.sim.run(until=15_000)
        assert [str(ad.entity_id) for ad in proc.value] == ["compute-2"]
