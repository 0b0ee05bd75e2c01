"""The audit gate over the real mutation surface.

Two directions, both required by docs/ANALYTICS.md:

* every chaos scenario and every campaign-smoke point must audit clean —
  no state mutation without journal evidence (the smoke points are
  audited by the ``campaign`` seed producer, which ``tests/test_seeds.py``
  runs);
* the gate must *trip* when an evidence write is suppressed, with a
  message naming the missing kind (a gate that cannot fail gates
  nothing).
"""

import pytest

from repro import build_deployment
from repro.analytics import DEFAULT_RULES, AnalyticsStore, assert_audit_complete
from repro.errors import AuditIncompleteError
from repro.faults import SCENARIOS, run_scenario
from repro.obs.journal import EventJournal
from repro.seeds import SEED_GROUPS


class TestChaosScenariosAuditClean:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scenario_audits_complete(self, scenario):
        audited = []

        def probe(dep):
            findings = assert_audit_complete(dep)
            audited.append(len(findings))

        store = AnalyticsStore()
        run_scenario(scenario, analytics_store=store, deployment_probe=probe)
        assert audited == [len(DEFAULT_RULES)]
        assert store.count() > 0  # the evidence reached the persistent tier

    def test_snapshot_evidence_matches_live_journal(self):
        captured = {}

        def probe(dep):
            captured["journal_kinds"] = dep.journal.kinds()
            assert_audit_complete(dep)

        store = AnalyticsStore()
        run_scenario(
            "broker-crash", analytics_store=store, deployment_probe=probe
        )
        persisted = store.kinds()
        for kind, count in captured["journal_kinds"].items():
            assert persisted.get(kind) == count, (
                f"journal kind {kind!r} did not survive ingestion"
            )


class TestGateTripsOnSuppressedEvidence:
    """Satellite contract: suppress one journal write, fail actionably."""

    @pytest.fixture()
    def suppressed_session_evidence(self, monkeypatch):
        original = EventJournal.record

        def record(self, time_ms, kind, **kwargs):
            if kind == "session.created":
                return None  # a mutation path "forgot" its evidence write
            return original(self, time_ms, kind, **kwargs)

        monkeypatch.setattr(EventJournal, "record", record)

    def test_fails_naming_the_missing_kind(self, suppressed_session_evidence):
        dep = build_deployment(broker_ids=["b1", "b2"], seed=5)
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=5_000)

        with pytest.raises(AuditIncompleteError) as excinfo:
            assert_audit_complete(dep)
        message = str(excinfo.value)
        assert "session.created" in message
        assert "trace.sessions_created" in message  # points at the counter
        assert "must journal a 'session.created' record" in message

    def test_the_campaign_seed_producer_raises_before_writing(
        self, suppressed_session_evidence, tmp_path
    ):
        with pytest.raises(AuditIncompleteError, match="session.created"):
            SEED_GROUPS["campaign"].produce(tmp_path)
        assert not any(tmp_path.iterdir())

    def test_same_deployment_passes_without_suppression(self):
        dep = build_deployment(broker_ids=["b1", "b2"], seed=5)
        entity = dep.add_traced_entity("svc")
        entity.start("b1")
        dep.sim.run(until=5_000)
        assert_audit_complete(dep)
