"""Unit tests for the audit-completeness validator (rule arithmetic)."""

import pytest

from repro.analytics import (
    DEFAULT_RULES,
    AuditFinding,
    EvidenceRule,
    assert_audit_complete,
    audit_deployment,
)
from repro.errors import AuditIncompleteError
from repro.obs import MetricsRegistry
from repro.obs.journal import EventJournal


class _Deployment:
    """The attribute surface DEFAULT_RULES reads, nothing more."""

    def __init__(self, counters=None):
        self.metrics = MetricsRegistry()
        self.journal = EventJournal()
        for name, value in (counters or {}).items():
            self.metrics.counter(name).inc(value)


def _rule(evidence_kind="session.created", mutations=1):
    return EvidenceRule(
        name="unit",
        mutation="unit mutation",
        evidence_kind=evidence_kind,
        counted_by="unit counter",
        count=lambda dep: mutations,
    )


class TestAuditFinding:
    def test_balanced(self):
        finding = AuditFinding(rule=_rule(), mutations=2, evidence=2)
        assert finding.complete
        assert "ok: 2 mutation(s)" in finding.describe()

    def test_shortfall_message_names_the_missing_kind(self):
        finding = AuditFinding(rule=_rule(), mutations=3, evidence=1)
        assert not finding.complete
        message = finding.describe()
        assert "2 unit mutation mutation(s)" in message
        assert "'session.created'" in message
        assert "must journal a 'session.created' record" in message

    def test_surplus_also_fails(self):
        finding = AuditFinding(rule=_rule(), mutations=0, evidence=2)
        assert not finding.complete
        assert "surplus" in finding.describe()


class TestAuditDeployment:
    def test_all_default_rules_evaluated(self):
        findings = audit_deployment(_Deployment())
        assert [f.rule.name for f in findings] == [r.name for r in DEFAULT_RULES]
        assert all(f.complete for f in findings)  # all-zero deployment balances

    def test_evidence_counts_come_from_the_journal(self):
        dep = _Deployment(counters={"trace.sessions_created": 2})
        dep.journal.record(1.0, "session.created", principal="a")
        dep.journal.record(2.0, "session.created", principal="b")
        findings = {f.rule.name: f for f in audit_deployment(dep)}
        assert findings["sessions"].mutations == 2
        assert findings["sessions"].evidence == 2

    def test_journal_kinds_override_audits_a_snapshot(self):
        dep = _Deployment(counters={"trace.sessions_created": 1})
        findings = audit_deployment(
            dep, journal_kinds={"session.created": 1}
        )
        assert {f.rule.name: f.complete for f in findings}["sessions"]

    def test_metrics_backed_rules(self):
        dep = _Deployment()
        dep.metrics.counter("faults.failovers").inc()
        dep.metrics.counter("faults.injected.broker_crash").inc(2)
        dep.metrics.gauge("faults.active").set(1)
        dep.journal.record(1.0, "fault.failover", principal="svc")
        dep.journal.record(1.0, "fault.injected", principal="b1")
        dep.journal.record(2.0, "fault.injected", principal="b1")
        dep.journal.record(3.0, "fault.reverted", principal="b1")
        findings = {f.rule.name: f for f in audit_deployment(dep)}
        assert findings["failovers"].complete
        assert findings["faults-injected"].mutations == 2
        assert findings["faults-reverted"].mutations == 1  # 2 injected, 1 active
        assert all(
            findings[name].complete
            for name in ("failovers", "faults-injected", "faults-reverted")
        )


class TestAssertAuditComplete:
    def test_returns_findings_when_balanced(self):
        findings = assert_audit_complete(_Deployment())
        assert len(findings) == len(DEFAULT_RULES)

    def test_raises_listing_every_unbalanced_rule(self):
        dep = _Deployment(counters={"trace.sessions_created": 1})
        dep.metrics.counter("broker.dos.terminated").inc()
        with pytest.raises(AuditIncompleteError) as excinfo:
            assert_audit_complete(dep)
        message = str(excinfo.value)
        assert "2 rule(s) unbalanced" in message
        assert "'session.created'" in message
        assert "'terminated'" in message
