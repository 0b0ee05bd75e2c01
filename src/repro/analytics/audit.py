"""Audit-completeness validator: every mutation must leave journal evidence.

The paper's authorization story only holds if availability-affecting
state mutations are *accountable*: a session that was created, a client
that was terminated, a trace key that was re-distributed must each be
reconstructible from the persistent record, not just from in-memory
counters.  This module enforces that as an equality check — for each
:class:`EvidenceRule`, the number of mutations the instruments counted
must equal the number of journal records carrying the rule's evidence
kind.  A shortfall means a code path mutated state without writing its
evidence record; a surplus means evidence was fabricated or
double-written.  Both fail the gate.

:func:`assert_audit_complete` is wired into the chaos-scenario and
campaign test suites, so every mutation path the fault catalog exercises
is audited on every CI run (see docs/ANALYTICS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.errors import AuditIncompleteError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deployment import Deployment


@dataclass(frozen=True, slots=True)
class EvidenceRule:
    """One mutation counter that must be matched by journal evidence."""

    #: Short rule identifier, e.g. ``"sessions"``.
    name: str
    #: Human description of the state mutation being audited.
    mutation: str
    #: Journal record kind that constitutes evidence for one mutation.
    evidence_kind: str
    #: Where the mutation count comes from, for the failure message.
    counted_by: str
    #: Extracts the mutation count from a deployment.
    count: Callable[["Deployment"], int]


def _metrics_counter(name: str) -> Callable[["Deployment"], int]:
    return lambda dep: dep.metrics.counter_value(name)


def _faults_injected(dep: "Deployment") -> int:
    return sum(
        value
        for name, value in dep.metrics.snapshot().get("counters", {}).items()
        if name.startswith("faults.injected.")
    )


def _faults_reverted(dep: "Deployment") -> int:
    # The controller tracks reverts implicitly: every injection bumps the
    # ``faults.active`` gauge and every revert decrements it.
    return _faults_injected(dep) - int(dep.metrics.gauge_value("faults.active"))


#: The audited mutation surface.  Every rule pairs an instrument that
#: code *already* increments with the journal kind its mutation path
#: must write; tests prove the gate trips when a write is suppressed.
DEFAULT_RULES: tuple[EvidenceRule, ...] = (
    EvidenceRule(
        name="sessions",
        mutation="trace session registered",
        evidence_kind="session.created",
        counted_by="metrics counter 'trace.sessions_created'",
        count=_metrics_counter("trace.sessions_created"),
    ),
    EvidenceRule(
        name="keys",
        mutation="trace key (re-)distributed to trackers",
        evidence_kind="key.distributed",
        counted_by="metrics counter 'trace.keys_distributed'",
        count=_metrics_counter("trace.keys_distributed"),
    ),
    EvidenceRule(
        name="violations",
        mutation="authorization/DoS violation recorded against a client",
        evidence_kind="violation",
        counted_by="metrics counter 'broker.violations'",
        count=_metrics_counter("broker.violations"),
    ),
    EvidenceRule(
        name="terminations",
        mutation="client forcibly terminated",
        evidence_kind="terminated",
        counted_by="metrics counter 'broker.dos.terminated'",
        count=_metrics_counter("broker.dos.terminated"),
    ),
    EvidenceRule(
        name="failovers",
        mutation="entity failed over to a surviving broker",
        evidence_kind="fault.failover",
        counted_by="metrics counter 'faults.failovers'",
        count=_metrics_counter("faults.failovers"),
    ),
    EvidenceRule(
        name="faults-injected",
        mutation="fault injected into the deployment",
        evidence_kind="fault.injected",
        counted_by="sum of metrics counters 'faults.injected.*'",
        count=_faults_injected,
    ),
    EvidenceRule(
        name="faults-reverted",
        mutation="fault reverted",
        evidence_kind="fault.reverted",
        counted_by="'faults.injected.*' total minus the 'faults.active' gauge",
        count=_faults_reverted,
    ),
    EvidenceRule(
        name="recoveries-detected",
        mutation="entity failure detected by the recovery probe",
        evidence_kind="recovery.detected",
        counted_by="metrics counter 'trace.recovery.detected'",
        count=_metrics_counter("trace.recovery.detected"),
    ),
    EvidenceRule(
        name="recoveries-completed",
        mutation="entity re-registered after a detected failure",
        evidence_kind="recovery.completed",
        counted_by="metrics counter 'trace.recovery.completed'",
        count=_metrics_counter("trace.recovery.completed"),
    ),
)


@dataclass(frozen=True, slots=True)
class AuditFinding:
    """One rule's outcome: mutation count versus journal evidence count."""

    rule: EvidenceRule
    mutations: int
    evidence: int

    @property
    def complete(self) -> bool:
        """Whether every counted mutation has exactly one evidence record."""
        return self.mutations == self.evidence

    def describe(self) -> str:
        """One-line human summary, actionable when incomplete."""
        if self.complete:
            return (
                f"[{self.rule.name}] ok: {self.mutations} mutation(s), "
                f"{self.evidence} '{self.rule.evidence_kind}' record(s)"
            )
        if self.evidence < self.mutations:
            missing = self.mutations - self.evidence
            return (
                f"[{self.rule.name}] {missing} {self.rule.mutation} mutation(s) "
                f"have no '{self.rule.evidence_kind}' journal evidence "
                f"({self.mutations} counted by {self.rule.counted_by}, "
                f"{self.evidence} journal record(s) found) — the mutation path "
                f"must journal a '{self.rule.evidence_kind}' record"
            )
        surplus = self.evidence - self.mutations
        return (
            f"[{self.rule.name}] {surplus} surplus '{self.rule.evidence_kind}' "
            f"journal record(s) with no counted {self.rule.mutation} mutation "
            f"({self.evidence} record(s) vs {self.mutations} counted by "
            f"{self.rule.counted_by}) — evidence without a mutation is as "
            f"suspect as a mutation without evidence"
        )


def audit_deployment(
    deployment: "Deployment",
    rules: Iterable[EvidenceRule] = DEFAULT_RULES,
    journal_kinds: Mapping[str, int] | None = None,
) -> list[AuditFinding]:
    """Evaluate every rule against the deployment; return all findings.

    ``journal_kinds`` overrides where evidence counts come from (the
    analytics store's persisted ``kinds()``, say, instead of the live
    journal) so the gate can run against a snapshot.
    """
    kinds = (
        dict(journal_kinds)
        if journal_kinds is not None
        else deployment.journal.kinds()
    )
    return [
        AuditFinding(
            rule=rule,
            mutations=rule.count(deployment),
            evidence=kinds.get(rule.evidence_kind, 0),
        )
        for rule in rules
    ]


def assert_audit_complete(
    deployment: "Deployment",
    rules: Iterable[EvidenceRule] = DEFAULT_RULES,
    journal_kinds: Mapping[str, int] | None = None,
) -> list[AuditFinding]:
    """Raise :class:`AuditIncompleteError` unless every rule balances.

    The exception message names each failing rule, the missing (or
    surplus) evidence kind, and both counts, so the offending mutation
    path can be found without re-running under a debugger.  Returns the
    findings on success for callers that want to log them.
    """
    findings = audit_deployment(deployment, rules=rules, journal_kinds=journal_kinds)
    failures = [f for f in findings if not f.complete]
    if failures:
        details = "\n  ".join(f.describe() for f in failures)
        raise AuditIncompleteError(
            f"audit incomplete — {len(failures)} rule(s) unbalanced:\n  {details}"
        )
    return findings
