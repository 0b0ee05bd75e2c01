"""Deterministic fault injection (chaos) for the simulated fabric.

The paper claims availability tracking survives broker failures and lossy
links; this package makes that claim testable.  A :class:`FaultPlan` is a
declarative schedule of fault events (broker crash/restart, link
partition/heal, packet-loss and delay-spike windows, traced-entity
churn); a :class:`FaultController` executes it as a sim process, journals
every transition through ``repro.obs``, and measures detection →
re-registration latency into the ``trace.recovery_ms`` histogram.

Everything is driven by dedicated children of the deployment seed, so a
chaos run replays bit-identically and never perturbs the healthy fabric's
RNG draws.  See docs/FAULTS.md for the fault model and scenario catalog.
"""

from repro.faults.controller import FaultController
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.scenarios import (
    SCENARIOS,
    build_chaos_deployment,
    run_scenario,
    scenario_plan,
)

__all__ = [
    "FaultController",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "SCENARIOS",
    "build_chaos_deployment",
    "run_scenario",
    "scenario_plan",
]
