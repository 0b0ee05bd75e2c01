"""No orphan sessions survive any chaos scenario (paper §3.2).

A superseded, failed, silent, shut-down or disconnected session is
retired: it leaves the manager, its worker ends, and the broker drops
its entity->broker and interest handlers.  So at the end of every
catalog run, on every broker, the sessions, the active sessions, the
live workers and both kinds of session handler are equal in number.
"""

import pytest

from repro.faults.scenarios import ENTITY_BROKER, SCENARIOS, run_scenario
from tests.support import orphan_sessions, session_counts


@pytest.mark.parametrize("federation", [False, True], ids=["verbatim", "federated"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_scenario_leaves_an_orphan_session(name, federation):
    found = []
    run_scenario(name, federation=federation, deployment_probe=lambda dep: found.extend(
        orphan_sessions(dep)
    ))
    assert found == []


def test_entity_churn_ends_with_one_active_session():
    """The churned entity re-registered twice on its broker; only the
    last session is left."""
    counts = {}
    run_scenario(
        "entity-churn",
        seed=42,
        deployment_probe=lambda dep: counts.update(
            session_counts(dep.manager_of(ENTITY_BROKER))
        ),
    )
    assert counts == dict.fromkeys(counts, 1)
    assert set(counts) == {
        "sessions", "active", "workers", "session_handlers", "interest_handlers"
    }
