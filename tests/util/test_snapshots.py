"""Tests for repro.util.snapshots: the one seed gate every harness shares."""

import copy
import json
import random

import pytest

from repro.seeds import RESULTS_DIR, SEED_GROUPS
from repro.util.snapshots import render_snapshot, snapshot_drift

#: Every committed JSON seed, from the one table that names them.
SEED_FILES = tuple(
    file
    for group in SEED_GROUPS.values()
    for file in group.files
    if file.endswith(".json")
)

#: A document of up to this many leaves is swept leaf by leaf; of a larger one (the
#: analytics store: 1 081 leaves of one event shape, 10 ms a slot) a fixed hundred are.
EXHAUSTIVE_LEAVES = 250


def leaf_slots(node, path=()):
    """Every ``(container path, key, display path)`` holding a scalar leaf."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaf_slots(value, (*path, key))
        else:
            parts = [f"[{p}]" if isinstance(p, int) else f".{p}" for p in (*path, key)]
            yield path, key, "".join(parts).lstrip(".")


def container_at(root, path):
    for key in path:
        root = root[key]
    return root


@pytest.mark.parametrize("seed_file", SEED_FILES)
def test_any_single_leaf_edit_is_named_and_identity_is_clean(seed_file):
    text = (RESULTS_DIR / seed_file).read_text()
    seed = json.loads(text)
    assert render_snapshot(seed) == text  # committed seeds are canonical
    assert snapshot_drift(copy.deepcopy(seed), seed) == []

    slots = list(leaf_slots(seed))
    assert slots
    if len(slots) > EXHAUSTIVE_LEAVES:
        slots = random.Random(len(slots)).sample(slots, 100)
    for path, key, shown in slots:
        changed = copy.deepcopy(seed)
        container_at(changed, path)[key] = "drifted"
        findings = snapshot_drift(changed, seed)
        assert findings == [
            f"{shown} drifted: \"drifted\" != seed "
            f"{json.dumps(container_at(seed, path)[key])}"
        ]

        # deleting a dict key loses exactly that path; deleting a list item
        # shifts its successors, so the lost path is the list's last index
        lost = shown if isinstance(key, str) else shown.rsplit("[", 1)[0] + "["
        deleted = copy.deepcopy(seed)
        del container_at(deleted, path)[key]
        assert any(
            f.startswith(lost) and " missing: " in f
            for f in snapshot_drift(deleted, seed)
        ), shown
        # the same pair seen from the other side: the leaf was added
        assert any(
            f.startswith(lost) and " added: " in f
            for f in snapshot_drift(seed, deleted)
        ), shown


def test_rendering_rules_decide_equality():
    """Drift is defined on the canonical rendering, not on ``==``."""
    assert snapshot_drift({"n": 1}, {"n": 1.0}) == ["n drifted: 1 != seed 1.0"]
    assert snapshot_drift({"t": (1, 2)}, {"t": [1, 2]}) == []
    assert snapshot_drift({"a": {}}, {"a": []}) == ["a drifted: {} != seed []"]
    assert snapshot_drift({"a": {"b": 1}}, {"a": 1}) == [
        "a missing: seed has 1",
        "a.b added: 1 (not in seed)",
    ]
