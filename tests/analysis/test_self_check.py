"""The shipped source tree must satisfy its own linter.

This is the contract the CI ``analyze`` job enforces; keeping it in the
tier-1 suite means a violation fails fast locally, with the finding text
in the assertion message.  A finding is fixed or carries a
``# repro: noqa[RULE]`` on its line; there is no other way to accept one.
"""

from pathlib import Path

from repro.analysis import format_findings_text

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src" / "repro"


def test_shipped_tree_is_clean(analyzed_tree):
    _index, findings, _seconds = analyzed_tree
    assert findings == [], "\n" + format_findings_text(findings)


def test_project_analysis_is_fast_enough(analyzed_tree):
    # the session's one full project run, indexing included, stays under 10 seconds
    _index, _findings, seconds = analyzed_tree
    assert seconds < 10.0


def test_shipped_tree_has_files_to_check():
    # guard against a silently-empty walk making the test above vacuous
    assert sum(1 for _ in SRC.rglob("*.py")) > 50
