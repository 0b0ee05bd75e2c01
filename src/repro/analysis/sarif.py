"""SARIF 2.1.0 rendering of analysis findings.

SARIF (Static Analysis Results Interchange Format, OASIS) is what GitHub
code scanning ingests: the CI analyze job uploads this file via
``github/codeql-action/upload-sarif`` so findings annotate pull-request
diffs instead of dying in a job log.  One run, one driver
(``repro-analyze``), one rule entry per shipped checker, one result per
finding.

The shapes here follow the 2.1.0 schema strictly — ``tests/analysis``
validates the output against the published JSON Schema.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.base import SEVERITY_WARNING, Checker, Finding, cwd_relative

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_TOOL_NAME = "repro-analyze"


def _rule_entry(checker: Checker) -> dict:
    entry = {
        "id": checker.rule,
        "name": type(checker).__name__,
        "shortDescription": {"text": checker.description},
        "defaultConfiguration": {
            "level": "warning" if checker.severity == SEVERITY_WARNING else "error"
        },
    }
    if checker.default_hint:
        entry["help"] = {"text": checker.default_hint}
    return entry


def _result(finding: Finding, rule_index: dict[str, int]) -> dict:
    message = finding.message
    if finding.hint:
        message = f"{message} (hint: {finding.hint})"
    result = {
        "ruleId": finding.rule,
        "level": "warning" if finding.severity == SEVERITY_WARNING else "error",
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        # %SRCROOT% is the working directory (the repo root in CI)
                        "uri": cwd_relative(finding.path),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {"startLine": max(finding.line, 1)},
                }
            }
        ],
    }
    if finding.rule in rule_index:
        result["ruleIndex"] = rule_index[finding.rule]
    return result


def to_sarif(findings: Sequence[Finding], checkers: Sequence[Checker]) -> dict:
    """The SARIF 2.1.0 log object for one analysis run."""
    rules = [_rule_entry(checker) for checker in checkers]
    rule_index = {checker.rule: i for i, checker in enumerate(checkers)}
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {"name": _TOOL_NAME, "rules": rules}
                },
                "columnKind": "utf16CodeUnits",
                "results": [_result(finding, rule_index) for finding in findings],
            }
        ],
    }


def format_sarif(findings: Sequence[Finding], checkers: Sequence[Checker]) -> str:
    """:func:`to_sarif` rendered as stable, diff-friendly JSON text."""
    return json.dumps(to_sarif(findings, checkers), indent=2, sort_keys=True)
