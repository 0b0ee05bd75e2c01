"""SARIF output: 2.1.0 structural contract GitHub code scanning ingests.

The full OASIS schema is not vendored; instead a JSON Schema subset
covering every property the upload path touches (version, driver, rules,
results, physical locations) is embedded here and enforced with
``jsonschema`` — same validation machinery, offline.
"""

import json
from pathlib import Path

import jsonschema

from repro.analysis.base import Finding
from repro.analysis.rules import default_checkers
from repro.analysis.sarif import SARIF_VERSION, format_sarif, to_sarif
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]

#: Subset of sarif-schema-2.1.0.json: required properties + types for the
#: parts of a log file ``upload-sarif`` consumes.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string", "format": "uri"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "columnKind": {
                        "enum": ["utf16CodeUnits", "unicodeCodePoints"]
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": ["artifactLocation"],
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            }
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def sample_findings():
    return [
        Finding(
            rule="WIRE01",
            severity="error",
            path=str(Path.cwd() / "src" / "repro" / "security" / "keydist.py"),
            line=33,
            message="message kind 'key_distribution' is produced here",
            hint="update the dispatchers",
        ),
        Finding(
            rule="CRY02",
            severity="warning",
            path="src/repro/tracing/entity.py",
            line=7,
            message="key material flows",
        ),
    ]


def _uri(result):
    return result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]


class TestSarifStructure:
    def test_validates_against_embedded_subset_schema(self):
        doc = to_sarif(sample_findings(), default_checkers())
        jsonschema.validate(doc, SARIF_SUBSET_SCHEMA)

    def test_empty_run_validates_too(self):
        jsonschema.validate(to_sarif([], default_checkers()), SARIF_SUBSET_SCHEMA)

    def test_version_and_driver(self):
        doc = to_sarif([], default_checkers())
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-analyze"
        assert [r["id"] for r in driver["rules"]] == [
            c.rule for c in default_checkers()
        ]

    def test_results_carry_location_and_level(self):
        doc = to_sarif(sample_findings(), default_checkers())
        wire, cry = doc["runs"][0]["results"]
        assert wire["ruleId"] == "WIRE01" and wire["level"] == "error"
        location = wire["locations"][0]["physicalLocation"]
        # absolute path made relative to the working directory, which %SRCROOT% names
        assert location["artifactLocation"]["uri"] == "src/repro/security/keydist.py"
        assert location["region"]["startLine"] == 33
        assert "(hint: update the dispatchers)" in wire["message"]["text"]
        assert cry["level"] == "warning"
        assert _uri(cry) == "src/repro/tracing/entity.py"  # relative: unchanged
        # outside the working directory: still relative to it
        outside = Finding(
            rule="DOC02",
            severity="error",
            path=str(Path.cwd().parent / "pkg" / "mod.py"),
            line=1,
            message="m",
        )
        (result,) = to_sarif([outside], default_checkers())["runs"][0]["results"]
        assert _uri(result) == "../pkg/mod.py"

    def test_absolute_paths_outside_src_are_cwd_relative(self, monkeypatch, capsys):
        # `repro analyze /abs/checkout/tests/... --sarif -` run from the checkout
        monkeypatch.chdir(REPO)
        fixture = REPO / "tests" / "analysis" / "fixtures" / "keyleak"
        assert main(["analyze", str(fixture), "--rules", "CRY02", "--sarif", "-"]) == 1
        out = capsys.readouterr().out
        results = json.loads(out[out.index('{\n  "$schema"') :])["runs"][0]["results"]
        assert {_uri(result) for result in results} == {
            "tests/analysis/fixtures/keyleak/announce.py"
        }

    def test_rule_index_points_into_rules_array(self):
        doc = to_sarif(sample_findings(), default_checkers())
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        for result in doc["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_format_sarif_is_stable_json(self):
        text = format_sarif(sample_findings(), default_checkers())
        assert json.loads(text)["version"] == "2.1.0"
        assert text == format_sarif(sample_findings(), default_checkers())
