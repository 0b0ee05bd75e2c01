"""WIRE01 — kind coverage, static-table drift, and field parity."""

from pathlib import Path

from repro.analysis import analyze_paths, index_paths
from repro.analysis.rules.wire_schema import (
    declared_kinds,
    encoder_attribute_reads,
    handled_kinds,
    produced_kinds,
    static_interned_strings,
    wire_dict_fields,
)
from repro.analysis.runner import select_checkers

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def wire01(path):
    return analyze_paths([path], select_checkers(["WIRE01"]))


class TestUnhandledKindFixture:
    def test_produced_but_unhandled_kind_is_an_error(self):
        findings = wire01(FIXTURES / "unhandled_kind")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.severity == "error"
        assert "'shutdown_notice'" in finding.message
        assert finding.path.endswith("producer.py")
        assert finding.line == 7  # the dict literal, not the constant def

    def test_handled_kind_is_not_flagged(self):
        messages = [f.message for f in wire01(FIXTURES / "unhandled_kind")]
        assert not any("'ping'" in m for m in messages)


class TestDeclaredKindFixture:
    def test_a_declaration_produces_and_handles_its_kind(self):
        index = index_paths([FIXTURES / "declared_kind"])
        # the untagged record declares nothing; the constant-tagged one resolves
        assert set(declared_kinds(index)) == {"heartbeat", "goodbye"}
        assert set(produced_kinds(index)) == {"heartbeat", "goodbye"}
        assert set(handled_kinds(index)) == {"heartbeat", "goodbye"}

    def test_declared_kinds_raise_no_finding(self):
        assert wire01(FIXTURES / "declared_kind") == []


class TestVocabularyExtraction:
    def test_fixture_produced_kinds_resolve_constants(self):
        sites = produced_kinds(index_paths([FIXTURES / "unhandled_kind"]))
        assert set(sites) == {"shutdown_notice", "ping"}

    def test_fixture_handled_kinds(self):
        sites = handled_kinds(index_paths([FIXTURES / "unhandled_kind"]))
        assert set(sites) == {"ping"}

    def test_real_tree_kind_vocabulary(self, analyzed_tree):
        index, _findings, _seconds = analyzed_tree
        produced = set(produced_kinds(index))
        handled = set(handled_kinds(index))
        # the protocol's core kinds are produced and dispatched on
        assert {"ping", "ping_response", "sym", "trace_key"} <= produced & handled
        # key_distribution is dispatched by topic; the receiver still
        # checks the kind before it opens the sealed payload
        assert produced <= handled

    def test_real_static_table_and_field_parity(self, analyzed_tree):
        index, _findings, _seconds = analyzed_tree
        compact = index.find_module("wire/compact.py")
        message_module = index.find_module("messaging/message.py")
        interned = static_interned_strings(compact)
        assert set(produced_kinds(index)) <= interned
        fields, extras = wire_dict_fields(message_module)
        assert fields == encoder_attribute_reads(compact)
        assert "destinations" in extras


class TestFieldParityFindings:
    def test_dropped_field_is_flagged_both_ways(self, tmp_path):
        pkg = tmp_path / "pkg" / "messaging"
        wire = tmp_path / "pkg" / "wire"
        for d in (pkg.parent, pkg, wire):
            d.mkdir(exist_ok=True)
            (d / "__init__.py").write_text("")
        (pkg / "message.py").write_text(
            "class Message:\n"
            "    def wire_dict(self):\n"
            "        return {'topic': self.topic, 'body': self.body}\n"
        )
        (wire / "compact.py").write_text(
            "def _encode_message_body(message, out):\n"
            "    out.append(message.topic)\n"
            "    out.append(message.signature)\n"
        )
        messages = [f.message for f in wire01(tmp_path)]
        assert any("'body' is never read by the compact codec" in m for m in messages)
        assert any("encodes attribute 'signature'" in m for m in messages)
