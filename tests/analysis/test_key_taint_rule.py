"""CRY02 — flow-sensitive key-material taint over the fixture packages."""

from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.runner import select_checkers

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def cry02(package):
    findings = analyze_paths([FIXTURES / package], select_checkers(["CRY02"]))
    return [(f.path.rsplit("/", 1)[-1], f.line, f.message) for f in findings]


class TestKeyleakFixture:
    def test_cross_module_flow_into_wire_sink(self):
        findings = cry02("keyleak")
        assert (
            "announce.py",
            9,
            "key material from 'SymmetricKey' flows into a .publish() wire sink",
        ) in findings

    def test_one_hop_flow_through_helper_parameter(self):
        messages = [message for _, _, message in cry02("keyleak")]
        assert any(
            "flows through parameter 'material'" in message
            and "journal .record() sink" in message
            for message in messages
        )

    def test_nothing_flagged_in_the_source_modules(self):
        # the source (kdc.py) and the helper (emitter.py) are not at fault;
        # both findings anchor at the announce.py call sites
        assert {name for name, _, _ in cry02("keyleak")} == {"announce.py"}


class TestSanitizedFixture:
    def test_digest_and_fingerprint_flows_are_clean(self):
        assert cry02("sanitized") == []


class TestShadowingCry01:
    def test_project_run_drops_duplicate_cry01(self, tmp_path):
        # a direct name-at-sink leak is one finding: CRY02's (CRY01 has no
        # key-material arm any more, so there is nothing to de-duplicate)
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "leak.py").write_text(
            "def f(journal, trace_key):\n"
            "    journal.record('keydist', key=trace_key)\n"
        )
        findings = analyze_paths([pkg], select_checkers(["CRY01", "CRY02"]))
        assert [f.rule for f in findings] == ["CRY02"]

    def test_cipher_shape_findings_survive_the_dedup(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "cipher.py").write_text(
            "def f(cipher, block):\n"
            "    return cipher.encrypt(block, iv=b'0000')\n"
        )
        findings = analyze_paths([pkg], select_checkers(["CRY01", "CRY02"]))
        assert [f.rule for f in findings] == ["CRY01"]
        assert "constant IV" in findings[0].message
