"""CRY02 — flow-sensitive key-material taint over the fixture packages, and
its taint engine's propagation rules on one-module sources."""

from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.rules.key_taint import KeyMaterialFlowChecker
from repro.analysis.runner import analyze_source, select_checkers

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


class TestDottedImport:
    def test_call_through_a_dotted_import_is_flagged(self, tmp_path):
        # `import pkg.helpers` binds `pkg`, so the call resolves to the helper
        # and its sink-parameter summary applies, as it does for a from-import
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "helpers.py").write_text(
            "def dump(journal, k):\n    journal.record('x', blob=k)\n"
        )
        (pkg / "direct.py").write_text(
            "from pkg.helpers import dump\n\n\n"
            "def leak(journal, trace_key):\n    dump(journal, trace_key)\n"
        )
        (pkg / "dotted.py").write_text(
            "import pkg.helpers\n\n\n"
            "def leak(journal, trace_key):\n    pkg.helpers.dump(journal, trace_key)\n"
        )
        findings = analyze_paths([pkg], select_checkers(["CRY02"]))
        assert [(Path(f.path).name, f.line) for f in findings] == [
            ("direct.py", 5),
            ("dotted.py", 5),
        ]
        assert all("through parameter 'k'" in f.message for f in findings)


def flagged_lines(source):
    """Lines of one module CRY02 flags (the taint engine seen through its rule)."""
    return sorted({f.line for f in analyze_source(source, "mod.py", [KeyMaterialFlowChecker()])})


class TestPropagation:
    def test_assignment_chain(self):
        source = (
            "def f(journal):\n"
            "    a = SymmetricKey()\n"
            "    b = a\n"
            "    journal.record('x', blob=b)\n"
        )
        assert flagged_lines(source) == [4]

    def test_reassignment_clears(self):
        source = (
            "def f(journal):\n"
            "    a = SymmetricKey()\n"
            "    a = 1\n"
            "    journal.record('x', blob=a)\n"
        )
        assert flagged_lines(source) == []

    def test_sanitizer_stops_flow(self):
        source = (
            "def f(journal):\n"
            "    a = SymmetricKey()\n"
            "    b = fingerprint(a)\n"
            "    journal.record('x', blob=b)\n"
        )
        assert flagged_lines(source) == []

    def test_metadata_access_stops_flow(self):
        source = "def f(journal):\n    a = SymmetricKey()\n    journal.record('x', blob=a.size)\n"
        assert flagged_lines(source) == []

    def test_other_access_keeps_flow(self):
        source = (
            "def f(journal):\n    a = SymmetricKey()\n    journal.record('x', blob=a.material)\n"
        )
        assert flagged_lines(source) == [3]

    def test_call_args_propagate(self):
        source = "def f(journal):\n    a = SymmetricKey()\n    journal.record('x', blob=int(a))\n"
        assert flagged_lines(source) == [3]

    def test_containers_and_fstrings(self):
        for value in ("[a]", "{'k': a}", "f'x={a}'"):
            source = (
                f"def f(journal):\n    a = SymmetricKey()\n    journal.record('x', blob={value})\n"
            )
            assert flagged_lines(source) == [3], value

    def test_tuple_unpacking_is_elementwise(self):
        source = (
            "def f(journal):\n"
            "    a, b = SymmetricKey(), 1\n"
            "    journal.record('x', blob=b)\n"
            "    journal.record('x', blob=a)\n"
        )
        assert flagged_lines(source) == [4]

    def test_loop_carried_taint_reaches_sink(self):
        source = (
            "def f(journal, items):\n"
            "    a = 1\n"
            "    for _ in items:\n"
            "        journal.record('x', blob=a)\n"
            "        a = SymmetricKey()\n"
        )
        # second traversal of the loop body sees the carried assignment
        assert flagged_lines(source) == [4]

    def test_source_expr_names(self):
        source = "def f(journal, secret_key):\n    journal.record('x', blob=secret_key)\n"
        assert flagged_lines(source) == [2]


class TestReturnedTaint:
    def test_direct_and_via_assignment(self):
        for body in ("return SymmetricKey()", "a = SymmetricKey()\n    return a"):
            source = (
                f"def make():\n    {body}\n\n\n"
                "def use(journal):\n    journal.record('x', blob=make())\n"
            )
            (finding,) = analyze_source(source, "mod.py", [KeyMaterialFlowChecker()])
            assert "key material from 'SymmetricKey'" in finding.message, body

    def test_clean_return(self):
        source = "def make():\n    return 1\n\n\ndef use(journal):\n    journal.record('x', blob=make())\n"
        assert flagged_lines(source) == []


class TestSummaryTable:
    def test_returns_taint_summary(self):
        source = (
            "def make():\n    return SymmetricKey()\n\n\n"
            "def use(log):\n    log.info(make())\n"
        )
        (finding,) = analyze_source(source, "mod.py", [KeyMaterialFlowChecker()])
        assert (finding.line, finding.message) == (
            6,
            "key material from 'SymmetricKey' flows into a .info() sink",
        )

    def test_sink_params_summary(self):
        source = (
            "def dump(journal, material):\n    journal.record('x', blob=material)\n\n\n"
            "def use(journal, trace_key):\n    dump(journal, trace_key)\n"
        )
        (finding,) = analyze_source(source, "mod.py", [KeyMaterialFlowChecker()])
        assert finding.line == 6
        assert "through parameter 'material'" in finding.message
        assert "journal .record() sink inside the callee" in finding.message

    def test_one_hop_taint_through_helper(self):
        source = (
            "def make():\n    return SymmetricKey()\n\n\n"
            "def use(journal):\n    v = make()\n    journal.record('x', blob=v)\n"
        )
        assert flagged_lines(source) == [7]
