"""Framework behavior: noqa suppression, import resolution, finding shape."""

import pytest

from repro.analysis.base import FileContext, Finding
from repro.analysis.runner import analyze_source
from repro.errors import ConfigurationError

SIM_PATH = "src/repro/sim/example.py"


class TestNoqaParsing:
    def test_bare_noqa_suppresses_every_rule(self):
        ctx = FileContext(SIM_PATH, "x = 1  # repro: noqa\n")
        assert ctx.suppressed("DET01", 1)
        assert ctx.suppressed("ERR01", 1)

    def test_bracketed_noqa_suppresses_only_named_rules(self):
        ctx = FileContext(SIM_PATH, "x = 1  # repro: noqa[DET01]\n")
        assert ctx.suppressed("DET01", 1)
        assert not ctx.suppressed("ERR01", 1)

    def test_multiple_rules_in_one_comment(self):
        ctx = FileContext(SIM_PATH, "x = 1  # repro: noqa[DET01, ERR01]\n")
        assert ctx.suppressed("DET01", 1)
        assert ctx.suppressed("ERR01", 1)
        assert not ctx.suppressed("OBS01", 1)

    def test_rule_ids_are_case_insensitive(self):
        ctx = FileContext(SIM_PATH, "x = 1  # repro: noqa[det01]\n")
        assert ctx.suppressed("DET01", 1)

    def test_noqa_applies_only_to_its_own_line(self):
        ctx = FileContext(SIM_PATH, "x = 1  # repro: noqa\ny = 2\n")
        assert not ctx.suppressed("DET01", 2)

    def test_trailing_prose_after_bracket_is_allowed(self):
        ctx = FileContext(SIM_PATH, "x = 1  # repro: noqa[DET01] calibration helper\n")
        assert ctx.suppressed("DET01", 1)

    def test_plain_ruff_noqa_is_not_a_repro_noqa(self):
        ctx = FileContext(SIM_PATH, "x = 1  # noqa: F401\n")
        assert not ctx.suppressed("DET01", 1)


class TestImportResolution:
    def test_plain_import(self):
        ctx = FileContext(SIM_PATH, "import time\ntime.monotonic()\n")
        call = ctx.tree.body[1].value
        assert ctx.resolve(call.func) == "time.monotonic"

    def test_aliased_import(self):
        ctx = FileContext(SIM_PATH, "import time as t\nt.time()\n")
        call = ctx.tree.body[1].value
        assert ctx.resolve(call.func) == "time.time"

    def test_from_import_with_alias(self):
        ctx = FileContext(
            SIM_PATH, "from time import monotonic as mono\nmono()\n"
        )
        call = ctx.tree.body[1].value
        assert ctx.resolve(call.func) == "time.monotonic"

    def test_dotted_import_binds_the_top_package(self):
        ctx = FileContext(
            SIM_PATH, "import pkg.helpers\nimport pkg.helpers as h\npkg.helpers.dump()\nh.dump()\n"
        )
        plain, aliased = (stmt.value for stmt in ctx.tree.body[2:])
        assert ctx.resolve(plain.func) == "pkg.helpers.dump"
        assert ctx.resolve(aliased.func) == "pkg.helpers.dump"

    def test_self_rooted_chain_keeps_attribute_dotted_path(self):
        ctx = FileContext(SIM_PATH, "def f(self):\n    return self.rng.random()\n")
        call = ctx.tree.body[0].body[0].value
        # `self` is a local name, but the chain through it is not a module
        # origin the linter can ban; resolve() keeps going (self.rng.random)
        # which never matches a banned dotted origin.
        assert ctx.resolve(call.func) == "self.rng.random"


class TestFinding:
    def test_render_includes_location_rule_and_hint(self):
        finding = Finding("DET01", "error", "a.py", 3, "bad", hint="fix it")
        assert finding.render() == "a.py:3: DET01 [error] bad (hint: fix it)"

    def test_to_dict_matches_stable_schema(self):
        finding = Finding("ERR01", "error", "a.py", 9, "msg", hint="h")
        assert finding.to_dict() == {
            "rule": "ERR01",
            "severity": "error",
            "path": "a.py",
            "line": 9,
            "message": "msg",
            "hint": "h",
        }


class TestAnalyzeSource:
    def test_clean_source_yields_no_findings(self):
        assert analyze_source("x = 1\n", SIM_PATH) == []

    def test_syntax_errors_surface_as_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            analyze_source("def broken(:\n", SIM_PATH)

    def test_findings_sorted_by_line(self):
        source = (
            "import time\n"
            "def late():\n"
            "    return time.time()\n"
            "def early():\n"
            "    return time.monotonic()\n"
        )
        findings = analyze_source(source, SIM_PATH)
        lines = [f.line for f in findings]
        assert lines == sorted(lines) and len(findings) == 2
