"""ERR01 — raise ReproError subclasses, not builtin exception types."""

from repro.analysis.rules.error_taxonomy import BuiltinRaiseChecker
from repro.analysis.runner import analyze_source

UTIL_PATH = "src/repro/util/example.py"


def err01(source, path=UTIL_PATH):
    return analyze_source(source, path, [BuiltinRaiseChecker()])


class TestERR01Fires:
    def test_raise_value_error(self):
        findings = err01("def f(x):\n    raise ValueError(f'bad {x}')\n")
        assert [f.rule for f in findings] == ["ERR01"]
        assert "ValueError" in findings[0].message
        assert "ValidationError" in findings[0].hint

    def test_raise_runtime_error(self):
        findings = err01("def f():\n    raise RuntimeError('nope')\n")
        assert len(findings) == 1

    def test_raise_key_error(self):
        assert len(err01("def f(k):\n    raise KeyError(k)\n")) == 1

    def test_bare_raise_of_builtin_class(self):
        assert len(err01("def f():\n    raise TypeError\n")) == 1

    def test_raise_from_is_still_flagged(self):
        source = (
            "def f(d, k):\n"
            "    try:\n"
            "        return d[k]\n"
            "    except KeyError as exc:\n"
            "        raise ValueError('missing') from exc\n"
        )
        assert len(err01(source)) == 1


class TestERR01StaysQuiet:
    def test_repro_error_subclasses_pass(self):
        source = (
            "from repro.errors import ValidationError\n"
            "def f(x):\n"
            "    raise ValidationError(f'bad {x}')\n"
        )
        assert err01(source) == []

    def test_not_implemented_error_is_the_abstract_method_idiom(self):
        source = "def f():\n    raise NotImplementedError\n"
        assert err01(source) == []

    def test_re_raise_without_exception_passes(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert err01(source) == []

    def test_noqa_suppresses(self):
        source = "def f():\n    raise ValueError('x')  # repro: noqa[ERR01]\n"
        assert err01(source) == []
