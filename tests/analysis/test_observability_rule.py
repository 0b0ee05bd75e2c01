"""OBS01 — instrument names must match ``<family>.<noun>[.<detail>]``."""

from repro.analysis.rules.observability import KNOWN_FAMILIES, InstrumentNameChecker
from repro.analysis.runner import analyze_source

BROKER_PATH = "src/repro/messaging/example.py"


def obs01(source, path=BROKER_PATH):
    return analyze_source(source, path, [InstrumentNameChecker()])


class TestOBS01Fires:
    def test_undocumented_family(self):
        findings = obs01("def f(metrics):\n    metrics.counter('bogus.msgs').inc()\n")
        assert [f.rule for f in findings] == ["OBS01"]
        assert "bogus" in findings[0].message

    def test_retired_frame_family(self):
        """``frame.pool.*`` went with the frame pool; the family went with it."""
        findings = obs01("def f(metrics):\n    metrics.counter('frame.pool.hit').inc()\n")
        assert [f.rule for f in findings] == ["OBS01"]
        assert "'frame'" in findings[0].message and "not documented" in findings[0].message

    def test_single_segment_name(self):
        findings = obs01("def f(metrics):\n    metrics.counter('broker').inc()\n")
        assert len(findings) == 1
        assert "not lowercase dotted" in findings[0].message

    def test_uppercase_name(self):
        findings = obs01("def f(metrics):\n    metrics.gauge('Broker.Inflight')\n")
        assert len(findings) == 1

    def test_fstring_without_literal_family_prefix(self):
        source = "def f(metrics, name):\n    metrics.histogram(f'{name}.latency')\n"
        findings = obs01(source)
        assert len(findings) == 1
        assert "literal" in findings[0].message

    def test_fstring_with_undocumented_family(self):
        source = "def f(metrics, op):\n    metrics.counter(f'nosuch.ops.{op}')\n"
        assert len(obs01(source)) == 1

    def test_timer_names_are_checked_too(self):
        source = "def f(registry, clock):\n    registry.timer('nope', clock)\n"
        assert len(obs01(source)) == 1


class TestOBS01StaysQuiet:
    def test_documented_families_pass(self):
        for family in sorted(KNOWN_FAMILIES):
            source = f"def f(metrics):\n    metrics.counter('{family}.events.total')\n"
            assert obs01(source) == [], family

    def test_two_segment_names_pass(self):
        assert obs01("def f(metrics):\n    metrics.histogram('broker.fanout')\n") == []

    def test_fstring_with_documented_prefix_passes(self):
        source = "def f(metrics, op):\n    metrics.counter(f'crypto.ops.{op}').inc()\n"
        assert obs01(source) == []

    def test_variable_names_are_skipped(self):
        source = "def f(metrics, name):\n    metrics.histogram(name)\n"
        assert obs01(source) == []

    def test_non_registry_receivers_are_skipped(self):
        source = "def f(shop):\n    shop.counter('cash register')\n"
        assert obs01(source) == []

    def test_noqa_suppresses(self):
        source = "def f(metrics):\n    metrics.counter('bogus.msgs')  # repro: noqa[OBS01]\n"
        assert obs01(source) == []
