"""Smoke tests: every example script runs to completion and prints what
its docstring promises.  Keeps the examples from rotting as the library
evolves."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    argv = sys.argv
    try:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "entity registered" in out
        assert "ALLS_WELL" in out
        assert "mean end-to-end trace latency" in out

    def test_grid_service_monitor(self, capsys):
        out = run_example("grid_service_monitor.py", capsys)
        assert "final=FAILED" in out
        assert "final=SHUTDOWN" in out
        assert "final=READY" in out
        assert "failure declared" in out

    def test_secure_fleet(self, capsys):
        out = run_example("secure_fleet.py", capsys)
        assert "trace key received = True" in out
        assert "TDN ignored the discovery request" in out
        assert "0 readable without the trace key" in out
        assert "terminated = True" in out

    def test_baseline_comparison(self, capsys):
        # patch the populations before execution so the test stays quick
        path = EXAMPLES / "baseline_comparison.py"
        source = path.read_text()
        assert "populations=(10, 20, 40)" in source and "population=16" in source
        source = source.replace("populations=(10, 20, 40)", "populations=(4, 6)")
        source = source.replace("population=16", "population=6")
        namespace = {"__name__": "__main__", "__file__": str(path)}
        exec(compile(source, str(path), "exec"), namespace)
        out = capsys.readouterr().out
        assert "all-pairs msgs/s" in out
        assert "gossip" in out

    def test_availability_analytics(self, capsys):
        out = run_example("availability_analytics.py", capsys)
        assert "uptime %" in out
        assert "2 outages" in out
        assert "expected RTT" in out
        assert "persistent store:" in out
        assert "availability report" in out
        assert "session.created" in out  # journal evidence reached the store

    def test_chaos_recovery(self, capsys):
        out = run_example("chaos_recovery.py", capsys)
        assert "fault.injected" in out
        assert "recovery.completed" in out
        assert "failures detected: 1, recoveries completed: 1" in out
        assert "detection -> re-registration latency" in out
        assert "after the crash" in out
