"""SIM01 — blocking stdlib I/O inside simulation process generators."""

from repro.analysis.rules.sim_process import BlockingSimProcessChecker
from repro.analysis.runner import analyze_source

TRACING_PATH = "src/repro/tracing/example.py"


def sim01(source, path=TRACING_PATH):
    return analyze_source(source, path, [BlockingSimProcessChecker()])


PROCESS_WITH_SLEEP = """\
import time

def heartbeat_loop(sim):
    while True:
        time.sleep(0.5)
        yield sim.timeout(500.0)
"""

PROCESS_WITH_SOCKET = """\
import socket

def ping_loop(sim):
    sock = socket.socket()
    yield sim.timeout(1.0)
"""

PROCESS_WRITING_FILE = """\
def dump_loop(sim, path):
    with open(path, "w") as fh:
        fh.write("x")
    yield sim.timeout(1.0)
"""

COMPLIANT_PROCESS = """\
def heartbeat_loop(sim, entity):
    while True:
        yield sim.timeout(entity.interval_ms)
        entity.publish_heartbeat()
"""


class TestSIM01Fires:
    def test_time_sleep_in_generator(self):
        findings = sim01(PROCESS_WITH_SLEEP)
        assert [f.rule for f in findings] == ["SIM01"]
        assert "heartbeat_loop" in findings[0].message

    def test_socket_in_generator(self):
        findings = sim01(PROCESS_WITH_SOCKET)
        assert len(findings) == 1
        assert "socket" in findings[0].message

    def test_open_for_write_in_generator(self):
        findings = sim01(PROCESS_WRITING_FILE)
        assert len(findings) == 1

    def test_dynamic_open_mode_is_assumed_blocking(self):
        source = "def p(sim, mode):\n    open('x', mode)\n    yield sim.timeout(1)\n"
        assert len(sim01(source)) == 1


class TestSIM01StaysQuiet:
    def test_compliant_process(self):
        assert sim01(COMPLIANT_PROCESS) == []

    def test_sleep_in_plain_function_is_out_of_scope(self):
        source = "import time\ndef helper():\n    time.sleep(0.1)\n"
        assert sim01(source) == []

    def test_read_only_open_is_fine(self):
        source = "def p(sim):\n    data = open('x').read()\n    yield sim.timeout(1)\n"
        assert sim01(source) == []

    def test_nested_def_does_not_make_outer_a_generator(self):
        source = (
            "import time\n"
            "def outer():\n"
            "    def inner():\n"
            "        yield 1\n"
            "    time.sleep(0.1)\n"
        )
        assert sim01(source) == []

    def test_out_of_scope_directory(self):
        assert sim01(PROCESS_WITH_SLEEP, path="src/repro/bench/example.py") == []

    def test_noqa_suppresses(self):
        source = (
            "import time\n"
            "def p(sim):\n"
            "    time.sleep(0.1)  # repro: noqa[SIM01]\n"
            "    yield sim.timeout(1)\n"
        )
        assert sim01(source) == []
