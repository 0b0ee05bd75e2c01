"""DET01 (wall clock / global RNG) and DET02 (set-iteration ordering)."""

from repro.analysis.rules.determinism import SetIterationChecker, WallClockChecker
from repro.analysis.runner import analyze_source

SIM_PATH = "src/repro/sim/example.py"
MESSAGING_PATH = "src/repro/messaging/example.py"


def det01(source, path=SIM_PATH):
    return analyze_source(source, path, [WallClockChecker()])


def det02(source, path=MESSAGING_PATH):
    return analyze_source(source, path, [SetIterationChecker()])


class TestDET01Fires:
    def test_time_time(self):
        # the read is flagged where it happens, whatever it then flows into
        for use in ("stamp = time.time()", "streams.reset(seed=time.time())"):
            findings = det01(f"import time\n{use}\n")
            assert [f.rule for f in findings] == ["DET01"]
            assert "time.time" in findings[0].message

    def test_datetime_now_via_from_import(self):
        findings = det01("from datetime import datetime\nnow = datetime.now()\n")
        assert len(findings) == 1

    def test_aliased_monotonic(self):
        findings = det01("from time import monotonic as mono\nt = mono()\n")
        assert len(findings) == 1

    def test_module_level_random(self):
        for use in ("x = random.random()", "make(message_id=random.randrange(9))"):
            findings = det01(f"import random\n{use}\n")
            assert len(findings) == 1
            assert "global RNG" in findings[0].message

    def test_unseeded_random_instance(self):
        for tail in ("", "frame = codec.encode({'n': rng.random()})\n"):
            findings = det01(f"import random\nrng = random.Random()\n{tail}")
            assert len(findings) == 1
            assert "unseeded" in findings[0].message


class TestDET01StaysQuiet:
    def test_seeded_random_instance_is_fine(self):
        assert det01("import random\nrng = random.Random(42)\n") == []

    def test_injected_rng_calls_are_fine(self):
        assert det01("def jitter(rng):\n    return rng.random()\n") == []

    def test_virtual_clock_reads_are_fine(self):
        assert det01("def now(sim):\n    return sim.clock.now()\n") == []

    def test_random_streams_module_is_exempt(self):
        source = "import random\nrng = random.Random()\n"
        assert det01(source, path="src/repro/sim/random.py") == []

    def test_noqa_suppresses(self):
        source = "import time\nstamp = time.time()  # repro: noqa[DET01]\n"
        assert det01(source) == []


class TestDET02Fires:
    def test_for_over_set_call(self):
        findings = det02("def route(ids):\n    for i in set(ids):\n        print(i)\n")
        assert [f.rule for f in findings] == ["DET02"]
        assert findings[0].severity == "warning"

    def test_for_over_set_literal(self):
        findings = det02("for x in {1, 2, 3}:\n    pass\n")
        assert len(findings) == 1

    def test_comprehension_over_set(self):
        findings = det02("out = [x for x in set(range(3))]\n")
        assert len(findings) == 1

    def test_set_union_iteration(self):
        findings = det02("def f(a, b):\n    for x in a.union(b):\n        pass\n")
        assert len(findings) == 1

    def test_keys_iteration(self):
        findings = det02("def f(d):\n    for k in d.keys():\n        pass\n")
        assert len(findings) == 1


class TestDET02StaysQuiet:
    def test_sorted_set_is_fine(self):
        assert det02("def f(ids):\n    for i in sorted(set(ids)):\n        pass\n") == []

    def test_list_iteration_is_fine(self):
        assert det02("for x in [1, 2]:\n    pass\n") == []

    def test_dict_iteration_is_fine(self):
        assert det02("def f(d):\n    for k in d:\n        pass\n") == []

    def test_out_of_scope_directory_is_fine(self):
        source = "for x in {1, 2}:\n    pass\n"
        assert det02(source, path="src/repro/bench/example.py") == []

    def test_noqa_suppresses(self):
        source = "def f(ids):\n    for i in set(ids):  # repro: noqa[DET02]\n        pass\n"
        assert det02(source) == []
