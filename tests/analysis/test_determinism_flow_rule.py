"""DET03 — clock/RNG values flowing into ids, seeds, and wire frames."""

from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.runner import select_checkers

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def det03(path):
    return analyze_paths([path], select_checkers(["DET03"]))


def write_pkg(tmp_path, source, name="mod.py"):
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / name).write_text(source)
    return pkg


class TestClockframeFixture:
    def test_one_hop_clock_flow_into_encode(self):
        findings = det03(FIXTURES / "clockframe")
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path.endswith("framer.py")
        assert finding.line == 8
        assert (
            finding.message
            == "nondeterministic value from time.time() flows into a .encode() wire frame"
        )

    def test_sim_clock_path_is_clean(self):
        # safe_frame in the same fixture uses clock.now() — no finding there
        assert all(f.line != 13 for f in det03(FIXTURES / "clockframe"))


class TestSinkVocabulary:
    def test_seed_keyword_sink(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            "import time\n\n\ndef f(streams):\n    streams.reset(seed=time.time())\n",
        )
        assert len(det03(pkg)) == 1

    def test_message_id_keyword_sink(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            "import random\n\n\ndef f(make):\n    return make(message_id=random.randrange(9))\n",
        )
        (finding,) = det03(pkg)
        assert "random.randrange" in finding.message

    def test_seeded_random_is_deterministic(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            "import random\n\n\ndef f(codec):\n"
            "    rng = random.Random(7)\n"
            "    return codec.encode({'n': rng.random()})\n",
        )
        assert det03(pkg) == []

    def test_unseeded_random_taints(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            "import random\n\n\ndef f(codec):\n"
            "    rng = random.Random()\n"
            "    return codec.encode({'n': rng.random()})\n",
        )
        assert len(det03(pkg)) == 1

    def test_len_sanitizes(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            "import time\n\n\ndef f(codec):\n"
            "    stamp = str(time.time())\n"
            "    return codec.encode({'n': len(stamp)})\n",
        )
        assert det03(pkg) == []

