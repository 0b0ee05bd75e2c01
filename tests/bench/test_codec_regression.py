"""Codec regression gate: live per-codec counters vs the committed seed.

``benchmarks/results/codec_seed.json`` records what the ping-heavy
scenario costs under each wire codec (wire bytes, forwarding work,
charged token verification) and what it delivers.  The run is
bit-identical per seed, so the gate is exact.  To re-seed after an
*intentional* change::

    PYTHONPATH=src python -m repro metrics --codec-smoke \
        > benchmarks/results/codec_seed.json
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.util.snapshots import snapshot_drift

SEED_FILE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    / "codec_seed.json"
)


@pytest.fixture(scope="module")
def live_snapshot():
    """One run of the command the ``bench-smoke`` CI step pipes to ``diff -u``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["metrics", "--codec-smoke"]) == 0
    return json.loads(stdout.getvalue())


@pytest.fixture(scope="module")
def seed_snapshot():
    return json.loads(SEED_FILE.read_text())


class TestAgainstCommittedSeed:
    def test_no_drift(self, live_snapshot, seed_snapshot):
        findings = snapshot_drift(live_snapshot, seed_snapshot)
        assert not findings, "\n".join(findings)

    def test_compact_codec_pays_off(self, live_snapshot):
        before = live_snapshot["codecs"]["json"]
        after = live_snapshot["codecs"]["compact"]
        # acceptance bar (ISSUE 6 / docs/WIRE_FORMAT.md): >= 25% byte cut
        assert after["transport.bytes.sent"] <= 0.75 * before["transport.bytes.sent"]
        # the memo must absorb broker re-encodes: every forwarded frame hits
        assert after["codec.encode.memo.hit"] >= after["broker.msgs.forwarded_out"]
        # a codec swap must never change detection semantics
        for side in (before, after):
            assert side["tracker.detection.latency_ms.count"] == 0

    def test_codec_swap_changes_only_wire_bytes(self, live_snapshot):
        json_side = dict(live_snapshot["codecs"]["json"])
        compact_side = dict(live_snapshot["codecs"]["compact"])
        assert json_side.pop("transport.bytes.sent") != compact_side.pop(
            "transport.bytes.sent"
        )
        assert json_side == compact_side
