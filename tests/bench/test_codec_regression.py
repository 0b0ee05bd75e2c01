"""What the codec seed (ping-heavy scenario, once per wire codec) must show.

The byte-exact comparison with the committed seed is ``tests/test_seeds.py``;
these read the same cached run and hold the claims the document exists for.
"""

import pytest


@pytest.fixture(scope="module")
def live_snapshot(live_seed):
    return live_seed("codec")


class TestAgainstCommittedSeed:
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
