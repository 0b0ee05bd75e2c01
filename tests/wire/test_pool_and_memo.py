"""Memoized sizing behaviour (the hot-path bugfix).

Before the codec seam, every send re-rendered the full envelope — a
message forwarded over N links was encoded N times.  These tests pin the
fix: one encode per message in a network's :class:`SizeMemo`,
exact derived frame sizes, and a memo that stays bounded.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.messaging.message import Message, RoutedFrame
from repro.messaging.topics import Topic
from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.transport.link import Link
from repro.transport.tcp import tcp_profile
from repro.wire import SizeMemo, frame_size, get_codec, json_codec
from repro.wire import codec as codec_module


def make_message(body="ping", message_id=1) -> Message:
    return Message(
        topic=Topic.of("Traces/abc/Liveness"), body=body, source="e-1", message_id=message_id
    )


class TestSizeMemo:
    def test_message_encoded_at_most_once_per_codec(self):
        metrics = MetricsRegistry()
        message = make_message()
        for codec_name in ("json", "compact"):
            memo = SizeMemo(metrics, codec_name)
            # a broker fanning the same message out over three links:
            # two routed frames plus a direct delivery
            frame_size(RoutedFrame(message, ("b-1", "b-2")), memo)
            frame_size(RoutedFrame(message, ("b-3",)), memo)
            frame_size(message, memo)
        # one encode per codec: the miss counter counts encodes
        assert metrics.counter("codec.encode.memo.miss").value == 2
        assert metrics.histogram("codec.encode.ms").count == 2

    def test_memo_hit_and_miss_counters(self):
        metrics = MetricsRegistry()
        memo = SizeMemo(metrics)
        message = make_message()
        frame_size(message, memo)
        frame_size(message, memo)
        assert metrics.counter("codec.encode.memo.miss").value == 1
        assert metrics.counter("codec.encode.memo.hit").value == 1

    def test_memoized_frame_size_matches_real_encode(self):
        message = make_message(body={"number": 7, "state": "Available"})
        frame = RoutedFrame(message, ("b-1", "b-2"))
        for codec_name in ("json", "compact"):
            memo = SizeMemo(MetricsRegistry(), codec_name)
            frame_size(message, memo)  # prime the memo
            assert frame_size(frame, memo) == len(memo.codec.encode(frame))

    def test_distinct_messages_are_not_aliased(self):
        memo = SizeMemo(MetricsRegistry())
        small = make_message(body="x", message_id=1)
        large = make_message(body="y" * 500, message_id=2)
        assert frame_size(large, memo) > frame_size(small, memo)

    def test_unpublished_messages_are_sized_but_not_kept(self):
        """Id 0 means "never entered a network": not unique, so not a key."""
        memo = SizeMemo(MetricsRegistry())
        small = make_message(body="x", message_id=0)
        large = make_message(body="y" * 500, message_id=0)
        assert frame_size(large, memo) > frame_size(small, memo)
        assert not memo.sizes

    def test_size_memo_is_a_bounded_lru(self):
        memo = SizeMemo(MetricsRegistry())
        with mock.patch.object(codec_module, "SIZE_MEMO_CAPACITY", 3):
            for message_id in (1, 2, 3):
                frame_size(make_message(message_id=message_id), memo)
            frame_size(make_message(message_id=1), memo)  # 1 is now newest
            frame_size(make_message(message_id=4), memo)
        assert list(memo.sizes) == [3, 1, 4]

    def test_encode_ms_observed_with_deterministic_cost(self):
        metrics = MetricsRegistry()
        frame_size(make_message(), SizeMemo(metrics, "compact"))
        histogram = metrics.histogram("codec.encode.ms")
        assert histogram.count == 1
        # modeled cost: strictly positive, far below a real millisecond
        assert 0.0 < histogram.mean < 1.0


class TestOverheadMemo:
    """A destination set is sized once per codec, not once per hop."""

    def test_fifty_frames_to_one_destination_set_encode_it_once(self, monkeypatch):
        encodes = []
        original = json_codec.canonical_encode

        def counting(value):
            encodes.append(value)
            return original(value)

        monkeypatch.setattr(json_codec, "canonical_encode", counting)
        monitor = Monitor()
        link = Link(
            Simulator(), tcp_profile(), receiver=lambda frame: None,
            rng=random.Random(0), monitor=monitor, memo=SizeMemo(monitor.metrics),
        )
        for body in range(50):
            link.send(RoutedFrame(make_message(body=body, message_id=body + 1), ("b-7",)))
        assert encodes == [["b-7"]]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.text(min_size=1, max_size=8), max_size=4).map(tuple),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from(["json", "compact"]),
    )
    def test_memoized_size_is_the_encoded_size_and_the_memo_is_bounded(
        self, destination_sets, codec_name
    ):
        """Oracle: a real encode.  Capacity 4 against up to 12 drawn sets
        (plus the empty one) runs the eviction, repeats run the hits."""
        memo = SizeMemo(MetricsRegistry(), codec_name)
        codec = get_codec(codec_name)
        message = make_message(body={"number": 7})
        with mock.patch.object(codec_module, "OVERHEAD_MEMO_CAPACITY", 4):
            for destinations in [(), *destination_sets, *destination_sets]:
                frame = RoutedFrame(message, destinations)
                assert frame_size(frame, memo) == len(codec.encode(frame))
                assert len(memo.overheads) <= 4

    def test_capacity_holds_at_its_real_value(self):
        memo = SizeMemo(MetricsRegistry())
        message = make_message()
        for index in range(codec_module.OVERHEAD_MEMO_CAPACITY + 10):
            frame_size(RoutedFrame(message, (f"b-{index}",)), memo)
        assert len(memo.overheads) == codec_module.OVERHEAD_MEMO_CAPACITY

    def test_list_destinations_are_coerced(self):
        memo = SizeMemo(MetricsRegistry())
        message = make_message()
        as_list = RoutedFrame(message, ["b-1", "b-2"])
        as_tuple = RoutedFrame(message, ("b-1", "b-2"))
        assert frame_size(as_list, memo) == frame_size(as_tuple, memo)
