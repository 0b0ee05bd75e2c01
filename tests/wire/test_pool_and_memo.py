"""Frame pool and memoized-sizing behaviour (the hot-path bugfix).

Before the codec seam, every send re-rendered the full envelope — a
message forwarded over N links was encoded N times.  These tests pin the
fix: one encode per (codec, message), exact derived frame sizes, pooled
scratch buffers, and memo invalidation when the message-id counter rewinds.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.messaging.message import Message, RoutedFrame, reset_message_ids
from repro.messaging.topics import Topic
from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator
from repro.transport.link import Link
from repro.transport.tcp import tcp_profile
from repro.wire import codec as codec_module
from repro.wire import frame_size, get_codec, json_codec, register_codec, size_memo_stats
from repro.wire.pool import FramePool


def make_message(body="ping") -> Message:
    return Message(topic=Topic.of("Traces/abc/Liveness"), body=body, source="e-1")


class TestFramePool:
    def test_first_acquire_is_a_miss(self):
        pool = FramePool()
        pool.acquire()
        assert pool.misses == 1
        assert pool.hits == 0

    def test_release_then_acquire_reuses(self):
        pool = FramePool()
        buffer = pool.acquire()
        buffer.extend(b"leftover")
        pool.release(buffer)
        assert pool.free_count == 1
        again = pool.acquire()
        assert again is buffer
        assert len(again) == 0  # released buffers come back clean
        assert pool.hits == 1
        assert pool.reuses == 1

    def test_pool_is_bounded(self):
        pool = FramePool(max_buffers=2)
        buffers = [pool.acquire() for _ in range(4)]
        for buffer in buffers:
            pool.release(buffer)
        assert pool.free_count == 2

    def test_stats_snapshot(self):
        pool = FramePool()
        pool.release(pool.acquire())
        stats = pool.stats()
        assert stats["misses"] == 1
        assert stats["free"] == 1


class TestSizeMemo:
    def test_message_encoded_at_most_once_per_codec(self):
        reset_message_ids()
        message = make_message()
        for codec_name in ("json", "compact"):
            before = size_memo_stats().get(f"encodes.{codec_name}", 0)
            # a broker fanning the same message out over three links:
            # two routed frames plus a direct delivery
            frame_size(RoutedFrame(message, ("b-1", "b-2")), codec_name)
            frame_size(RoutedFrame(message, ("b-3",)), codec_name)
            frame_size(message, codec_name)
            after = size_memo_stats().get(f"encodes.{codec_name}", 0)
            assert after - before == 1

    def test_memo_hit_and_miss_counters(self):
        reset_message_ids()
        message = make_message()
        metrics = MetricsRegistry()
        frame_size(message, "json", metrics)
        frame_size(message, "json", metrics)
        assert metrics.counter("codec.encode.memo.miss").value == 1
        assert metrics.counter("codec.encode.memo.hit").value == 1

    def test_memoized_frame_size_matches_real_encode(self):
        reset_message_ids()
        message = make_message(body={"number": 7, "state": "Available"})
        frame = RoutedFrame(message, ("b-1", "b-2"))
        for codec_name in ("json", "compact"):
            codec = get_codec(codec_name)
            frame_size(message, codec_name)  # prime the memo
            assert frame_size(frame, codec_name) == len(codec.encode(frame))

    def test_reset_message_ids_clears_memo(self):
        reset_message_ids()
        frame_size(make_message(), "json")
        assert size_memo_stats()["entries"] >= 1
        reset_message_ids()
        assert size_memo_stats()["entries"] == 0

    def test_distinct_messages_are_not_aliased(self):
        reset_message_ids()
        small = make_message(body="x")
        large = make_message(body="y" * 500)
        assert frame_size(large, "json") > frame_size(small, "json")

    def test_encode_ms_observed_with_deterministic_cost(self):
        reset_message_ids()
        metrics = MetricsRegistry()
        frame_size(make_message(), "compact", metrics)
        histogram = metrics.histogram("codec.encode.ms")
        assert histogram.count == 1
        # modeled cost: strictly positive, far below a real millisecond
        assert 0.0 < histogram.mean < 1.0


class TestOverheadMemo:
    """A destination set is sized once per codec, not once per hop."""

    def test_fifty_frames_to_one_destination_set_encode_it_once(self, monkeypatch):
        reset_message_ids()
        encodes = []
        original = json_codec.canonical_encode

        def counting(value):
            encodes.append(value)
            return original(value)

        monkeypatch.setattr(json_codec, "canonical_encode", counting)
        link = Link(
            Simulator(), tcp_profile(), receiver=lambda frame: None,
            rng=random.Random(0), codec="json",
        )
        for body in range(50):
            link.send(RoutedFrame(make_message(body=body), ("b-7",)))
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
        reset_message_ids()
        codec = get_codec(codec_name)
        message = make_message(body={"number": 7})
        with mock.patch.object(codec_module, "OVERHEAD_MEMO_CAPACITY", 4):
            for destinations in [(), *destination_sets, *destination_sets]:
                frame = RoutedFrame(message, destinations)
                assert frame_size(frame, codec_name) == len(codec.encode(frame))
                assert len(codec_module._OVERHEAD_MEMO) <= 4

    def test_capacity_holds_at_its_real_value(self):
        reset_message_ids()
        message = make_message()
        for index in range(codec_module.OVERHEAD_MEMO_CAPACITY + 10):
            frame_size(RoutedFrame(message, (f"b-{index}",)), "json")
        assert len(codec_module._OVERHEAD_MEMO) == codec_module.OVERHEAD_MEMO_CAPACITY

    def test_list_destinations_are_coerced(self):
        reset_message_ids()
        message = make_message()
        as_list = RoutedFrame(message, ["b-1", "b-2"])
        assert frame_size(as_list, "json") == frame_size(
            RoutedFrame(message, ("b-1", "b-2")), "json"
        )

    def test_reregistered_name_is_sized_by_the_new_instance(self):
        class FixedOverheadCodec:
            name = "fixed-overhead-test"

            def __init__(self, overhead):
                self.overhead = overhead

            def encode(self, payload):
                return b"x" * 10

            def encode_into(self, payload, out):
                out.extend(self.encode(payload))
                return 10

            def decode(self, data):
                raise NotImplementedError

            def frame_overhead(self, frame):
                return self.overhead

        reset_message_ids()
        frame = RoutedFrame(make_message(), ("b-1",))
        try:
            register_codec(FixedOverheadCodec(3))
            assert frame_size(frame, "fixed-overhead-test") == 13
            register_codec(FixedOverheadCodec(5))
            assert frame_size(frame, "fixed-overhead-test") == 15
        finally:
            # keep the process-global registry clean for other tests
            codec_module._REGISTRY.pop("fixed-overhead-test", None)
            reset_message_ids()
