"""Tests for repro.util.identifiers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.identifiers import (
    EntityId,
    RequestId,
    SequenceCounter,
    SessionId,
    UUID128,
    UUIDGenerator,
)


class TestUUID128:
    def test_hex_is_32_digits(self):
        assert UUID128(0).hex == "0" * 32
        assert UUID128(1).hex == "0" * 31 + "1"

    def test_roundtrip_hex(self):
        u = UUID128(0xDEADBEEF << 64)
        assert UUID128.from_hex(u.hex) == u

    def test_from_hex_tolerates_dashes(self):
        u = UUID128(2**100 + 17)
        dashed = u.hex[:8] + "-" + u.hex[8:]
        assert UUID128.from_hex(dashed) == u

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            UUID128(1 << 128)
        with pytest.raises(ValueError):
            UUID128(-1)

    def test_from_hex_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            UUID128.from_hex("abcd")

    def test_hashable_and_equal_by_value(self):
        assert UUID128(7) == UUID128(7)
        assert len({UUID128(7), UUID128(7), UUID128(8)}) == 2

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_hex_roundtrip_property(self, value):
        assert UUID128.from_hex(UUID128(value).hex).value == value


class TestUUIDGenerator:
    def test_deterministic_given_seed(self):
        gen1, gen2 = UUIDGenerator(5), UUIDGenerator(5)
        assert [gen1.next() for _ in range(5)] == [gen2.next() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert UUIDGenerator(1).next() != UUIDGenerator(2).next()

    def test_never_repeats(self):
        gen = UUIDGenerator(0)
        seen = {gen.next() for _ in range(1000)}
        assert len(seen) == 1000

    def test_iter_protocol(self):
        gen = UUIDGenerator(1)
        it = iter(gen)
        first = next(it)
        assert isinstance(first, UUID128)


class TestEntityId:
    def test_basic(self):
        assert str(EntityId("svc-1")) == "svc-1"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EntityId("")

    def test_rejects_slash(self):
        with pytest.raises(ValueError):
            EntityId("a/b")

    def test_equality(self):
        assert EntityId("x") == EntityId("x")
        assert EntityId("x") != EntityId("y")


class TestSequenceCounter:
    def test_monotone(self):
        counter = SequenceCounter()
        values = [counter.next() for _ in range(10)]
        assert values == list(range(10))

    def test_request_ids(self):
        counter = SequenceCounter()
        r0 = counter.next_request_id()
        r1 = counter.next_request_id()
        assert isinstance(r0, RequestId)
        assert r0 != r1
        assert str(r0) == "req-0"


class TestSessionId:
    def test_topic_segment_is_hex(self):
        s = SessionId(UUID128(0xABC))
        assert s.topic_segment == UUID128(0xABC).hex
        assert "/" not in s.topic_segment

    def test_str_is_prefixed(self):
        assert str(SessionId(UUID128(1))).startswith("sess-")
