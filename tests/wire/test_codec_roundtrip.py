"""Property tests: both wire codecs round-trip adversarial messages.

The generators deliberately push on the compact format's edges — unicode
and deep (but protocol-realistic, <=10 segment) topics, raw ``bytes``
encrypted bodies, RSA-sized integers in signature dicts and auth-token bytes, and
huge message ids — and assert ``decode(encode(m)) == m`` plus the two
structural invariants the sizing layer relies on: compact never renders
larger than json, and a routed frame's size is exactly the message size
plus the codec's declared destination overhead.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_deployment
from repro.crypto.signing import verify_signed_body
from repro.errors import SerializationDecodeError
from repro.messaging.message import Message, RoutedFrame
from repro.messaging.topics import Topic
from repro.obs import MetricsRegistry
from repro.tracing.traces import TraceBody, TraceType
from repro.util.serialization import Canonical
from repro.wire import CompactCodec, JsonCodec
from repro.wire.codec import SizeMemo, frame_size

JSON = JsonCodec()
COMPACT = CompactCodec()
CODECS = [JSON, COMPACT]


def codec_params():
    return pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)


# ---------------------------------------------------------------- strategies

# Topic segments: unicode-friendly, no '/' (separator), no wildcards, and
# bounded at 10 segments — the protocol never nests deeper, and bounding
# keeps the "compact <= json" size ordering honest (the ~90-byte envelope
# saving can only be eaten by pathological hundred-segment topics).
segment = st.text(min_size=1, max_size=12).filter(
    lambda s: "/" not in s and s not in ("*", ">")
)
topics = st.lists(segment, min_size=1, max_size=10).map(
    lambda segments: Topic.of("/".join(segments))
)

# RSA-sized integers as they appear in real tokens/signatures (150+ decimal
# digits — the compact codec's zigzag-varint win) plus small/negative ones.
big_ints = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.integers(min_value=10**150, max_value=10**151),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    big_ints,
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)

# Security artifact dicts (serialized SignedEnvelope / auth token shapes).
artifact_dicts = st.one_of(
    st.none(),
    st.dictionaries(
        st.text(min_size=1, max_size=20),
        st.one_of(big_ints, st.binary(max_size=40), st.text(max_size=20)),
        min_size=1,
        max_size=6,
    ),
)

# An authorization token travels as its canonical bytes (AuthorizationToken.wire).
wire_tokens = artifact_dicts.map(lambda d: None if d is None else Canonical.of(d))

encrypted_bodies = st.binary(min_size=0, max_size=200)


def _as_sent(message: Message) -> Message:
    """A signed body travels as the ``Canonical`` its signer signed."""
    if message.signature is None:
        return message
    return replace(message, body=Canonical.of(message.body))


messages = st.builds(
    Message,
    topic=topics,
    body=values,
    source=st.text(min_size=1, max_size=20),
    message_id=st.integers(min_value=1, max_value=2**64 - 1),
    created_ms=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    signature=artifact_dicts,
    auth_token=wire_tokens,
    encrypted=st.just(False),
).map(_as_sent)

encrypted_messages = st.builds(
    Message,
    topic=topics,
    body=encrypted_bodies,
    source=st.text(min_size=1, max_size=20),
    message_id=st.integers(min_value=1, max_value=2**64 - 1),
    signature=artifact_dicts,
    auth_token=wire_tokens,
    encrypted=st.just(True),
).map(_as_sent)

any_message = st.one_of(messages, encrypted_messages)

frames = st.builds(
    RoutedFrame,
    message=any_message,
    destinations=st.lists(
        st.text(min_size=1, max_size=16), min_size=0, max_size=6
    ).map(tuple),
)


# ---------------------------------------------------------------- round trips


class TestMessageRoundTrip:
    @codec_params()
    @settings(max_examples=60)
    @given(message=any_message)
    def test_decode_inverts_encode(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    @codec_params()
    @given(message=messages)
    def test_hops_never_ride_the_wire(self, codec, message):
        forwarded = message.with_hops(2)
        assert codec.encode(forwarded) == codec.encode(message)
        assert codec.decode(codec.encode(forwarded)) == message

    @codec_params()
    @settings(max_examples=40)
    @given(frame=frames)
    def test_frame_round_trip(self, codec, frame):
        decoded = codec.decode(codec.encode(frame))
        assert decoded == frame

    @codec_params()
    @settings(max_examples=40)
    @given(frame=frames, hops=st.integers(min_value=1, max_value=64))
    def test_frame_hops_never_ride_the_wire(self, codec, frame, hops):
        forwarded = replace(frame, hops=hops)
        assert codec.encode(forwarded) == codec.encode(frame)
        decoded = codec.decode(codec.encode(forwarded))
        assert decoded.hops == 0 and decoded == frame

    @codec_params()
    @settings(max_examples=40)
    @given(value=values)
    def test_plain_value_round_trip(self, codec, value):
        # plain (non-envelope) payloads must survive too — dict bodies are
        # only recognized as envelopes by their exact wire_dict shape
        if isinstance(value, dict):
            value = {"wrapped": value}
        decoded = codec.decode(codec.encode(value))
        assert decoded == _listify(value)


def _listify(value):
    """Canonical decoding renders tuples as lists; normalize for comparison."""
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    if isinstance(value, list):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------- invariants


class TestSizeInvariants:
    @settings(max_examples=60)
    @given(message=any_message)
    def test_compact_never_larger_than_json(self, message):
        assert len(COMPACT.encode(message)) <= len(JSON.encode(message))

    @codec_params()
    @settings(max_examples=40)
    @given(frame=frames)
    def test_frame_size_is_additive(self, codec, frame):
        whole = len(codec.encode(frame))
        bare = len(codec.encode(frame.message))
        assert whole == bare + codec.frame_overhead(frame)

    @codec_params()
    @given(message=messages)
    def test_encode_into_appends(self, codec, message):
        out = bytearray(b"prefix")
        appended = codec.encode_into(message, out)
        assert bytes(out[6:]) == codec.encode(message)
        assert appended == len(out) - 6


# ------------------------------------------------------------- decode errors


class TestCompactDecodeErrors:
    def test_rejects_empty(self):
        with pytest.raises(SerializationDecodeError):
            COMPACT.decode(b"")

    def test_rejects_bad_magic(self):
        good = COMPACT.encode({"k": 1})
        with pytest.raises(SerializationDecodeError):
            COMPACT.decode(b"\x00" + good[1:])

    def test_rejects_bad_version(self):
        good = COMPACT.encode({"k": 1})
        with pytest.raises(SerializationDecodeError):
            COMPACT.decode(bytes([good[0], 0x7F]) + good[2:])

    def test_rejects_unknown_kind(self):
        good = COMPACT.encode({"k": 1})
        with pytest.raises(SerializationDecodeError):
            COMPACT.decode(good[:2] + b"\x7f" + good[3:])

    def test_rejects_trailing_garbage(self):
        good = COMPACT.encode({"k": 1})
        with pytest.raises(SerializationDecodeError):
            COMPACT.decode(good + b"\x00")


# ------------------------------------------------------- the token, spliced


class _InlineToken(dict):
    """The token as traces carried it before it travelled as bytes: a plain
    mapping inside the envelope (json encodes a dict subclass as the dict;
    compact reads ``.value``, which for this form is the mapping itself)."""

    @property
    def value(self):
        return dict(self)


@pytest.fixture(scope="module")
def real_trace():
    """One ALLS_WELL trace as a broker published it, token attached."""
    dep = build_deployment(broker_ids=["b1", "b2"], seed=3, codec="json")
    entity = dep.add_traced_entity("svc")
    tracker = dep.add_tracker("w")
    tracker.connect("b2")
    entity.start("b1")
    dep.sim.run(until=3_000)
    tracker.track("svc")
    captured = []
    tracker.client.subscribe(entity.topics.all_updates.canonical, captured.append)
    dep.sim.run(until=20_000)
    session = dep.manager_of("b1").session_of("svc")
    assert session.token.wire == entity.token.wire  # the bytes the entity issued
    return captured[-1], session.token


class TestTokenSplice:
    def test_a_trace_carries_the_token_it_was_issued_with(self, real_trace):
        message, token = real_trace
        # attached as encoded when the broker read the delivery, not re-encoded
        assert type(message.auth_token) is Canonical
        assert message.auth_token is token.wire

    @codec_params()
    def test_bytes_and_size_equal_the_inline_token_form(self, codec, real_trace):
        message, token = real_trace
        as_mapping = _InlineToken(token.to_dict())
        inline = replace(message, auth_token=as_mapping)
        frame = RoutedFrame(message, ("b1", "b2"))
        inline_frame = replace(frame, message=inline)
        assert codec.encode(message) == codec.encode(inline)
        assert codec.encode(frame) == codec.encode(inline_frame)
        # both forms share a message id: size each in a fresh memo
        def sized(payload):
            return frame_size(payload, SizeMemo(MetricsRegistry(), codec.name))

        sizes = [sized(message), sized(frame)]
        assert sizes == [sized(inline), sized(inline_frame)]
        assert sizes[0] == len(codec.encode(message))

    @codec_params()
    def test_decode_gives_the_token_back_as_bytes(self, codec, real_trace):
        message, token = real_trace
        decoded = codec.decode(codec.encode(message))
        assert decoded == replace(message, hops=0)
        assert type(decoded.auth_token) is Canonical and decoded.auth_token == token.wire


class TestSignedBodySplice:
    @codec_params()
    def test_bytes_equal_the_plain_body_form(self, codec, real_trace):
        message, _ = real_trace
        # signed as encoded, not re-encoded: the frame is the plain body's
        assert type(message.body) is Canonical
        plain = replace(message, body=message.body.value)
        assert codec.encode(message) == codec.encode(plain)

    @codec_params()
    def test_a_decoded_trace_verifies_and_reads_as_sent(self, codec, real_trace):
        message, token = real_trace
        decoded = codec.decode(codec.encode(message))
        assert type(decoded.body) is Canonical and decoded.body == message.body
        value = verify_signed_body(decoded.signature, decoded.body, token.token_public_key)
        assert value == message.body.value
        trace = TraceBody.from_dict(value)
        assert trace.trace_type is TraceType.ALLS_WELL and trace.entity_id == "svc"
