"""Tests for the canonical serialization layer."""

import hashlib
import struct
from collections import OrderedDict, defaultdict

import pytest
from hypothesis import given, strategies as st

from repro.errors import SerializationDecodeError, SerializationTypeError
from repro.util.serialization import (
    MAX_DECODE_DEPTH,
    Canonical,
    canonical_decode,
    canonical_encode,
    canonical_encode_into,
)

# strategy for canonically-encodable values
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            12345678901234567890,
            0.0,
            -2.5,
            "",
            "hello",
            "uniçode ☃",
            b"",
            b"\x00\xff" * 10,
            [],
            [1, "two", None],
            {},
            {"a": 1, "b": [True, {"c": b"x"}]},
        ],
    )
    def test_examples(self, value):
        decoded = canonical_decode(canonical_encode(value))
        assert decoded == value
        # tuples decode as lists — covered separately

    def test_tuple_decodes_as_list(self):
        assert canonical_decode(canonical_encode((1, 2))) == [1, 2]

    def test_float_bit_exact(self):
        value = 0.1 + 0.2
        assert canonical_decode(canonical_encode(value)) == value

    def test_bool_distinct_from_int(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    @given(values)
    def test_roundtrip_property(self, value):
        encoded = canonical_encode(value)
        decoded = canonical_decode(encoded)
        assert decoded == _tuples_to_lists(value)


class TestCanonicality:
    def test_dict_order_irrelevant(self):
        a = canonical_encode({"x": 1, "y": 2})
        b = canonical_encode({"y": 2, "x": 1})
        assert a == b

    def test_nested_dict_order_irrelevant(self):
        a = canonical_encode({"outer": {"x": 1, "y": 2}})
        b = canonical_encode({"outer": {"y": 2, "x": 1}})
        assert a == b

    def test_distinct_values_distinct_encodings(self):
        seen = set()
        for value in [None, True, False, 0, 1, "", "0", b"", b"0", [], {}, [0], {"a": 0}]:
            encoding = canonical_encode(value)
            assert encoding not in seen
            seen.add(encoding)

    @given(values, values)
    def test_injective_property(self, a, b):
        if _tuples_to_lists(a) != _tuples_to_lists(b):
            assert canonical_encode(a) != canonical_encode(b)


def _reference_encode(value) -> bytes:
    """The ``isinstance`` ladder the encoder was before it dispatched on
    exact types, kept verbatim: the oracle for every output byte."""
    out = bytearray()
    _reference_encode_into(value, out)
    return bytes(out)


def _reference_encode_into(value, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        rendered = str(value).encode("ascii")
        out += b"i"
        out += str(len(rendered)).encode("ascii")
        out += b":"
        out += rendered
    elif isinstance(value, float):
        # Fixed 8-byte IEEE-754 big-endian: bit-exact round trip.
        out += b"f"
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += b"s"
        out += str(len(data)).encode("ascii")
        out += b":"
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out += b"b"
        out += str(len(data)).encode("ascii")
        out += b":"
        out += data
    elif isinstance(value, (list, tuple)):
        out += b"l"
        for item in value:
            _reference_encode_into(item, out)
        out += b"e"
    elif isinstance(value, dict):
        out += b"d"
        keys = list(value.keys())
        for key in keys:
            if not isinstance(key, str):
                raise SerializationTypeError(f"dict keys must be str, got {type(key).__name__}")
        for key in sorted(keys):
            _reference_encode_into(key, out)
            _reference_encode_into(value[key], out)
        out += b"e"
    else:
        raise SerializationTypeError(f"cannot canonically encode {type(value).__name__}")


class _Text(str):
    """A ``str`` subclass, as a ``str``-mixin enum member is."""


class _Count(int):
    """An ``int`` subclass, as an ``IntEnum`` member is."""


# Everything the format accepts, exact builtins and the non-exact types
# that resolve through the isinstance order alike.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**512), max_value=2**512),
    st.integers(min_value=2**511, max_value=2**512),
    st.integers().map(_Count),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf")]),
    st.text(max_size=40),
    st.text(max_size=10).map(_Text),
    st.binary(max_size=300),
    st.binary(max_size=40).map(bytearray),
    st.binary(max_size=40).map(memoryview),
)
_keys = st.one_of(st.text(max_size=10), st.text(max_size=5).map(_Text))


def _defaultdict(items):
    return defaultdict(list, items)


_any_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=6),
        st.dictionaries(_keys, children, max_size=6).map(OrderedDict),
        st.dictionaries(_keys, children, max_size=6).map(_defaultdict),
    ),
    max_leaves=25,
)

# A token as section 4.3 puts it on every trace: the signed advertisement
# (fields + the TDN's signature over them) inside the owner-signed grant.
_ADVERTISEMENT_FIELDS = {
    "descriptor": "5d1f0c6e9a3b47d2a8e4c1f07b92d6e3",
    "issuing_tdn": "tdn-1",
    "lifetime": {"created_ms": 28.511692978895873, "duration_ms": 3600000.0},
    "owner_e": 65537,
    "owner_n": 2**511 + 0x1F2E3D4C5B6A79880123456789ABCDEF,
    "owner_subject": "svc-quotes-7",
    "restrictions": {"allowed_subjects": None, "denied_subjects": []},
    "trace_topic": "10726f9831f3c71ed767ef8278e3e021",
}
_GRANT = {
    "rights": "publish",
    "token_e": 65537,
    "token_n": 2**511 + 0x0FEDCBA9876543210112233445566778,
    "trace_topic": "10726f9831f3c71ed767ef8278e3e021",
    "valid_from_ms": 149.9083462094061,
    "valid_until_ms": 600149.9083462094,
}
TOKEN_FIXTURE = {
    "advertisement": {
        "fields": _ADVERTISEMENT_FIELDS,
        "signature": {
            "payload": _ADVERTISEMENT_FIELDS,
            "signature": bytes(range(64)),
            "signer_fingerprint": bytes(range(100, 120)),
        },
    },
    "owner_signature": {
        "payload": _GRANT,
        "signature": bytes(range(255, 191, -1)),
        "signer_fingerprint": bytes(range(20)),
    },
    **_GRANT,
}
TOKEN_FIXTURE_SHA256 = "57c1280194e44da59c5e4f01417695047b3a391e70071fe89b9da8fd06f1406a"


class TestAgainstTheLadder:
    @given(_any_values)
    def test_every_byte_equals_the_reference(self, value):
        assert canonical_encode(value) == _reference_encode(value)

    @given(_any_values)
    def test_streaming_variant_appends_the_same_bytes(self, value):
        out = bytearray(b"kept")
        appended = canonical_encode_into(value, out)
        assert bytes(out) == b"kept" + _reference_encode(value)
        assert appended == len(out) - 4

    def test_token_fixture_golden_digest(self):
        encoded = canonical_encode(TOKEN_FIXTURE)
        assert encoded == _reference_encode(TOKEN_FIXTURE)
        assert len(encoded) == 1891
        assert hashlib.sha256(encoded).hexdigest() == TOKEN_FIXTURE_SHA256
        assert canonical_decode(encoded) == TOKEN_FIXTURE

    def test_signed_zero_keeps_its_sign(self):
        assert canonical_encode(0.0) != canonical_encode(-0.0)
        assert str(canonical_decode(canonical_encode(-0.0))) == "-0.0"


_HOLE = object()

# Containers with holes where a value goes: as a list item, a dict value,
# at any depth, any number of times (zero included).
_with_holes = st.recursive(
    st.one_of(scalars, st.just(_HOLE)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


def _fill(tree, value):
    if tree is _HOLE:
        return value
    if isinstance(tree, (list, tuple)):
        return type(tree)(_fill(item, value) for item in tree)
    if isinstance(tree, dict):
        return {key: _fill(item, value) for key, item in tree.items()}
    return tree


class TestCanonical:
    """A value held as its bytes encodes as the value, wherever it sits."""

    @given(_with_holes, _any_values)
    def test_spliced_bytes_equal_the_plain_value(self, tree, value):
        plain, spliced = _fill(tree, value), _fill(tree, Canonical.of(value))
        assert canonical_encode(spliced) == canonical_encode(plain)
        out = bytearray(b"kept")
        assert canonical_encode_into(spliced, out) == len(out) - 4
        assert bytes(out) == b"kept" + canonical_encode(plain)

    @given(_any_values)
    def test_value_is_held_or_decodes_the_received_bytes(self, value):
        held = Canonical.of(value)
        assert held.data == _reference_encode(value)
        assert held.value is value
        assert Canonical(held.data).value == _tuples_to_lists(value)
        assert held == Canonical(held.data)

    def test_holds_bytes_only(self):
        with pytest.raises(SerializationTypeError, match="Canonical holds bytes, got str"):
            Canonical("d1:ae")
        with pytest.raises(SerializationTypeError):
            Canonical(bytearray(b"N"))

    def test_of_holds_its_value_and_received_bytes_hold_none(self):
        value = {"seq": 1, "payload": {"x": (1, 2)}}
        held = Canonical.of(value)
        assert held.value is value  # nothing decoded: the tuple stays a tuple
        received = Canonical(held.data)
        assert received.value == {"seq": 1, "payload": {"x": [1, 2]}}
        assert received.value is not received.value  # decoded on every read
        assert received == held and hash(received) == hash(held)
        assert repr(received) == repr(held)
        with pytest.raises(TypeError):
            Canonical(held.data, value)
        with pytest.raises(TypeError):
            Canonical(data=held.data, held=value)

    def test_bytes_that_do_not_decode_fail_on_read_not_on_hold(self):
        held = Canonical(b"d")
        with pytest.raises(SerializationDecodeError):
            held.value
        assert canonical_encode([held]) == b"lde"


class TestErrors:
    def test_rejects_non_str_dict_keys(self):
        with pytest.raises(TypeError):
            canonical_encode({1: "x"})

    def test_mixed_keys_raise_the_taxonomy_error_not_sorted_s(self):
        # the all-str check runs before sorted(), whose own TypeError
        # ("'<' not supported between 'str' and 'int'") must never surface
        with pytest.raises(SerializationTypeError, match="dict keys must be str, got int"):
            canonical_encode({1: "a", "b": 2})
        with pytest.raises(SerializationTypeError, match="dict keys must be str, got int"):
            canonical_encode(OrderedDict([("b", 2), (1, "a")]))

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            canonical_encode(object())
        with pytest.raises(TypeError):
            canonical_encode({"a": set()})

    def test_unsupported_leaf_deep_inside_is_named(self):
        with pytest.raises(SerializationTypeError, match="cannot canonically encode set"):
            canonical_encode({"outer": [1, "two", {"inner": [set()]}]})
        with pytest.raises(SerializationTypeError, match="cannot canonically encode complex"):
            canonical_encode({"outer": (1, [2j])})

    def test_a_failed_encode_leaves_the_buffer_alone(self):
        out = bytearray(b"kept")
        with pytest.raises(SerializationTypeError):
            canonical_encode_into({"a": [1, object()]}, out)
        assert out == b"kept"

    def test_rejects_trailing_bytes(self):
        data = canonical_encode(1) + b"garbage"
        with pytest.raises(ValueError):
            canonical_decode(data)

    def test_rejects_truncated(self):
        data = canonical_encode("hello world")
        with pytest.raises(ValueError):
            canonical_decode(data[:-3])

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            canonical_decode(b"Z")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_decode(b"")

    def test_rejects_unsorted_dict_keys(self):
        # hand-craft a dict with keys out of canonical order
        good = canonical_encode({"a": 1, "b": 2})
        # encode b-then-a manually by swapping entries
        a_entry = canonical_encode("a") + canonical_encode(1)
        b_entry = canonical_encode("b") + canonical_encode(2)
        bad = b"d" + b_entry + a_entry + b"e"
        assert good != bad
        with pytest.raises(ValueError):
            canonical_decode(bad)

    def test_rejects_unterminated_list(self):
        with pytest.raises(ValueError):
            canonical_decode(b"l" + canonical_encode(1))

    def test_nesting_is_bounded_so_no_input_exhausts_the_stack(self):
        nested = b"l" * MAX_DECODE_DEPTH + b"e" * MAX_DECODE_DEPTH
        assert canonical_decode(nested) is not None
        with pytest.raises(SerializationDecodeError, match="nested deeper"):
            canonical_decode(b"l" + nested + b"e")
        with pytest.raises(SerializationDecodeError, match="nested deeper"):
            canonical_decode(b"l" * 100_000)

    def test_a_length_field_of_any_size_is_a_decode_error(self):
        # int() refuses more than 4300 digits with a bare ValueError
        for digits in (20, 5_000):
            with pytest.raises(SerializationDecodeError, match="bad length field"):
                canonical_decode(b"s" + b"9" * digits + b":x")


def _tuples_to_lists(value):
    if isinstance(value, (list, tuple)):
        return [_tuples_to_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _tuples_to_lists(v) for k, v in value.items()}
    return value
