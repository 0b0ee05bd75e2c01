"""Every ``from_dict`` turns any mapping into a value or a named error.

The classes are *discovered*: every class under ``repro`` (outside
``repro.analysis``) that defines ``from_dict`` is under contract, so a new
one is covered the day it is written; a ``@wire_record`` declaration
defines it.  A valid instance is built from the class's own type hints,
its ``to_dict()`` form must decode back to an equal instance, and every
single-point mutation of that form — a dropped key, a
leaf swapped for a value of each other canonical type, a mapping nested
where a scalar belongs, the whole mapping replaced by a scalar — must
decode to a value or raise a :class:`ReproError`, never ``KeyError`` /
``TypeError`` / ``AttributeError`` / ``OverflowError`` / ``MemoryError`` or
a bare ``ValueError``.

The second contract is the json codec's decode side, on the bytes an
authorization token travels as (``AuthorizationToken.wire``): every
single-byte flip, deletion and truncation of a real token's bytes must
decode to a value or raise :class:`SerializationDecodeError`, and verify to
a token or raise :class:`TokenError`.

``-m deep`` runs both contracts with larger budgets (CI, ``bench-smoke``
job): twenty times the ``from_dict`` examples, and every byte offset of the
token instead of every seventh.
"""

import collections.abc
import dataclasses
import enum
import functools
import importlib
import inspect
import pkgutil
import random
import types
import typing

import pytest
from hypothesis import HealthCheck, Phase, given, reject, settings
from hypothesis import strategies as st

import repro
from repro.auth.tokens import AuthorizationToken, TokenRights
from repro.auth.verification import TokenVerifier
from repro.crypto.aes import AESKey
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import RSAPublicKey
from repro.errors import MalformedFrameError, ReproError, SerializationDecodeError, TokenError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.tracing.traces import LoadInformation
from repro.util.identifiers import UUID128, EntityId
from repro.util.serialization import Canonical, canonical_decode

from tests.auth.test_verification import make_advertisement

EXAMPLES = 6


def _package_classes() -> list[type]:
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith("repro.analysis") or info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        found.extend(
            cls
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        )
    return found


PACKAGE_CLASSES = _package_classes()
CLASSES = [cls for cls in PACKAGE_CLASSES if "from_dict" in vars(cls)]
#: The ``@wire_record`` classes: their ``_wire`` is ``(kind, writers, readers)``.
WIRE_RECORDS = [cls for cls in PACKAGE_CLASSES if "_wire" in vars(cls)]
TAGGED_RECORDS = [cls for cls in WIRE_RECORDS if cls._wire[0] is not None]

# -- valid instances, from the type hints ---------------------------------------

_NAMES = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)
_UNIT = st.floats(0.0, 1.0)
_JSON_SCALARS = st.one_of(st.booleans(), st.integers(-5, 1 << 70), _UNIT, _NAMES)
_CANONICAL = st.recursive(
    st.one_of(st.none(), _JSON_SCALARS, st.binary(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_NAMES, inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def _fault_events(draw) -> FaultEvent:
    kind = draw(st.sampled_from(FaultKind))
    windowed = kind in (FaultKind.LINK_PARTITION, FaultKind.PACKET_LOSS, FaultKind.DELAY_SPIKE)
    crash = kind is FaultKind.BROKER_CRASH
    return FaultEvent(
        kind=kind,
        at_ms=draw(st.floats(0.0, 1e6)),
        target=draw(_NAMES),
        duration_ms=draw(st.floats(1.0, 1e6) if windowed else st.none()),
        peer=draw(_NAMES) if kind is FaultKind.LINK_PARTITION else None,
        loss_probability=draw(st.floats(0.01, 1.0)),
        extra_delay_ms=draw(st.floats(0.5, 1e3)),
        failover_to=draw(st.none() | _NAMES) if crash else None,
        detect_after_ms=draw(st.floats(0.0, 1e4)),
    )


_AES_KEYS = st.sampled_from([16, 24, 32]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size).map(AESKey)
)

#: Leaf types, and the few classes whose fields constrain one another.
_STRATEGIES: dict[typing.Any, st.SearchStrategy] = {
    int: st.integers(1, (1 << 32) - 1),
    float: _UNIT,
    str: _NAMES,
    bytes: st.binary(max_size=40),
    bool: st.booleans(),
    type(None): st.none(),
    typing.Any: _CANONICAL,
    object: _JSON_SCALARS,
    tuple: st.lists(_JSON_SCALARS, min_size=1, max_size=3).map(tuple),
    dict: st.dictionaries(_NAMES, _JSON_SCALARS, max_size=3),
    AESKey: _AES_KEYS,
    # the one scheme the library implements; any other is refused on receipt
    SymmetricKey: st.builds(SymmetricKey, key=_AES_KEYS),
    RSAPublicKey: st.builds(
        RSAPublicKey, st.integers(1, 1 << 520), st.integers(1, (1 << 32) - 1)
    ),
    UUID128: st.builds(UUID128, st.integers(0, (1 << 128) - 1)),
    EntityId: _NAMES.map(EntityId),
    FaultEvent: _fault_events(),
    FaultPlan: st.builds(
        FaultPlan,
        name=_NAMES,
        # to_dict() emits the timeline, so only a sorted plan round-trips to itself
        events=st.lists(_fault_events(), max_size=3).map(
            lambda events: tuple(sorted(events, key=lambda event: event.at_ms))
        ),
    ),
    LoadInformation: st.builds(
        LoadInformation, _UNIT, _UNIT, st.floats(1.0, 64.0), st.integers(0, 1 << 40)
    ),
}


def _construct(cls: type, **kwargs):
    try:
        return cls(**kwargs)
    except ReproError:  # the drawn fields break a cross-field rule of the class
        reject()


def _strategy(tp) -> st.SearchStrategy:
    if tp in _STRATEGIES:
        return _STRATEGIES[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*map(_strategy, args))
    if origin is tuple:
        return st.lists(_strategy(args[0]), max_size=3).map(tuple)
    if origin is frozenset:
        return st.frozensets(_strategy(args[0]), max_size=3)
    if origin in (dict, collections.abc.Mapping):
        return st.dictionaries(_NAMES, _strategy(args[1]), max_size=3)
    if inspect.isclass(tp) and issubclass(tp, enum.Enum):
        return st.sampled_from(tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return st.builds(
            functools.partial(_construct, tp),
            **{f.name: _strategy(hints[f.name]) for f in dataclasses.fields(tp) if f.init},
        )
    raise NotImplementedError(f"no strategy for {tp!r}: add one to _STRATEGIES")


# -- mutations -------------------------------------------------------------------

_REPLACEMENTS = (
    None, True, 0, -1, 7, 1 << 44, 10**400, 1.5, float("nan"), float("inf"),
    "nan", "z" * 32, b"\x00", [], [7], {}, {"nested": {"deeper": 1}},
)  # fmt: skip


def _paths(node, prefix=()):
    """Every position in a ``to_dict()`` tree, root excluded."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, (list, tuple))
        else ()
    )  # fmt: skip
    for key, child in children:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


_DROP = object()


def _mutated(node, path, replacement):
    """A copy of ``node`` with the value at ``path`` replaced (or dropped)."""
    if not path:
        return replacement
    key, rest = path[0], path[1:]
    copy = dict(node) if isinstance(node, dict) else list(node)
    if not rest and replacement is _DROP:
        del copy[key]
    else:
        copy[key] = _mutated(node[key], rest, replacement)
    return copy


def _check_contract(cls: type, instance) -> None:
    wire = instance.to_dict()
    assert cls.from_dict(wire) == instance
    mutants = [((), replacement) for replacement in _REPLACEMENTS]
    for path in _paths(wire):
        mutants.append((path, _DROP))
        mutants.extend((path, replacement) for replacement in _REPLACEMENTS)
    for path, replacement in mutants:
        try:
            cls.from_dict(_mutated(wire, path, replacement))
        except ReproError:
            pass
        except Exception as exc:
            what = "dropped" if replacement is _DROP else f"= {replacement!r:.40}"
            pytest.fail(
                f"{cls.__name__}.from_dict with {'/'.join(map(str, path)) or '<root>'} "
                f"{what} raised {type(exc).__name__}: {exc!s:.80}"
            )


def _contract(examples: int):
    def test(cls, data):
        _check_contract(cls, data.draw(_strategy(cls)))

    return pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)(
        settings(
            max_examples=examples,
            deadline=None,
            # the failure message names the path and the replacement; shrinking
            # the instance around it would sweep every mutation again per step
            phases=[Phase.explicit, Phase.reuse, Phase.generate],
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        )(given(data=st.data())(test))
    )


test_decode_contract = _contract(EXAMPLES)
test_decode_contract_deep = pytest.mark.deep(_contract(20 * EXAMPLES))


def test_discovery_finds_the_known_classes():
    names = {cls.__name__ for cls in CLASSES}
    assert len(CLASSES) >= 18
    assert {"SignedEnvelope", "AuthorizationToken", "Ping", "FaultPlan"} <= names


def test_every_wire_record_is_under_contract():
    assert set(WIRE_RECORDS) <= set(CLASSES)
    assert {cls.__name__ for cls in TAGGED_RECORDS} == {
        "Ping", "PingResponse", "KeyDistributionPayload", "PingBatch", "StateReport",
        "LoadReport", "DisableTracing", "TokenDelivery", "TraceKeyDelivery",
        "ChannelKeyDelivery", "SymFrame",
    }  # fmt: skip


@pytest.mark.parametrize("cls", TAGGED_RECORDS, ids=lambda cls: cls.__name__)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_a_tagged_record_refuses_another_kind(cls, data):
    wire = data.draw(_strategy(cls)).to_dict()
    for kind in ("ping", "ping_response", "key_distribution", "load"):
        if kind != wire["kind"]:
            with pytest.raises(MalformedFrameError, match="'kind'"):
                cls.from_dict({**wire, "kind": kind})


# -- the json codec's decode side: the bytes a token travels as -------------------

#: XOR masks of a single-byte flip: the low bit, the high bit, every bit.
_FLIPS = (0x01, 0x80, 0xFF)


def _byte_mutants(data: bytes, stride: int):
    """Every flip, deletion and truncation at each ``stride``-th offset."""
    for offset in range(0, len(data), stride):
        for mask in _FLIPS:
            yield data[:offset] + bytes([data[offset] ^ mask]) + data[offset + 1 :]
        yield data[:offset] + data[offset + 1 :]
        yield data[:offset]


@pytest.fixture(scope="module")
def token_wire(keypair, second_keypair):
    advertisement = make_advertisement(keypair, second_keypair)
    token, _ = AuthorizationToken.create(
        advertisement, keypair.private, TokenRights.PUBLISH, 0.0, 10_000.0, random.Random(5)
    )
    return token.wire


def _token_bytes_contract(stride: int):
    def test(token_wire, second_keypair):
        verifier = TokenVerifier({"tdn-0": second_keypair.public})
        assert verifier.verify(token_wire, now_ms=1.0).wire == token_wire
        for mutant in _byte_mutants(token_wire.data, stride):
            for read, named in (
                (canonical_decode, SerializationDecodeError),
                (lambda data: verifier.verify(Canonical(data), now_ms=1.0), TokenError),
            ):
                try:
                    read(mutant)
                except named:
                    pass
                except Exception as exc:
                    pytest.fail(
                        f"{getattr(read, '__name__', 'TokenVerifier.verify')} of "
                        f"{mutant[:60]!r}... raised {type(exc).__name__}: {exc!s:.80}"
                    )

    return test


test_token_bytes_decode_contract = _token_bytes_contract(stride=7)
test_token_bytes_decode_contract_deep = pytest.mark.deep(_token_bytes_contract(stride=1))
