"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import analyze_index, index_paths
from repro.crypto import rsa
from repro.crypto.certificates import CertificateAuthority
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.rsa import generate_rsa_keypair
from repro.seeds import SEED_GROUPS
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.monitor import Monitor
from tests import support


class KeyPairMemo:
    """``generate_rsa_keypair`` memoized on its inputs, RNG state included.

    A draw from a ``random.Random`` is keyed by ``(bits, e, rng.getstate())``;
    a hit returns the (immutable) key pair that draw made and sets the RNG
    to the state the draw left it in, so a run cannot tell a hit from a
    draw: every output is the same by construction.  Every deployment a
    test builds draws the same CA, TDN, broker and principal keys, and
    key generation is most of what building one costs.
    """

    def __init__(self, draw) -> None:
        self.draw = draw
        self.enabled = True
        self.hits = 0
        self._made: dict[tuple, tuple] = {}

    def __call__(self, rng, bits=rsa.DEFAULT_KEY_BITS, e=65537):
        if not self.enabled or type(rng) is not random.Random:
            return self.draw(rng, bits, e)
        key = (bits, e, rng.getstate())
        made = self._made.get(key)
        if made is None:
            made = self._made[key] = (self.draw(rng, bits, e), rng.getstate())
        else:
            self.hits += 1
            rng.setstate(made[1])
        return made[0]


@pytest.fixture(scope="session")
def keypair_memo():
    """The session's :class:`KeyPairMemo`, bound in place of
    ``generate_rsa_keypair`` in every module that imported it."""
    original = rsa.generate_rsa_keypair
    memo = KeyPairMemo(original)
    bound = [
        module
        for module in list(sys.modules.values())
        if getattr(module, "generate_rsa_keypair", None) is original
    ]
    for module in bound:
        module.generate_rsa_keypair = memo
    yield memo
    for module in bound:
        module.generate_rsa_keypair = original


@pytest.fixture(autouse=True)
def _memoized_keypairs(request, keypair_memo):
    """Every test draws key pairs through the memo but those under
    ``tests/crypto``, which test key generation itself."""
    keypair_memo.enabled = "crypto" not in request.node.path.relative_to(
        Path(__file__).parent
    ).parts[:1]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def monitor() -> Monitor:
    return Monitor()


@pytest.fixture(scope="session")
def session_rng() -> random.Random:
    return random.Random(0xDECADE)


@pytest.fixture(scope="session")
def keypair(session_rng):
    """One RSA key pair shared across the session (keygen is the slow op)."""
    return generate_rsa_keypair(session_rng)


@pytest.fixture(scope="session")
def second_keypair(session_rng):
    return generate_rsa_keypair(session_rng)


@pytest.fixture
def ca(rng) -> CertificateAuthority:
    return CertificateAuthority("test-ca", rng)


@pytest.fixture
def free_cost_model() -> CryptoCostModel:
    """Cost model charging zero time — for purely functional tests."""
    return support.free_cost_model()


@pytest.fixture
def machine(sim, rng) -> Machine:
    return Machine(sim, "m0", CryptoCostModel(seed=1), rng)


@pytest.fixture(scope="session")
def seed_run(tmp_path_factory):
    """``seed_run(name)``: the results directory that :data:`SEED_GROUPS` row's
    producer wrote into -- run once per session, however many tests read it
    (``tests/test_seeds.py`` compares it with the committed files)."""
    produced = {}

    def run(name: str):
        if name not in produced:
            produced[name] = tmp_path_factory.mktemp(f"seeds-{name}")
            SEED_GROUPS[name].produce(produced[name])
        return produced[name]

    return run


@pytest.fixture(scope="session")
def live_seed(seed_run):
    """``live_seed(name)``: that run's JSON snapshot (the row's first file)."""

    def load(name: str) -> dict:
        return json.loads((seed_run(name) / SEED_GROUPS[name].files[0]).read_text())

    return load


@pytest.fixture(scope="session")
def analyzed_tree():
    """``(index, findings, seconds)`` of one timed ``repro analyze`` of the
    shipped ``src/repro`` tree, shared by every test that reads that tree."""
    started = time.perf_counter()
    index = index_paths([Path(__file__).resolve().parent.parent / "src" / "repro"])
    findings = analyze_index(index)
    return index, findings, time.perf_counter() - started
