"""Tests for the secure key-distribution payload (section 5.1)."""

import pytest

from repro.crypto.keys import SymmetricKey
from repro.errors import DecryptionError
from repro.security.keydist import (
    KeyDistributionPayload,
    build_key_payload,
    open_key_payload,
)


class TestKeyDistribution:
    def test_roundtrip(self, keypair, rng):
        trace_key = SymmetricKey.generate(rng)
        payload = build_key_payload(trace_key, "ab" * 16, keypair.public, rng)
        recovered = open_key_payload(payload, keypair.private)
        assert recovered == trace_key

    def test_carries_algorithm_and_padding(self, keypair, rng):
        """The paper's payload names the algorithm and padding scheme."""
        trace_key = SymmetricKey.generate(rng)
        payload = build_key_payload(trace_key, "00" * 16, keypair.public, rng)
        recovered = open_key_payload(payload, keypair.private)
        assert recovered.algorithm == "AES/CBC"
        assert recovered.padding == "PKCS7"

    def test_only_target_tracker_can_open(self, keypair, second_keypair, rng):
        trace_key = SymmetricKey.generate(rng)
        payload = build_key_payload(trace_key, "00" * 16, keypair.public, rng)
        with pytest.raises(DecryptionError):
            open_key_payload(payload, second_keypair.private)

    def test_dict_roundtrip(self, keypair, rng):
        trace_key = SymmetricKey.generate(rng)
        payload = build_key_payload(trace_key, "cd" * 16, keypair.public, rng)
        restored = KeyDistributionPayload.from_dict(payload.to_dict())
        assert restored.trace_topic == "cd" * 16
        assert open_key_payload(restored, keypair.private) == trace_key

    def test_wire_form_marks_kind(self, keypair, rng):
        trace_key = SymmetricKey.generate(rng)
        payload = build_key_payload(trace_key, "00" * 16, keypair.public, rng)
        assert payload.to_dict()["kind"] == "key_distribution"
