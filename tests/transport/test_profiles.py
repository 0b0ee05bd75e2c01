"""Tests for transport profiles."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.transport.base import TransportProfile
from repro.transport.tcp import TCP_CLUSTER, tcp_profile
from repro.transport.udp import UDP_CLUSTER, udp_profile
from repro.wire.codec import frame_size


class TestProfiles:
    def test_tcp_is_reliable_ordered(self):
        assert TCP_CLUSTER.reliable and TCP_CLUSTER.ordered

    def test_udp_is_unreliable_unordered(self):
        assert not UDP_CLUSTER.reliable and not UDP_CLUSTER.ordered

    def test_udp_cheaper_than_tcp(self):
        """The Table 3 premise: UDP latency < TCP latency per hop."""
        assert UDP_CLUSTER.base_latency_ms < TCP_CLUSTER.base_latency_ms

    def test_cluster_latency_in_paper_band(self):
        """Per-hop communications latency around 1-2 ms (section 6.1)."""
        assert 0.5 <= UDP_CLUSTER.base_latency_ms <= 2.0
        assert 1.0 <= TCP_CLUSTER.base_latency_ms <= 2.0

    def test_latency_scales_with_size(self):
        rng = random.Random(0)
        profile = tcp_profile(jitter_ms=0.0)
        small = profile.sample_latency_ms(100, rng)
        large = profile.sample_latency_ms(100_000, rng)
        assert large > small
        assert large - small == pytest.approx(
            profile.per_kb_ms * (100_000 - 100) / 1024.0
        )

    def test_latency_never_negative(self):
        rng = random.Random(1)
        profile = udp_profile(base_latency_ms=0.1, jitter_ms=5.0)
        assert all(profile.sample_latency_ms(10, rng) >= 0.01 for _ in range(500))

    def test_loss_sampling_rate(self):
        rng = random.Random(2)
        profile = udp_profile(loss_probability=0.3)
        losses = sum(profile.sample_loss(rng) for _ in range(5000))
        assert 0.25 < losses / 5000 < 0.35

    def test_zero_loss_never_drops(self):
        rng = random.Random(3)
        assert not any(UDP_CLUSTER.sample_loss(rng) for _ in range(100))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransportProfile("x", -1, 0, 0, 0, True, True)
        with pytest.raises(ConfigurationError):
            TransportProfile("x", 1, 0, 0, 1.5, True, True)
        with pytest.raises(ConfigurationError):
            # reliable + lossy requires a retransmit timeout
            TransportProfile("x", 1, 0, 0, 0.1, True, True, retransmit_timeout_ms=0)


class TestWireSize:
    def test_size_of_plain_values(self):
        assert frame_size(b"1234") > 4
        assert frame_size({"a": 1}) > frame_size({})

    def test_uses_wire_dict_when_available(self):
        class Enveloped:
            def wire_dict(self):
                return {"payload": "x" * 100}

        assert frame_size(Enveloped()) > 100
