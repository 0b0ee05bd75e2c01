"""Duplex-link jitter streams: direction independence regression tests.

The bug under test: both directions of a broker-to-broker link used to
share one RNG stream, so traffic on a->b advanced the stream and
perturbed the latencies sampled on b->a.  The fix derives one named
stream per direction.
"""

from repro.messaging.broker_network import BrokerNetwork
from repro.sim.engine import Simulator
from tests.support import build_chain


def build(seed: int = 7) -> BrokerNetwork:
    network = BrokerNetwork(Simulator(), seed=seed)
    build_chain(network, ["b1", "b2"])
    return network


def link_rngs(network: BrokerNetwork):
    ab = network.broker("b1").neighbor_links["b2"]._rng
    ba = network.broker("b2").neighbor_links["b1"]._rng
    return ab, ba


class TestPerDirectionStreams:
    def test_directions_have_independent_streams(self):
        ab, ba = link_rngs(build())
        assert ab is not ba

    def test_draws_on_one_direction_leave_the_other_untouched(self):
        """The regression proper: consuming a->b draws must not change
        the sequence b->a will sample."""
        noisy = build()
        quiet = build()
        noisy_ab, noisy_ba = link_rngs(noisy)
        _, quiet_ba = link_rngs(quiet)

        for _ in range(100):  # heavy one-directional traffic, simulated
            noisy_ab.random()
        assert [noisy_ba.random() for _ in range(10)] == [
            quiet_ba.random() for _ in range(10)
        ]

    def test_streams_deterministic_per_seed(self):
        one_ab, one_ba = link_rngs(build(seed=3))
        two_ab, two_ba = link_rngs(build(seed=3))
        assert [one_ab.random() for _ in range(5)] == [
            two_ab.random() for _ in range(5)
        ]
        assert [one_ba.random() for _ in range(5)] == [
            two_ba.random() for _ in range(5)
        ]
