"""Tests for named random streams."""

from repro.sim.random import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_deterministic_across_instances(self):
        a = RandomStreams(7).stream("link").random()
        b = RandomStreams(7).stream("link").random()
        assert a == b

    def test_streams_independent(self):
        """Draws from one stream do not perturb another."""
        streams1 = RandomStreams(3)
        streams1.stream("noise").random()  # consume from an unrelated stream
        v1 = streams1.stream("target").random()

        streams2 = RandomStreams(3)
        v2 = streams2.stream("target").random()
        assert v1 == v2

    def test_different_names_differ(self):
        streams = RandomStreams(0)
        assert streams.stream("x").random() != streams.stream("y").random()

    def test_different_master_seeds_differ(self):
        assert (
            RandomStreams(1).stream("s").random()
            != RandomStreams(2).stream("s").random()
        )

    def test_derive_seed_stable(self):
        streams = RandomStreams(9)
        assert streams.derive_seed("x") == streams.derive_seed("x")
        assert streams.derive_seed("x") != streams.derive_seed("y")
