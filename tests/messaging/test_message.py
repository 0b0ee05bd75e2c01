"""Tests for the message envelope."""

import dataclasses

from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator
from repro.wire.codec import SizeMemo, frame_size


def wire_size(payload) -> int:
    """``payload``'s json size, sized through a fresh network-style memo."""
    return frame_size(payload, SizeMemo(MetricsRegistry()))


def make(topic="a/b", body=None, **kwargs):
    return Message(
        topic=Topic.parse(topic), body=body or {"k": 1}, source="src", **kwargs
    )


class TestMessage:
    def test_ids_unique(self):
        """Ids come from the network a message enters, one counter per network."""
        sim = Simulator()
        network = BrokerNetwork(sim, seed=1)
        network.add_broker("b1")
        client = network.add_client("c")
        network.connect_client(client, "b1")
        published = [client.publish("a/b", {"k": i}) for i in range(3)]
        assert make().message_id == 0  # not yet in a network
        assert [m.message_id for m in published] == [1, 2, 3]
        other = BrokerNetwork(Simulator(), seed=1)
        other.add_broker("b1")
        assert next(other.message_ids) == 1  # untouched by the first network

    def test_with_hops_stamps_the_count(self):
        message = make()
        stamped = message.with_hops(2)
        assert message.hops == 0
        assert stamped.hops == 2
        assert stamped.message_id == message.message_id
        assert stamped.with_hops(0) == message

    def test_with_hops_copies_every_other_field(self):
        # the stamp builds its copy by hand: walk the dataclass so that a
        # field added later cannot be dropped silently
        message = Message(
            Topic.parse("a/b"),
            {"k": 1},
            "src",
            message_id=7,
            created_ms=12.5,
            signature={"sig": b"x"},
            auth_token={"tok": 1},
            encrypted=True,
            hops=3,
        )
        for stamped, changed, value in (
            (message.with_hops(4), "hops", 4),
            (message.with_message_id(9), "message_id", 9),
        ):
            assert getattr(stamped, changed) == value
            for field in dataclasses.fields(Message):
                original = getattr(message, field.name)
                assert original != field.default, f"{field.name} left at its default"
                if field.name != changed:
                    assert getattr(stamped, field.name) is original, field.name

    def test_wire_dict_complete(self):
        message = make(signature={"sig": b"x"}, auth_token={"tok": 1}, encrypted=True)
        wire = message.wire_dict()
        assert wire["topic"] == "a/b"
        assert wire["signature"] == {"sig": b"x"}
        assert wire["auth_token"] == {"tok": 1}
        assert wire["encrypted"] is True

    def test_wire_size_grows_with_payload(self):
        small = make(body={"k": 1})
        large = make(body={"k": "x" * 2000})
        assert wire_size(large) > wire_size(small) + 1500

    def test_signed_message_larger_on_wire(self):
        plain = make()
        signed = make(signature={"payload": {"k": 1}, "sig": b"s" * 64})
        assert wire_size(signed) > wire_size(plain)
