"""Tests for the message envelope."""

import dataclasses

from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.sim.engine import Simulator
from repro.wire.codec import frame_size


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

    def test_with_hop_increments(self):
        message = make()
        hopped = message.with_hop().with_hop()
        assert message.hops == 0
        assert hopped.hops == 2
        assert hopped.message_id == message.message_id

    def test_with_hop_copies_every_other_field(self):
        # with_hop builds its copy by hand: walk the dataclass so that a
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
        hopped = message.with_hop()
        assert hopped.hops == 4
        for field in dataclasses.fields(Message):
            value = getattr(message, field.name)
            assert value != field.default, f"{field.name} left at its default"
            if field.name != "hops":
                assert getattr(hopped, field.name) is value, field.name

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
        assert frame_size(large) > frame_size(small) + 1500

    def test_signed_message_larger_on_wire(self):
        plain = make()
        signed = make(signature={"payload": {"k": 1}, "sig": b"s" * 64})
        assert frame_size(signed) > frame_size(plain)
