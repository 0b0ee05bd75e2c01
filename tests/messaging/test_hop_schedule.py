"""The schedule of a forwarded frame, pinned step by step.

A pass-through hop is two heap entries: the link's delivery, which
starts the receiving broker's CPU hold (``Resource.use_then``), and the
hold's timer, which forwards the frame.  Only a frame that waits on more
than the hold (a publish guard, a local delivery) runs as a
``_neighbor_ingress`` process.  The keys below pin that schedule: making
the hop cheaper in host time must not add, drop or reorder an entry
without this file saying so.  ``test_hop_oracle`` holds the two-entry hop
to the three-entry hop it replaced over generated fabrics.
"""

from __future__ import annotations

import pytest

from repro.messaging import message as message_module
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.sim.engine import Process, Simulator
from repro.transport.tcp import tcp_profile
from tests.support import build_chain

TOPIC = "Traces/e-1/Change"


def line(brokers: int) -> tuple[Simulator, BrokerNetwork, list[Message]]:
    """b0 - b1 - … on jitter-free ordered links, one subscriber at the far end."""
    sim = Simulator()
    network = BrokerNetwork(sim, seed=0, default_profile=tcp_profile(jitter_ms=0.0))
    ids = [f"b{i}" for i in range(brokers)]
    build_chain(network, ids)
    got: list[Message] = []
    network.broker(ids[-1]).subscribe_local(TOPIC, got.append)
    return sim, network, got


def publish(network: BrokerNetwork, body: str) -> None:
    network.broker("b0").publish_from_broker(
        Message(topic=Topic(TOPIC), body=body, source="b0")
    )


def executed_keys(sim: Simulator) -> list[tuple[float, int]]:
    """Run to the end; the ``(time, seq)`` key of every entry, in order."""
    keys = []
    while sim._heap:
        keys.append(sim._heap[0][:2])
        sim.step()
    return keys


def test_two_frames_tied_at_one_broker_run_in_the_pinned_order():
    # two equal-sized frames leave b0 together and reach b1 at the same
    # float instant (4.463052734375).  Before the hop was two entries, each
    # delivery at b1 pushed a start entry (keys 8 and 9) that began its
    # hold, so frame "two"'s delivery (key 6) ran before frame "one"'s hold
    # began; now "one"'s hold begins inside its own delivery (key 4),
    # before "two"'s delivery runs.  That is the one pair of entries whose
    # order changed; the hold timers at b1 take keys 8 and 9, the start
    # entries and the sequence number each finished pass-through took are
    # gone, and delivery order and hops are the same
    sim, network, got = line(3)
    publish(network, "one")
    publish(network, "two")
    assert executed_keys(sim) == [
        (0.0, 0), (0.0, 1),                      # both b0 ingress starts
        (2.9, 2), (2.9, 3),                      # b0's CPU timers: forward
        (4.463052734375, 4), (4.463052734375, 6),  # tied deliveries at b1: holds start
        (7.363052734375, 8), (7.363052734375, 9),  # b1's timers: forward
        (8.92610546875, 10), (8.92610546875, 11),  # deliveries at b2
        (8.92610546875, 12), (8.92610546875, 13),  # b2 ingress starts
        (11.82610546875, 14), (11.82610546875, 15),  # b2's processing timers
        (11.91610546875, 16), (11.91610546875, 17),  # per-delivery timers
    ]
    assert [(message.body, message.hops) for message in got] == [("one", 2), ("two", 2)]
    assert sim._seq == 20


def steps_to_deliver(brokers: int) -> int:
    sim, network, got = line(brokers)
    publish(network, "x")
    steps = len(executed_keys(sim))
    assert len(got) == 1
    return steps


@pytest.mark.parametrize("brokers", [2, 3, 5])
def test_one_pass_through_hop_is_two_steps(brokers):
    # the delivery, which starts the CPU hold, and the hold's timer
    assert steps_to_deliver(brokers + 1) - steps_to_deliver(brokers) == 2


@pytest.mark.parametrize("brokers", [3, 5, 8])
def test_a_longer_line_builds_no_more_processes(brokers, monkeypatch):
    # the origin's ingress and the destination's ingress; the pass-through
    # hops between them build none
    built = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    sim, network, got = line(brokers)
    publish(network, "x")
    sim.run()
    assert len(got) == 1
    assert len(built) == 2


@pytest.mark.parametrize("brokers", [3, 5, 8])
def test_a_longer_line_copies_the_message_once(brokers, monkeypatch):
    # the frames carry the hop count; the one copy is the stamp at the
    # delivering broker, which hands its handler the whole count
    copies = []
    copy = message_module._copy

    def counting_copy(message, message_id, hops):
        copies.append(hops)
        return copy(message, message_id, hops)

    sim, network, got = line(brokers)
    publish(network, "x")
    monkeypatch.setattr(message_module, "_copy", counting_copy)
    sim.run()
    assert copies == [brokers - 1]
    assert [message.hops for message in got] == [brokers - 1]
