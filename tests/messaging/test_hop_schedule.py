"""The schedule of a forwarded frame, pinned step by step.

A pass-through hop is three heap entries: the link's delivery, the
receiving broker's start entry, and the timer of its CPU hold
(``Machine.compute_then``), after which the frame is forwarded.  Only a
frame that waits on more than the hold (a publish guard, a local
delivery) runs as a ``_neighbor_ingress`` process, under the same keys.
Making the hop cheaper in host time must not add, drop or reorder any of
the entries: every committed seed and the benchmark's ``sim_digest`` hang
on that order.
"""

from __future__ import annotations

import pytest

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
    # float instant (4.463052734375): the keys below are the engine's
    # order for that tie, as recorded before the hop was made cheaper
    sim, network, got = line(3)
    publish(network, "one")
    publish(network, "two")
    assert executed_keys(sim) == [
        (0.0, 0), (0.0, 1),                      # both b0 ingress starts
        (2.9, 2), (2.9, 3),                      # b0's CPU timers: forward
        (4.463052734375, 4), (4.463052734375, 6),  # tied deliveries at b1
        (4.463052734375, 8), (4.463052734375, 9),  # b1 ingress starts
        (7.363052734375, 10), (7.363052734375, 11),  # b1's timers: forward
        (8.92610546875, 12), (8.92610546875, 14),  # deliveries at b2
        (8.92610546875, 16), (8.92610546875, 17),  # b2 ingress starts
        (11.82610546875, 18), (11.82610546875, 19),  # b2's processing timers
        (11.91610546875, 20), (11.91610546875, 21),  # per-delivery timers
    ]
    assert [(message.body, message.hops) for message in got] == [("one", 2), ("two", 2)]
    assert sim._seq == 24


def steps_to_deliver(brokers: int) -> int:
    sim, network, got = line(brokers)
    publish(network, "x")
    steps = len(executed_keys(sim))
    assert len(got) == 1
    return steps


@pytest.mark.parametrize("brokers", [2, 3, 5])
def test_one_pass_through_hop_is_three_steps(brokers):
    # delivery, ingress start, CPU timer
    assert steps_to_deliver(brokers + 1) - steps_to_deliver(brokers) == 3


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
