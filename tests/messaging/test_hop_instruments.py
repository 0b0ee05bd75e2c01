"""A forwarded frame holds its instruments; it does not look them up by name.

``Link`` and ``Broker`` resolve each per-hop instrument on first use and
keep the instrument (docs/OBSERVABILITY.md "Adding an instrument").  The
first test makes the registry refuse those names after a warm-up frame;
the second pins the other half of the rule: construction registers
nothing, so no snapshot gains a zero-valued name.
"""

from __future__ import annotations

import pytest

from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message
from repro.messaging.topics import Topic
from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator
from tests.support import build_chain

TOPIC = "Traces/e-1/Change"

#: The instruments of the healthy send -> _deliver -> receive_from_neighbor
#: -> _pass_through -> _forward path (plus ``_ingress`` at the origin and
#: ``_neighbor_ingress`` at the destination).
HELD = frozenset(
    {
        "transport.msgs.sent",
        "transport.bytes.sent",
        "transport.msgs.delivered",
        "transport.latency_ms",
        "transport.inflight",
        "broker.msgs.ingress",
        "broker.msgs.forwarded_in",
        "broker.msgs.forwarded_out",
    }
)


@pytest.fixture
def line():
    """b0 - b1 - b2 with one subscriber at b2: two hops (a ring of three has none)."""
    sim = Simulator()
    network = BrokerNetwork(sim, seed=0)
    build_chain(network, ["b0", "b1", "b2"])
    got: list[Message] = []
    network.broker("b2").subscribe_local(TOPIC, got.append)
    return sim, network, got


def publish(sim, network, body) -> None:
    network.broker("b0").publish_from_broker(
        Message(topic=Topic(TOPIC), body=body, source="b0")
    )
    sim.run()


def test_second_frame_looks_up_no_hop_instrument_by_name(line, monkeypatch):
    sim, network, got = line
    metrics = network.monitor.metrics
    publish(sim, network, 1)
    codec_bytes = f"codec.bytes.{network.broker('b0').neighbor_links['b1'].codec.name}"
    held = HELD | {codec_bytes}
    assert held <= set(metrics.names())

    for factory in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, factory)

        def refusing(self, name, *args, _original=original, _factory=factory, **kwargs):
            if name in held:
                raise AssertionError(f"per-hop lookup by name: {_factory}({name!r})")
            return _original(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, factory, refusing)

    counters = (
        "transport.msgs.sent",
        "transport.msgs.delivered",
        "broker.msgs.forwarded_in",
        "broker.msgs.forwarded_out",
    )
    before = {name: metrics.counter_value(name) for name in counters}
    bytes_before = metrics.counter_value("transport.bytes.sent")
    samples_before = metrics.snapshot()["histograms"]["transport.latency_ms"]["count"]
    publish(sim, network, 2)

    assert [message.body for message in got] == [1, 2]
    assert {name: metrics.counter_value(name) - before[name] for name in counters} == {
        name: 2 for name in counters
    }
    assert metrics.counter_value("transport.bytes.sent") > bytes_before
    assert (
        metrics.snapshot()["histograms"]["transport.latency_ms"]["count"]
        == samples_before + 2
    )
    assert metrics.gauge_value("transport.inflight") == 0


def test_idle_brokers_and_links_register_nothing(line):
    _sim, network, _got = line
    # the subscription counted itself and announced interest; wiring three
    # brokers and four links added no instrument of their own
    assert [
        name
        for name in network.monitor.metrics.names()
        if not name.startswith("broker.interest.")
    ] == ["broker.subscriptions.broker"]
