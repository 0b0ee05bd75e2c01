"""Denial-of-service attacker models (section 5.2).

Two attacks the paper's design defeats:

* **Spurious trace injection** — an attacker publishes fabricated trace
  messages.  Routing brokers discard them because they lack a valid
  authorization token; repeated attempts get the attacker's connection
  terminated.  :class:`SpuriousTracePublisher` mounts exactly this attack
  so tests and examples can observe the defense.

* **Direct attack on the traced entity** — impossible without knowing the
  entity's location; all communication goes through topics embedding the
  unguessable 128-bit trace topic.  :func:`attack_surface` reports which
  principals know a given entity's location, demonstrating the claim.
"""

from __future__ import annotations

from typing import Generator

from repro.auth.tokens import AuthorizationToken, TokenRights
from repro.crypto.costmodel import CryptoOp
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.client import BrokerClient
from repro.sim.engine import Event, Simulator
from repro.sim.machine import Machine
from repro.tracing.topics import TraceTopicSet
from repro.tracing.traces import TraceType
from repro.util.identifiers import EntityId, UUID128
from repro.util.serialization import Canonical


class SpuriousTracePublisher:
    """An attacker injecting fabricated traces about a victim entity.

    The attacker is assumed to have *somehow* learned the victim's trace
    topic (worst case) but holds no delegation from the victim, so it
    cannot produce a valid authorization token: any token it forges fails
    the owner-signature check at the first broker.
    """

    def __init__(
        self,
        sim: Simulator,
        attacker_id: str,
        network: BrokerNetwork,
        machine: Machine,
    ) -> None:
        self.sim = sim
        self.attacker_id = attacker_id
        self.network = network
        self.machine = machine
        self.client: BrokerClient | None = None
        self.attempts = 0

    def connect(self, broker_id: str) -> None:
        self.client = self.network.add_client(
            self.attacker_id, machine_name=self.machine.name
        )
        self.network.connect_client(self.client, broker_id)

    def inject_without_token(
        self, trace_topic: UUID128, victim: EntityId | str
    ) -> Generator[Event, None, None]:
        """Publish a fabricated FAILED trace with no token at all."""
        topics = TraceTopicSet(trace_topic, _as_entity(victim))
        body = self._fake_body(trace_topic, victim)
        self.attempts += 1
        self.client.publish(topics.change_notifications, body)
        yield self.sim.timeout(0.0)

    def inject_with_forged_token(
        self,
        trace_topic: UUID128,
        victim: EntityId | str,
        forged_advertisement,
    ) -> Generator[Event, None, None]:
        """Publish with a token signed by the attacker's *own* key.

        ``forged_advertisement`` is whatever advertisement the attacker can
        produce — it will not verify against a trusted TDN key, or its
        owner key will not match the token signature.
        """
        yield from self.machine.charge(CryptoOp.TOKEN_GENERATE_AND_SIGN)
        from repro.crypto.keys import KeyPair

        attacker_keys = KeyPair.generate(self.machine.rng)
        token, token_private = AuthorizationToken.create(
            advertisement=forged_advertisement,
            owner_private_key=attacker_keys.private,
            rights=TokenRights.PUBLISH,
            now_ms=self.machine.now(),
            duration_ms=600_000.0,
            rng=self.machine.rng,
        )
        topics = TraceTopicSet(trace_topic, _as_entity(victim))
        body = Canonical.of(self._fake_body(trace_topic, victim))
        yield from self.machine.charge(CryptoOp.TRACE_SIGN)
        from repro.crypto.signing import sign_payload

        envelope = sign_payload(body, token_private)
        self.attempts += 1
        self.client.publish(
            topics.change_notifications,
            body,
            signature=envelope.to_dict(),
            auth_token=token.wire,
        )
        yield self.sim.timeout(0.0)

    def flood(
        self, trace_topic: UUID128, victim: EntityId | str, count: int,
        spacing_ms: float = 1.0,
    ) -> Generator[Event, None, None]:
        """Repeated bogus attempts — enough to trigger termination."""
        for _ in range(count):
            if self.client is None or not self.client.connected:
                break
            yield from self.inject_without_token(trace_topic, victim)
            yield self.sim.timeout(spacing_ms)

    def _fake_body(self, trace_topic: UUID128, victim: EntityId | str) -> dict:
        return {
            "trace_type": TraceType.FAILED.value,
            "entity_id": str(victim),
            "trace_topic": trace_topic.hex,
            "session": "0" * 32,
            "payload": {"forged_by": self.attacker_id},
            "origin_stamp_ms": None,
            "broker_stamp_ms": self.machine.now(),
        }


def _as_entity(victim: EntityId | str) -> EntityId:
    return victim if isinstance(victim, EntityId) else EntityId(str(victim))


def attack_surface(
    network: BrokerNetwork, hosting_broker_id: str, entity_id: str
) -> dict:
    """Which principals can locate the traced entity (section 5.2).

    "Except the broker that a given traced entity is connected to, no other
    entity within the system is aware of the actual physical location of a
    given traced entity."
    """
    knows_location = []
    for broker in network.brokers():
        if entity_id in broker.client_ids:
            knows_location.append(broker.broker_id)
    return {
        "entity": entity_id,
        "brokers_knowing_location": knows_location,
        "expected": [hosting_broker_id],
        "location_confined_to_hosting_broker": knows_location == [hosting_broker_id],
    }
