"""The four benchmark workloads: set-up, one slice of input, output checks.

A workload object is built once per pass (that is the pass's *set-up*) and
then driven slice by slice: ``run_slice(i)`` feeds one fixed unit of input
and makes exactly one ``Simulator.run`` call.  All generated input — which
topic is published, which entity churns — comes from the ``random.Random``
the harness owns; the program receives only the generated calls.  Virtual
time (``sim.now``, slice lengths, fault times) is never mixed with host
time: nothing in this module reads a wall clock.

Set-up calls ``breathe()`` between its stages.  The pass uses those pauses
to sample host speed (``one_pass.py``), which it cannot do from inside one
long call; workloads attach no other meaning to it.

``repro`` functions the span recorder may wrap are reached through their
module (``analytics.build_report``), never bound by ``from ... import``:
a name copied here before the recorder is installed would escape it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from repro import analytics, build_deployment
from repro.bench.hotpath import HOTPATH_PING_POLICY
from repro.faults.controller import FaultController
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.scenarios import CHAOS_PING_POLICY
from repro.messaging.broker_network import BrokerNetwork
from repro.messaging.message import Message, reset_message_ids
from repro.messaging.topics import Topic
from repro.sim.engine import Simulator
from repro.tracing.traces import TraceType

#: Slices in the measured window of an untraced pass, per 10 s of
#: ``--seconds``, and at the self-test scale.
WINDOW_SLICES = 240
SMOKE_SLICES = 24

CODEC = "json"


@dataclass(frozen=True)
class Verdict:
    """Output check of one pass: operations attempted, failed, and why."""

    attempted: int
    failed: int
    violations: tuple[str, ...]


def counter_snapshot(monitor) -> dict[str, int]:
    """Every deterministic count of a run: registry counters + monitor counters."""
    counts = {f"monitor.{name}": value for name, value in monitor.counters().items()}
    counts.update(monitor.metrics.snapshot()["counters"])
    return counts


def sim_digest(monitor, sim) -> str:
    """sha256 over the sorted counter snapshot and the final virtual time.

    Equal digests mean two runs simulated the same thing; a change meant
    only to speed the simulator up must leave it unchanged.
    """
    text = json.dumps([sorted(counter_snapshot(monitor).items()), repr(sim.now)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Workload:
    """Shared bookkeeping: counter deltas over the measured window."""

    name: str
    sim: Simulator
    monitor: object

    def begin_window(self) -> None:
        self._before = counter_snapshot(self.monitor)
        self.window_start_ms = self.sim.now

    def finish(self) -> None:
        """Post-window step that is part of ``run_s`` (evidence building)."""

    def end_window(self) -> None:
        after = counter_snapshot(self.monitor)
        self.deltas = {
            name: value - self._before.get(name, 0) for name, value in after.items()
        }

    def delta(self, name: str) -> int:
        return self.deltas.get(name, 0)

    def _rises(self, *names: str) -> list[tuple[str, int]]:
        return [(f"rise of {name}", self.delta(name)) for name in names]

    def _verdict(
        self, attempted: int, checks: list[tuple[str, int]], lines: list[str]
    ) -> Verdict:
        """``checks`` count failed operations; each of ``lines`` is one more."""
        violations = [f"{label}: {count}" for label, count in checks if count] + lines
        return Verdict(attempted, sum(count for _, count in checks) + len(lines), tuple(violations))


# --------------------------------------------------------------------- fabric


def entity_topic(index: int) -> str:
    return f"Traces/{index:06x}/Change"


class Fabric(_Workload):
    """Ring of brokers on the federated plane with one pattern per entity.

    A slice is ``churn_pairs`` × (unsubscribe a seeded live entity, subscribe
    a fresh one) followed by ``publishes`` publishes to seeded live topics,
    each injected at the broker diametrically opposite the subscriber, then
    a drain.  ``fabric-route`` has ``churn_pairs == 0``.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        brokers: int,
        patterns: int,
        publishes: int,
        churn_pairs: int,
        breathe: Callable[[], None],
    ) -> None:
        self.name = name
        self.rng = random.Random(seed)
        self.publishes = publishes
        self.churn_pairs = churn_pairs
        reset_message_ids()
        self.sim = Simulator()
        self.network = BrokerNetwork(self.sim, seed=seed, federation=True, codec=CODEC)
        self.monitor = self.network.monitor
        self.ids = [f"b{i:03d}" for i in range(brokers)]
        for broker_id in self.ids:
            self.network.add_broker(broker_id)
        for i in range(brokers):
            self.network.connect_brokers(self.ids[i], self.ids[(i + 1) % brokers])

        self.received = 0
        self.attempted = 0
        self.handler = self._on_trace
        self.live = list(range(patterns))
        self.next_entity = patterns
        for index in self.live:
            self._owner(index).subscribe_local(entity_topic(index), self.handler)
            if index % 4096 == 0:
                breathe()
        # warm-up: the first publish flushes every broker's summary; after
        # this the window starts on a converged control plane
        for _ in range(2 * brokers):
            self._publish(self.rng.choice(self.live))
        self.sim.run()
        breathe()
        self.received = self.attempted = 0

    def _on_trace(self, message: Message) -> None:
        self.received += 1

    def _owner(self, index: int):
        return self.network.broker(self.ids[index % len(self.ids)])

    def _publish(self, index: int) -> None:
        origin = self.ids[(index + len(self.ids) // 2) % len(self.ids)]
        self.network.broker(origin).publish_from_broker(
            Message(topic=Topic(entity_topic(index)), body=self.attempted, source=origin)
        )
        self.attempted += 1

    def run_slice(self, index: int) -> None:
        rng, live = self.rng, self.live
        for _ in range(self.churn_pairs):
            slot = rng.randrange(len(live))
            leaving, joining = live[slot], self.next_entity
            self._owner(leaving).unsubscribe_local(entity_topic(leaving), self.handler)
            self._owner(joining).subscribe_local(entity_topic(joining), self.handler)
            live[slot] = joining
            self.next_entity += 1
        for _ in range(self.publishes):
            self._publish(rng.choice(live))
        self.sim.run()

    def verdict(self) -> Verdict:
        checks = [
            ("publishes to a live subscriber without a handler receipt",
             self.attempted - self.received),
            *self._rises("broker.msgs.unroutable", "broker.interest.stale_forwards"),
        ]
        return self._verdict(self.attempted, checks, [])


# ---------------------------------------------------------------------- traces


class _Traced(_Workload):
    """Common tail of the two tracing workloads: trackers, slices, checks."""

    slice_ms: float

    def _track_all(self, track_at_ms: float, warm_until_ms: float, breathe) -> None:
        self._warm_until(track_at_ms, breathe)
        for tracker in self.trackers:
            for entity in self.entities:
                tracker.track(str(entity.entity_id))
        self._warm_until(warm_until_ms, breathe)

    def _warm_until(self, until_ms: float, breathe: Callable[[], None]) -> None:
        while self.sim.now < until_ms:
            self.sim.run(until=min(until_ms, self.sim.now + 250.0))
            breathe()

    def run_slice(self, index: int) -> None:
        self.sim.run(until=self.window_start_ms + (index + 1) * self.slice_ms)

    def _silent_pairs(self) -> list[str]:
        """tracker×entity pairs that saw no trace inside the window."""
        silent = []
        for tracker in self.trackers:
            heard = {
                trace.entity_id
                for trace in tracker.received
                if trace.received_ms >= self.window_start_ms
            }
            silent += [
                f"{tracker.tracker_id} received no trace of {entity.entity_id}"
                for entity in self.entities
                if str(entity.entity_id) not in heard
            ]
        return silent


class TraceSteady(_Traced):
    """Paper Figure 1 in its steady state: no faults, no encryption."""

    name = "trace-steady"

    def __init__(
        self, seed: int, entities: int, slice_ms: float, breathe: Callable[[], None]
    ) -> None:
        self.slice_ms = slice_ms
        reset_message_ids()
        self.dep = build_deployment(
            broker_ids=["b1", "b2", "b3"],
            seed=seed,
            ping_policy=HOTPATH_PING_POLICY,
            codec=CODEC,
        )
        self.sim, self.monitor = self.dep.sim, self.dep.monitor
        # four entities per host, so ping coalescing is live
        self.entities = []
        for i in range(entities):
            self.entities.append(
                self.dep.add_traced_entity(f"svc-{i:02d}", machine_name=f"host-{i // 4}")
            )
            breathe()  # each principal costs an RSA key pair
        self.trackers = []
        for tracker_id, broker_id in (("w1", "b3"), ("w2", "b2"), ("w3", "b1")):
            tracker = self.dep.add_tracker(tracker_id)
            tracker.connect(broker_id)
            self.trackers.append(tracker)
        for i, entity in enumerate(self.entities):
            entity.start("b1" if (i // 4) % 2 == 0 else "b2")
        self._track_all(2_000.0, 4_000.0, breathe)

    def verdict(self) -> Verdict:
        checks = self._rises(
            "broker.msgs.unroutable",
            "broker.interest.stale_forwards",
            "broker.msgs.rejected",
            # no fault is injected, so every FAILED verdict is a false one
            f"monitor.trace.published.{TraceType.FAILED.value}",
        )
        return self._verdict(self.delta("broker.msgs.ingress"), checks, self._silent_pairs())


#: One fault episode of ``trace-secure``, in virtual ms from its start:
#: every entity crashes for long enough to be declared FAILED (six missed
#: pings ≈ 2 s under ``CHAOS_PING_POLICY``) and re-registers, then the
#: broker hosting them crashes, they fail over, and it restarts cold.
EPISODE_MS = 6_000.0
ENTITY_CRASH_AT_MS = 200.0
ENTITY_CRASH_STAGGER_MS = 300.0
ENTITY_CRASH_MS = 2_800.0
BROKER_CRASH_AT_MS = 4_200.0
BROKER_CRASH_MS = 1_400.0
FAILOVER_AFTER_MS = 600.0


class TraceSecure(_Traced):
    """Secured entities under entity and broker crashes, with evidence.

    Entities live on ``b1``/``b2`` (whichever did not crash last), both
    trackers on ``b3``, which never crashes.  Frames addressed to a crashed
    broker are dropped by design (``Broker._forward`` counts them as
    unroutable), so unroutable legs count as failures only in slices that
    do not overlap a broker outage.
    """

    name = "trace-secure"

    def __init__(
        self,
        seed: int,
        entities: int,
        slice_ms: float,
        slices: int,
        breathe: Callable[[], None],
    ) -> None:
        self.slice_ms = slice_ms
        self.seed = seed
        reset_message_ids()
        self.dep = build_deployment(
            broker_ids=["b1", "b2", "b3"],
            seed=seed,
            ping_policy=CHAOS_PING_POLICY,
            extra_links=[("b1", "b3")],
            codec=CODEC,
        )
        self.sim, self.monitor = self.dep.sim, self.dep.monitor
        self.dep.attach_analytics(analytics.AnalyticsStore())
        self.entities = []
        for i in range(entities):
            self.entities.append(self.dep.add_traced_entity(f"svc-{i}", secured=True))
            breathe()
        self.trackers = []
        for tracker_id in ("w1", "w2"):
            tracker = self.dep.add_tracker(tracker_id)
            # answer every interest gauge: a re-registered session must not
            # wait out a refresh interval before its traces flow again
            tracker.interest_refresh_ms = 0.0
            tracker.connect("b3")
            self.trackers.append(tracker)
        for entity in self.entities:
            entity.start("b1")

        warm_until_ms = 6_000.0
        episodes = int(slices * slice_ms // EPISODE_MS)
        if episodes < 1:
            raise ValueError(
                f"{slices} slices of {slice_ms} ms do not hold one {EPISODE_MS} ms fault episode"
            )
        events, self.outages = [], []
        hosts = ("b1", "b2")
        for episode in range(episodes):
            start = warm_until_ms + episode * EPISODE_MS
            for i, entity in enumerate(self.entities):
                events.append(
                    FaultEvent(
                        kind=FaultKind.ENTITY_CRASH,
                        at_ms=start + ENTITY_CRASH_AT_MS + i * ENTITY_CRASH_STAGGER_MS,
                        target=str(entity.entity_id),
                        duration_ms=ENTITY_CRASH_MS,
                    )
                )
            crash_at = start + BROKER_CRASH_AT_MS
            events.append(
                FaultEvent(
                    kind=FaultKind.BROKER_CRASH,
                    at_ms=crash_at,
                    target=hosts[episode % 2],
                    duration_ms=BROKER_CRASH_MS,
                    failover_to=hosts[(episode + 1) % 2],
                    detect_after_ms=FAILOVER_AFTER_MS,
                )
            )
            self.outages.append((crash_at, crash_at + BROKER_CRASH_MS))
        self.expected_recoveries = episodes * 2 * entities
        FaultController(self.dep, FaultPlan(name=self.name, events=tuple(events))).start()
        self._track_all(3_000.0, warm_until_ms, breathe)
        self._unroutable = self.monitor.metrics.counter("broker.msgs.unroutable")
        self.unroutable_while_up = 0

    def run_slice(self, index: int) -> None:
        start_ms = self.sim.now
        before = self._unroutable.value
        super().run_slice(index)
        if not any(down <= self.sim.now and start_ms <= up for down, up in self.outages):
            self.unroutable_while_up += self._unroutable.value - before

    def finish(self) -> None:
        self.dep.finalize_analytics(scenario=self.name, seed=self.seed)
        self.findings = analytics.audit_deployment(self.dep)
        self.report = analytics.build_report(self.dep.analytics)

    def verdict(self) -> Verdict:
        recoveries = self.delta("trace.recovery.completed")
        checks = [
            ("broker.msgs.unroutable outside a broker outage", self.unroutable_while_up),
            *self._rises("broker.interest.stale_forwards", "broker.msgs.rejected"),
            ("recoveries detected but not completed",
             self.delta("trace.recovery.detected") - recoveries),
            # the fault plan is part of the input: a schedule whose crashes
            # went undetected would measure a different workload
            (f"recoveries short of the {self.expected_recoveries} the fault plan implies",
             abs(self.expected_recoveries - recoveries)),
        ]
        evidence = [f.describe() for f in self.findings if not f.complete]
        evidence += [
            f"report has no uptime for {entity.entity_id}"
            for entity in self.entities
            if self.report["entities"].get(str(entity.entity_id), {}).get("uptime_ms") is None
        ]
        return self._verdict(
            self.delta("broker.msgs.ingress"), checks, evidence + self._silent_pairs()
        )


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    #: slices of a traced run; one fault episode on ``trace-secure``
    traced_slices: int = 60

    def window_slices(self, seconds: int) -> int:
        """Slices per untraced pass: 240 per 10 s asked for, never fewer.

        A slice is a fixed unit of work, so asking for more seconds adds
        whole traced-run lengths instead of stretching a slice: per-slice
        metrics stay comparable across ``--seconds``.
        """
        units = round(seconds * WINDOW_SLICES / 10 / self.traced_slices)
        return max(WINDOW_SLICES, units * self.traced_slices)


SECURE_SLICE_MS = 50.0

SPECS = (
    Spec(
        "fabric-route",
        "64-broker ring, 100k patterns, publishes only: the read path of federation, "
        "matching, sim, transport and wire; no crypto, no tracing",
    ),
    Spec(
        "fabric-churn",
        "32-broker ring, 50k patterns, unsubscribe/subscribe beside publishes: the same "
        "layers under writes (summary flush, index add/remove, control floods)",
    ),
    Spec(
        "trace-steady",
        "paper Fig. 1 steady state, 24 unsecured entities, 3 trackers: serialization, RSA, "
        "topics and tracing; bypasses AES, faults and the large-fabric paths",
    ),
    Spec(
        "trace-secure",
        "4 secured entities under entity and broker crashes with the analytics store: AES, "
        "key distribution, re-registration, faults, journal and evidence",
        traced_slices=int(EPISODE_MS / SECURE_SLICE_MS),
    ),
)
NAMES = tuple(spec.name for spec in SPECS)


def spec_of(name: str) -> Spec:
    for spec in SPECS:
        if spec.name == name:
            return spec
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def build(
    name: str, seed: int, slices: int, smoke: bool, breathe: Callable[[], None]
) -> _Workload:
    """Set one workload up; ``smoke`` is the self-test scale (test_perf.py)."""
    if name == "fabric-route":
        brokers, patterns = (8, 2_000) if smoke else (64, 100_000)
        return Fabric(name, seed, brokers, patterns, 8, 0, breathe)
    if name == "fabric-churn":
        brokers, patterns = (8, 2_000) if smoke else (32, 50_000)
        return Fabric(name, seed, brokers, patterns, 1, 4, breathe)
    if name == "trace-steady":
        return TraceSteady(seed, 4 if smoke else 24, 80.0, breathe)
    if name == "trace-secure":
        # one fault episode must fit the smoke scale's 24 slices; two secured
        # entities keep the self-test under its 30 s
        if smoke:
            return TraceSecure(seed, 2, EPISODE_MS / SMOKE_SLICES, slices, breathe)
        return TraceSecure(seed, 4, SECURE_SLICE_MS, slices, breathe)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
