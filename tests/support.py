"""Helpers and oracles the tests share and the package itself never calls.

Each reads only state the package keeps anyway; ``tests/test_reachability.py``
is why they live here and not in ``src/repro``.
"""

from __future__ import annotations

import gc
import json
from collections import deque
from types import GeneratorType
from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.crypto.costmodel import CryptoCostModel, CryptoOp, OpCost
from repro.errors import RoutingError, SimulationError
from repro.messaging.federation import _InterestAccumulator, _LaneTable
from repro.messaging.routing import _sorted_adjacency, _walk
from repro.sim.engine import Event, Resource, Simulator
from repro.tracing.broker_ops import TraceManager
from repro.tracing.traces import TraceType
from repro.tracing.tracker import ReceivedTrace

# -------------------------------------------------------------------- crypto


def free_cost_model() -> CryptoCostModel:
    """A cost model charging zero time for every operation."""
    return CryptoCostModel(calibration={op: OpCost(0.0, 0.0, 0.0) for op in CryptoOp}, seed=0)


# ----------------------------------------------------------------------- sim


def run_process(sim: Simulator, generator, name: str = "") -> Any:
    """Spawn a process, step until it completes, and return its result."""
    proc = sim.process(generator, name)
    while proc._state == Event.PENDING:
        if not sim.step():
            raise SimulationError(f"deadlock: process {proc.name!r} never completed")
    return proc.value


def succeeded(event: Event) -> bool:
    """Triggered, and without an exception."""
    return event.triggered and event._exception is None


def occupancy(resource: Resource) -> tuple[int, int]:
    """``(slots in use, waiters queued)``."""
    return resource._in_use, len(resource._waiters)


# ------------------------------------------------------------------- routing

NodeId = Hashable


def bfs_next_hops(
    adjacency: Mapping[NodeId, set[NodeId]], source: NodeId
) -> dict[NodeId, NodeId]:
    """Next-hop table from ``source`` alone, through the walk ``all_next_hops`` uses."""
    if source not in adjacency:
        raise RoutingError(f"unknown source node {source!r}")
    return _walk(_sorted_adjacency(adjacency), source)


def hop_distance(adjacency: Mapping[NodeId, set[NodeId]], a: NodeId, b: NodeId) -> int:
    """Shortest hop count between two nodes (0 if identical), by its own BFS."""
    if a == b:
        return 0
    if a not in adjacency:
        raise RoutingError(f"unknown node {a!r}")
    visited = {a}
    queue: deque[tuple[NodeId, int]] = deque([(a, 0)])
    while queue:
        node, dist = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            if neighbor == b:
                return dist + 1
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append((neighbor, dist + 1))
    raise RoutingError(f"no path from {a!r} to {b!r}")


def network_hops(network, a: str, b: str) -> int:
    """Broker-to-broker hop count over a network's current adjacency."""
    adjacency = {
        broker.broker_id: set(network.neighbors_of(broker.broker_id))
        for broker in network.brokers()
    }
    return hop_distance(adjacency, a, b)


def build_chain(network, broker_ids: Iterable[str], profile=None) -> list:
    """A linear chain of brokers (the paper's Figure 1 topology)."""
    ids = list(broker_ids)
    brokers = [network._brokers.get(bid) or network.add_broker(bid) for bid in ids]
    for left, right in zip(ids, ids[1:], strict=False):
        network.connect_brokers(left, right, profile)
    return brokers


def stale_interest_entries(network, client_id: str | None = None) -> list[str]:
    """Fabric interest that no broker's announced patterns back.

    On the verbatim plane every ``(pattern, owner)`` the fabric advertises
    must be a pattern the owning broker announces.  The federated plane
    keeps no patterns, so each broker's count there must equal the number
    of patterns it announces, and its digest must be the one those
    patterns alone set.  If ``client_id`` is given, no broker may still
    index a subscription for that client.
    """
    stale: list[str] = []
    if network.federation is not None:
        accumulators = network.federation._accumulators
        for owner in sorted(accumulators):
            accumulator = accumulators[owner]
            announced = network._brokers[owner].announced_patterns()
            if accumulator.count != len(announced):
                stale.append(
                    f"{owner} announces {len(announced)} patterns, "
                    f"the plane counts {accumulator.count}"
                )
            elif accumulator.digest != announced_digest(accumulator.config, announced):
                stale.append(f"{owner}: the digest holds bits no announced pattern sets")
    else:
        interest = network._interest
        for pattern in sorted(interest):
            for owner in sorted(interest[pattern]):
                broker = network._brokers.get(owner)
                if broker is None or pattern not in broker.announced_patterns():
                    stale.append(f"{pattern} advertised by {owner} with no local subscriber")
    if client_id is not None:
        for broker in network.brokers():
            for pattern in index_patterns(broker._subs):
                if client_id in index_clients(broker._subs, pattern):
                    stale.append(
                        f"{pattern} on {broker.broker_id} still lists client {client_id}"
                    )
    return stale


# ------------------------------------------------------------------ sessions

#: where a hosting broker subscribes a session's handlers (tracing/topics.py)
_SESSION_TOPIC = "Constrained/Traces/Broker/Subscribe-Only/Limited/"
_INTEREST_PREFIX, _INTEREST_SUFFIX = "Constrained/Traces/Broker/Subscribe-Only/", "/Interest"


def session_counts(manager) -> dict[str, int]:
    """What one ``TraceManager`` holds per session, counted five ways.

    ``workers`` counts every ``_session_worker`` generator of the manager
    that has not finished, reachable or not; the two handler counts read
    the broker's own index.  With no orphan, all five are equal.
    """
    gc.collect()
    code = TraceManager._session_worker.__code__
    workers = sum(
        1
        for obj in gc.get_objects()
        if type(obj) is GeneratorType
        and obj.gi_code is code
        and obj.gi_frame is not None
        and obj.gi_frame.f_locals.get("self") is manager
    )
    handlers = index_handlers(manager.broker._subs)
    return {
        "sessions": len(manager.sessions),
        "active": sum(s.active for s in manager.sessions.values()),
        "workers": workers,
        "session_handlers": sum(
            len(held) for pattern, held in handlers.items() if pattern.startswith(_SESSION_TOPIC)
        ),
        "interest_handlers": sum(
            len(held)
            for pattern, held in handlers.items()
            if pattern.startswith(_INTEREST_PREFIX) and pattern.endswith(_INTEREST_SUFFIX)
        ),
    }


def orphan_sessions(dep) -> list[str]:
    """Brokers whose session counts disagree (see :func:`session_counts`)."""
    found = []
    for broker in dep.network.brokers():
        counts = session_counts(dep.manager_of(broker.broker_id))
        if len(set(counts.values())) > 1:
            found.append(f"{broker.broker_id}: {counts}")
    return found


# ------------------------------------------------------------------- traces


class TraceLog:
    """Every trace a tracker hands its sinks once the log is attached, in order.

    The tracker keeps only the last trace per watched entity; a test that
    reads history attaches a log before the traces it wants arrive.
    """

    def __init__(self, tracker) -> None:
        self.traces: list[ReceivedTrace] = []
        tracker.on_trace.append(self.traces.append)

    def __len__(self) -> int:
        return len(self.traces)

    def of_type(self, trace_type: TraceType) -> list[ReceivedTrace]:
        return [t for t in self.traces if t.trace_type is trace_type]

    def latencies(self, trace_type: TraceType | None = None) -> list[float]:
        return [
            t.latency_ms
            for t in self.traces
            if t.latency_ms is not None and (trace_type is None or t.trace_type is trace_type)
        ]


# ---------------------------------------------------------------- run state


def run_sizes(dep) -> dict[str, int]:
    """The size of every container a deployment's run owns, by name.

    A run in steady state holds state in proportion to what is live
    (sessions, watched entities, subscriptions) or up to a cap (the size
    memo, the token caches), never in proportion to virtual time, so two
    horizons of one steady run read equal here (ROADMAP item 23).
    """
    sizes = {"journal": len(dep.journal)}
    for tracker_id, tracker in dep.trackers.items():
        watched = tracker._watched.values()
        sizes[f"tracker.{tracker_id}.watched"] = len(tracker._watched)
        sizes[f"tracker.{tracker_id}.last_traces"] = len(tracker.received)
        sizes[f"tracker.{tracker_id}.sequences"] = sum(len(w.last_seq) for w in watched)
        sizes[f"tracker.{tracker_id}.sinks"] = len(tracker.on_trace)
    for broker in dep.network.brokers():
        name = broker.broker_id
        manager = dep.manager_of(name)
        index = broker._subs
        sizes[f"{name}.sessions"] = len(manager.sessions)
        sizes[f"{name}.interest_registries"] = len(manager.interest)
        sizes[f"{name}.inboxes"] = sum(len(s.inbox) for s in manager.sessions.values())
        sizes[f"{name}.trace_streams"] = sum(
            len(s.trace_seq) for s in manager.sessions.values()
        )
        sizes[f"{name}.clients"] = len(broker._client_links)
        sizes[f"{name}.subscriptions"] = len(index_patterns(index))
        sizes[f"{name}.handlers"] = sum(len(h) for h in index_handlers(index).values())
        sizes[f"{name}.constrained_forms"] = len(broker._constrained_forms)
    verifiers = {"tracker": dep.token_verifier, **dep.broker_verifiers}
    for owner, verifier in verifiers.items():
        if verifier.cache is not None:
            sizes[f"token_cache.{owner}"] = len(verifier.cache)
    registry = dep.metrics
    sizes["metrics.instruments"] = sum(
        len(table) for table in (registry._counters, registry._gauges, registry._histograms)
    )
    sizes["monitor.counts"] = len(dep.monitor._counters)
    memo = dep.network.size_memo
    sizes["size_memo.sizes"] = len(memo.sizes)
    sizes["size_memo.overheads"] = len(memo.overheads)
    if dep.network.federation is not None:
        sizes["federation.match_memo"] = len(dep.network.federation._match_memo)
    return sizes


# ----------------------------------------------------------------- snapshots


def _leaves(node, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """Yield ``(path, rendered value)`` for every leaf under ``node``.

    Empty containers count as leaves so adding or dropping one is seen.
    """
    if isinstance(node, dict) and node:
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list) and node:
        for index, item in enumerate(node):
            yield from _leaves(item, (*path, index))
    else:
        yield path, json.dumps(node)


def _show(path: tuple) -> str:
    parts = [f"[{p}]" if isinstance(p, int) else f".{p}" for p in path]
    return "".join(parts).lstrip(".") or "<root>"


def snapshot_drift(live: dict, seed: dict) -> list[str]:
    """Leaf-level findings where ``live`` diverges from ``seed``.

    Empty exactly when the two canonical renderings are byte-identical;
    otherwise one finding per changed, added or missing leaf, each naming
    the leaf's path (``counters.broker.msgs.delivered``,
    ``results[3].metrics.delivered``).
    """
    # Round-trip through JSON first so in-memory tuples and non-string
    # keys compare the way their committed rendering does.
    live_leaves = dict(_leaves(json.loads(json.dumps(live))))
    seed_leaves = dict(_leaves(json.loads(json.dumps(seed))))
    findings: list[str] = []
    for path in sorted({*live_leaves, *seed_leaves}, key=_show):
        got, want = live_leaves.get(path), seed_leaves.get(path)
        if got == want:
            continue
        if want is None:
            findings.append(f"{_show(path)} added: {got} (not in seed)")
        elif got is None:
            findings.append(f"{_show(path)} missing: seed has {want}")
        else:
            findings.append(f"{_show(path)} drifted: {got} != seed {want}")
    return findings


# ------------------------------------------------------------------ matching


def index_handlers(index) -> dict[str, tuple]:
    """``pattern -> handlers`` of a ``SubscriptionIndex``, each a tuple in
    registration order; the one read of its handler storage.

    The index holds a pattern's only handler bare and two or more as a
    tuple, so a stored tuple of fewer than two fails here.
    """
    handlers = {}
    for pattern, held in index._handlers.items():
        if type(held) is tuple:
            assert len(held) > 1, f"{pattern!r} holds the tuple {held!r}"
            handlers[pattern] = held
        else:
            handlers[pattern] = (held,)
    return handlers


def index_patterns(index) -> list[str]:
    """Every live pattern of a ``SubscriptionIndex``, sorted."""
    return sorted({*index._clients, *index_handlers(index), *index._remote})


def index_clients(index, pattern: str) -> list[str]:
    """Client ids subscribed to exactly ``pattern`` (any spelling), sorted."""
    return sorted(index._clients.get(index._key(pattern), ()))


def index_remote(index, pattern: str) -> list[str]:
    """Peer brokers with interest in exactly ``pattern``, sorted."""
    return sorted(index._remote.get(index._key(pattern), ()))


def empty_kinds(index) -> list[str]:
    """``kind:pattern`` for every key a kind holds with nothing behind it.

    An emptied kind must delete its key, so this is always empty.
    """
    kinds = {"clients": index._clients, "handlers": index_handlers(index), "remote": index._remote}
    return [
        f"{kind}:{pattern}"
        for kind, table in kinds.items()
        for pattern, held in sorted(table.items())
        if not held
    ]


def trie_nodes(index) -> int:
    """Trie nodes allocated below the root; only wildcard patterns have any."""
    total, stack = 0, [index._trie]
    while stack:
        node = stack.pop()
        total += len(node.children)
        stack.extend(node.children.values())
    return total


def flushed_summary(plane, broker_id: str):
    """A broker's summary on a ``FederatedInterestPlane`` after a flush."""
    plane.flush()
    return plane._summaries.get(broker_id)


class BrokerViews:
    """Stand-in brokers for a bare ``FederatedInterestPlane``.

    Keeps each registered broker's announced patterns, hands them to the
    plane as that broker's view, and passes on only the steps a broker
    takes: the first announce of a pattern and the retract of an
    announced one.  ``announce`` and ``retract`` return whether the plane
    was told.
    """

    def __init__(self, plane) -> None:
        self.plane = plane
        self.announced: dict[str, dict[str, None]] = {}

    def register(self, broker_id: str) -> None:
        held = self.announced.setdefault(broker_id, {})
        self.plane.register_broker(broker_id, held.keys)

    def announce(self, pattern: str, broker_id: str) -> bool:
        held = self.announced[broker_id]
        if pattern in held:
            return False
        held[pattern] = None
        self.plane.announce(pattern, broker_id)
        return True

    def retract(self, pattern: str, broker_id: str) -> bool:
        held = self.announced[broker_id]
        if pattern not in held:
            return False
        del held[pattern]
        self.plane.retract(pattern, broker_id)
        return True


def announced_digest(config, patterns: Iterable[str]) -> bytearray:
    """The digest a fresh accumulator holds after announcing ``patterns``."""
    patterns = list(patterns)
    fresh = _InterestAccumulator(
        "fresh", config, _LaneTable(config.digest_bits), 1, lambda: patterns
    )
    for pattern in patterns:
        fresh.add(pattern)
    return fresh.digest
