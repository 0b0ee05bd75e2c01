"""Host-time spans around the public entry points of each layer.

The program carries no wall-clock instrumentation, so this module measures
it from outside: :func:`install` replaces the entry points listed in
:data:`TARGETS` (class methods and module-level functions, including every
``from x import f`` binding another ``repro`` module holds) with wrappers
that push a frame on one span stack, and :func:`Recorder.uninstall` puts the
originals back.  A layer's *self time* is its spans' duration minus the part
their child spans cover, so the layers' self times plus the time in no span
add up to the measured window exactly.

Every callback of the simulation runs under ``Simulator.step``; code with no
wrapped entry point (private handlers, ``messaging.client``,
``messaging.constrained``) is therefore charged to ``sim``.

Generator entry points (simulation process bodies) are timed per resume: one
span for each ``send``/``throw`` into the generator, none while it is
suspended.  For them a "call" is one resume.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

FABRIC = frozenset({"fabric-route", "fabric-churn"})
TRACE = frozenset({"trace-steady", "trace-secure"})
ALL = FABRIC | TRACE
SECURE = frozenset({"trace-secure"})
NONE: frozenset = frozenset()


def _size_of_result(result: Any, args: tuple) -> int:
    return len(result)


def _result_is_size(result: Any, args: tuple) -> int:
    return result


def _size_of_second_arg(result: Any, args: tuple) -> int:
    return len(args[1])


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``window_on`` / ``setup_on`` name the workloads whose measured window /
    set-up phase must record at least one call: the self-test fails when a
    patch silently missed a binding.  ``timed=False`` only counts calls
    (the ``obs`` instruments are too cheap to time from outside).
    ``volume`` extracts a byte count from a call, summed per target.
    """

    layer: str
    module: str
    qualname: str
    window_on: frozenset = NONE
    setup_on: frozenset = NONE
    timed: bool = True
    volume: Callable[[Any, tuple], int] | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.qualname}"


def _t(layer: str, module: str, qualname: str, window_on=NONE, setup_on=NONE, **kw) -> Target:
    return Target(layer, module, qualname, frozenset(window_on), frozenset(setup_on), **kw)


_ENGINE = "repro.sim.engine"
_BROKER = "repro.messaging.broker"
_MATCHING = "repro.messaging.matching"
_FEDERATION = "repro.messaging.federation"
_TOPICS = "repro.messaging.topics"
_SERIALIZATION = "repro.util.serialization"
_RSA = "repro.crypto.rsa"
_AES = "repro.crypto.aes"
_OPS = "repro.tracing.broker_ops"
_TDN = "repro.tdn.node"
_INSTRUMENTS = "repro.obs.instruments"

#: layer -> wrapped entry points, in the order of the layer table in README.md.
TARGETS: tuple[Target, ...] = (
    _t("sim", _ENGINE, "Simulator.run", ALL, TRACE),
    _t("sim", _ENGINE, "Simulator.step", ALL, ALL),
    _t("transport", "repro.transport.link", "Link.send", ALL, ALL),
    _t("wire", "repro.wire.codec", "frame_size", ALL, ALL),
    _t("wire", "repro.wire.json_codec", "JsonCodec.encode"),
    _t("wire", "repro.wire.json_codec", "JsonCodec.encode_into", ALL, ALL),
    # the harness pins codec="json"; the compact codec is wrapped so a
    # change of default shows up as calls here instead of vanishing
    _t("wire", "repro.wire.compact", "CompactCodec.encode"),
    _t("wire", "repro.wire.compact", "CompactCodec.encode_into"),
    _t("util.serialization", _SERIALIZATION, "canonical_encode", TRACE, TRACE,
       volume=_size_of_result),
    _t("util.serialization", _SERIALIZATION, "canonical_encode_into", ALL, ALL,
       volume=_result_is_size),
    _t("util.serialization", _SERIALIZATION, "canonical_decode", SECURE, TRACE),
    _t("messaging.broker", _BROKER, "Broker.receive_from_client", TRACE, TRACE),
    _t("messaging.broker", _BROKER, "Broker.receive_from_neighbor", ALL, ALL),
    _t("messaging.broker", _BROKER, "Broker.publish_from_broker", ALL, ALL),
    _t("messaging.broker", _BROKER, "Broker.subscribe_local", {"fabric-churn"} | SECURE, ALL),
    _t("messaging.broker", _BROKER, "Broker.unsubscribe_local", {"fabric-churn"}),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.match_patterns"),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.match_clients", ALL, ALL),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.match_handlers", ALL, ALL),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.match_remote", TRACE, TRACE),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.add_client", SECURE, TRACE),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.add_handler",
       {"fabric-churn"} | SECURE, ALL),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.add_remote", SECURE, TRACE),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.remove_client", SECURE, TRACE),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.remove_client_everywhere", SECURE),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.remove_handler", {"fabric-churn"}),
    _t("messaging.matching", _MATCHING, "SubscriptionIndex.remove_remote", SECURE, TRACE),
    _t("messaging.federation", _FEDERATION, "FederatedInterestPlane.interested", FABRIC, FABRIC),
    _t("messaging.federation", _FEDERATION, "FederatedInterestPlane.has_interest"),
    _t("messaging.federation", _FEDERATION, "FederatedInterestPlane.announce",
       {"fabric-churn"}, FABRIC),
    _t("messaging.federation", _FEDERATION, "FederatedInterestPlane.retract", {"fabric-churn"}),
    _t("messaging.federation", _FEDERATION, "FederatedInterestPlane.flush", FABRIC, FABRIC),
    _t("messaging.topics", _TOPICS, "topic_matches", TRACE, TRACE),
    _t("messaging.topics", _TOPICS, "split_topic", ALL, ALL),
    _t("crypto.rsa", _RSA, "RSAPrivateKey.sign", TRACE, TRACE),
    _t("crypto.rsa", _RSA, "RSAPrivateKey.decrypt", SECURE, SECURE),
    _t("crypto.rsa", _RSA, "RSAPublicKey.verify", TRACE, TRACE),
    _t("crypto.rsa", _RSA, "RSAPublicKey.encrypt", SECURE, SECURE),
    _t("crypto.rsa", _RSA, "generate_rsa_keypair", SECURE, TRACE),
    _t("crypto.aes", _AES, "aes_cbc_encrypt", SECURE, SECURE, volume=_size_of_result),
    _t("crypto.aes", _AES, "aes_cbc_decrypt", SECURE, SECURE, volume=_size_of_second_arg),
    _t("auth", "repro.auth.verification", "TokenVerifier.verify", SECURE, TRACE),
    _t("tracing", _OPS, "TraceManager.publish_trace", TRACE, TRACE),
    _t("tracing", _OPS, "TraceManager.gauge_interest", SECURE, TRACE),
    _t("tracing", _OPS, "TraceManager.handle_client_disconnect", SECURE),
    _t("tracing", _OPS, "TraceManager.handle_broker_restart", SECURE),
    _t("tracing", "repro.tracing.entity", "TracedEntity.register", SECURE, TRACE),
    _t("tracing", "repro.tracing.entity", "TracedEntity.reregister", SECURE),
    _t("tracing", "repro.tracing.tracker", "Tracker.run_track", NONE, TRACE),
    _t("tdn", _TDN, "TDNCluster.create_topic", NONE, TRACE),
    _t("tdn", _TDN, "TDNCluster.discover", NONE, TRACE),
    _t("tdn", _TDN, "TDNCluster.discover_all"),
    _t("tdn", _TDN, "TDNCluster.renew_topic"),
    _t("faults", "repro.faults.controller", "FaultController.start", NONE, SECURE),
    _t("faults", "repro.deployment", "Deployment.restart_broker", SECURE),
    _t("faults", "repro.messaging.broker_network", "BrokerNetwork.fail_broker", SECURE),
    _t("faults", "repro.messaging.broker_network", "BrokerNetwork.recover_broker", SECURE),
    _t("obs", "repro.obs.journal", "EventJournal.record", SECURE, TRACE),
    _t("obs", _INSTRUMENTS, "Counter.inc", ALL, ALL, timed=False),
    _t("obs", _INSTRUMENTS, "Histogram.observe", ALL, ALL, timed=False),
    _t("obs", _INSTRUMENTS, "Gauge.set", SECURE, TRACE, timed=False),
    _t("obs", _INSTRUMENTS, "Gauge.inc", ALL, ALL, timed=False),
    _t("obs", _INSTRUMENTS, "Gauge.dec", ALL, ALL, timed=False),
    _t("analytics", "repro.analytics.store", "AnalyticsStore.append", SECURE, SECURE),
    # the three below run in the post-window evidence step, which the
    # recorder files under the window (run_s includes it)
    _t("analytics", "repro.analytics.ingest", "ingest_journal", SECURE),
    _t("analytics", "repro.analytics.audit", "audit_deployment", SECURE),
    _t("analytics", "repro.analytics.reports", "build_report", SECURE),
)

#: Layer names in table order ("bench" has extras only, no entry points).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))

PHASES = ("setup", "window")


class Recorder:
    """One span stack, per-phase tallies, and the raw spans of the window."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list] = []
        self._next_span = 0
        count = len(TARGETS)
        self.self_s = {phase: [0.0] * count for phase in PHASES}
        self.calls = {phase: [0] * count for phase in PHASES}
        self.volume = {phase: [0] * count for phase in PHASES}
        self.root_s = {phase: 0.0 for phase in PHASES}
        #: (span id, target index, start, end, parent span id or -1), in
        #: the order spans ended; kept for the window only — the set-up of
        #: a 100 000-pattern fabric would add ~10^6 spans nobody reads
        self.spans: list[tuple[int, int, float, float, int]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.enter_phase("setup")

    # ------------------------------------------------------------------ phases

    def enter_phase(self, phase: str) -> None:
        """Switch tallies; only legal between spans (the stack is empty)."""
        if self._stack:
            raise RuntimeError(f"phase change to {phase!r} inside a span")
        self.phase = phase
        self._self_s = self.self_s[phase]
        self._calls = self.calls[phase]
        self._volume = self.volume[phase]
        self._keep = phase == "window"

    # ---------------------------------------------------------------- wrappers

    def _enter(self, index: int) -> list:
        # frame: target index, start, covered child time, span id
        frame = [index, 0.0, 0.0, self._next_span]
        self._next_span += 1
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _leave(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        index, start, covered, span_id = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            self.root_s[self.phase] += duration
            parent_id = -1
        self._self_s[index] += duration - covered
        self._calls[index] += 1
        if self._keep:
            self.spans.append((span_id, index, start, end, parent_id))

    def _wrap(self, index: int, target: Target, fn: Callable) -> Callable:
        enter, leave = self._enter, self._leave
        if not target.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._calls[index] += 1
                return fn(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def resumed(*args, **kwargs):
                return _drive(fn(*args, **kwargs), index, enter, leave)

            return resumed

        volume = target.volume
        if volume is not None:

            @functools.wraps(fn)
            def sized(*args, **kwargs):
                frame = enter(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                self._volume[index] += volume(result, args)
                return result

            return sized

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = enter(index)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return timed

    # ---------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every target; import the owning modules first."""
        if self._patched:
            raise RuntimeError("spans already installed")
        for target in TARGETS:
            importlib.import_module(target.module)
        for index, target in enumerate(TARGETS):
            owner: Any = sys.modules[target.module]
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{target.name} is {type(original).__name__}, not a function")
            wrapper = self._wrap(index, target, original)
            holders = [owner]
            if not path:
                # ``from module import fn`` copies the binding: patch each copy
                holders += [
                    module
                    for name, module in sorted(sys.modules.items())
                    if name.startswith("repro.")
                    and module is not owner
                    and getattr(module, "__dict__", {}).get(attr) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        """Put every original back (reverse order, so nesting unwinds)."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def patched(self) -> list[tuple[Any, str, Any]]:
        """(holder, attribute, original) for every binding replaced."""
        return list(self._patched)

    # ----------------------------------------------------------------- results

    def target_table(self) -> list[dict]:
        """Per entry point: calls, self time and volume in each phase."""
        return [
            {
                "name": target.name,
                "layer": target.layer,
                "timed": target.timed,
                **{
                    f"{phase}_{field}": getattr(self, field)[phase][index]
                    for phase in PHASES
                    for field in ("calls", "self_s", "volume")
                },
            }
            for index, target in enumerate(TARGETS)
        ]

    def dump(self, path, **header) -> None:
        """Write the window's spans: name table plus one row per span."""
        document = {
            **header,
            "columns": ["span", "name", "start_s", "end_s", "parent"],
            "names": [target.name for target in TARGETS],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")


def _drive(generator, index: int, enter: Callable, leave: Callable):
    """Delegate to ``generator``, recording one span per resume."""
    value = None
    error: BaseException | None = None
    while True:
        frame = enter(index)
        try:
            if error is None:
                item = generator.send(value)
            else:
                item = generator.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            leave(frame)
        try:
            value = yield item
            error = None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as thrown:  # re-raised inside the wrapped generator
            value, error = None, thrown
