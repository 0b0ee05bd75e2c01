"""DET01 / DET02 — determinism contracts.

The reproduction promises bit-identical reruns from one master seed.  Two
things silently break that promise: reading the host's clock or global RNG
(DET01), and letting set iteration order — which varies with
``PYTHONHASHSEED`` for str-keyed sets — feed scheduling or routing
decisions (DET02).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Checker,
    FileContext,
    Finding,
)
from repro.analysis.project import ProjectIndex

#: Wall-clock reads banned outside the virtual-clock / realtime bridge.
WALL_CLOCK_ORIGINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Set methods whose result is itself an unordered set.
SET_PRODUCING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


class WallClockChecker(Checker):
    """DET01: no wall clock, no global ``random`` state in simulation code."""

    rule = "DET01"
    description = (
        "wall-clock reads and global random state break seeded reproducibility; "
        "draw time from the virtual clock and randomness from RandomStreams"
    )
    severity = SEVERITY_ERROR
    default_hint = "use sim.clock / RandomStreams.stream(name) (see repro/sim/random.py)"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.iter_modules():
            # The stream factory is the one place allowed to touch the
            # host's clock and RNG machinery.
            if not info.ctx.is_module("sim/random.py"):
                yield from self._check_calls(info.ctx)

    def _check_calls(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.resolve(node.func)
            if origin is None:
                continue
            if origin in WALL_CLOCK_ORIGINS:
                yield ctx.finding(
                    self, node, f"wall-clock read {origin}() in simulation code"
                )
            elif origin == "random.Random" and not node.args and not node.keywords:
                yield ctx.finding(
                    self,
                    node,
                    "unseeded random.Random() is nondeterministic across runs",
                    hint="seed it explicitly, or draw a stream from RandomStreams",
                )
            elif origin.startswith("random.") and origin != "random.Random":
                yield ctx.finding(
                    self,
                    node,
                    f"module-level {origin}() uses the shared global RNG",
                )


class SetIterationChecker(Checker):
    """DET02: no iteration over sets in scheduling/routing code."""

    rule = "DET02"
    description = (
        "set iteration order depends on PYTHONHASHSEED for str elements; "
        "in scheduling and routing code it must be made explicit"
    )
    severity = SEVERITY_WARNING
    default_hint = "wrap the iterable in sorted(...) to pin the order"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.iter_modules():
            if info.ctx.in_package_dir("sim", "messaging", "tracing"):
                yield from self._check_loops(info.ctx)

    def _check_loops(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                iterables = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables = [gen.iter for gen in node.generators]
            else:
                continue
            for iterable in iterables:
                reason = self._unordered_reason(ctx, iterable)
                if reason is not None:
                    yield ctx.finding(self, iterable, reason)

    @staticmethod
    def _unordered_reason(ctx: FileContext, node: ast.expr) -> str | None:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "iteration over a set literal/comprehension has no defined order"
        if isinstance(node, ast.Call):
            if ctx.resolve(node.func) == "set":
                return "iteration over set(...) has no defined order"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in SET_PRODUCING_METHODS
            ):
                return (
                    f"iteration over .{node.func.attr}(...) yields an unordered set"
                )
            if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
                return (
                    "iterate the mapping directly (ordering is then explicitly "
                    "insertion order), not .keys()"
                )
        return None
