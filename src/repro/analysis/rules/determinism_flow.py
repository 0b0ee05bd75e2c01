"""DET03 — nondeterministic values flowing into replay-critical state.

DET01 flags the *read* (``time.time()``, global ``random``); DET03 flags
the *flow*: a wall-clock or unseeded-RNG value reaching a message id, a
seed, or encoded wire bytes.  Those are precisely the places where a
nondeterministic value stops being a local wart and poisons bit-identical
replay — message ids feed wire-size accounting and hence sampled virtual
latencies (the bug class that forced ``reset_message_ids``), seeds fan a
single bad value out over every downstream draw, and encoded frames pin
the damage into captured byte snapshots.

Runs on the :mod:`repro.analysis.dataflow` engine with the same one-hop
summaries as CRY02: a helper returning ``time.time()`` taints its callers'
uses, one call away.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from repro.analysis.base import SEVERITY_ERROR, Finding
from repro.analysis.dataflow import (
    FunctionSummary,
    SummaryTable,
    TaintSpec,
    TaintTracker,
)
from repro.analysis.project import (
    ModuleInfo,
    ProjectChecker,
    ProjectIndex,
    enclosing_class_map,
)
from repro.analysis.rules.determinism import WALL_CLOCK_ORIGINS

#: Keyword arguments that are replay-critical sinks on any call.
SINK_KEYWORDS = frozenset({"message_id", "seed"})

#: Callee names whose positional arguments are replay-critical.
SINK_CALLEES = frozenset({"reset_message_ids", "encode", "encode_into"})

#: Calls that reduce a tainted value to something replay-safe (a size,
#: a type check) rather than carrying it forward.
_SANITIZER_NAMES = frozenset({"len", "bool", "type", "isinstance", "id"})


def _source_call(origin: str | None, node: ast.Call) -> str | None:
    if origin is None:
        return None
    if origin in WALL_CLOCK_ORIGINS:
        return origin
    if origin == "random.Random":
        # Unseeded only: ``random.Random(seed)`` is reproducible.
        return origin if not node.args and not node.keywords else None
    if origin.startswith("random."):
        return origin
    return None


def _sanitizer(origin: str | None, node: ast.Call) -> bool:
    callee = origin.rsplit(".", 1)[-1] if origin else ""
    return callee in _SANITIZER_NAMES


def make_determinism_taint_spec() -> TaintSpec:
    """The DET03 taint vocabulary (exported for the fixture tests)."""
    return TaintSpec(
        source_call=_source_call,
        source_expr=lambda node: None,
        sanitizer=_sanitizer,
        # int(time.time()) or f"{time.time()}" is still nondeterministic.
        propagate_call_args=True,
    )


def _call_sinks(call: ast.Call) -> list[tuple[str, ast.expr]]:
    """``(sink description, argument)`` pairs this call exposes."""
    sinks: list[tuple[str, ast.expr]] = []
    for kw in call.keywords:
        if kw.arg in SINK_KEYWORDS:
            sinks.append((f"the {kw.arg}= argument", kw.value))
    func = call.func
    callee = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else ""
    )
    if callee in SINK_CALLEES:
        what = (
            "the message-id counter"
            if callee == "reset_message_ids"
            else f"a .{callee}() wire frame"
        )
        sinks.extend((what, arg) for arg in call.args)
    return sinks


def _probe(tracker: TaintTracker, node: ast.AST) -> str | None:
    """Summary-pass probe: does this node sink any value at all?"""
    if isinstance(node, ast.Call) and _call_sinks(node):
        return "a replay-critical sink"
    return None


class DeterminismFlowChecker(ProjectChecker):
    """DET03: clock/RNG values must not reach ids, seeds, or frames."""

    rule = "DET03"
    description = (
        "wall-clock and global-RNG values must not flow into message ids, "
        "seeds, or encoded wire frames"
    )
    severity = SEVERITY_ERROR
    default_hint = (
        "derive the value from sim.clock / RandomStreams so replays at a "
        "fixed master seed stay bit-identical"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        spec = make_determinism_taint_spec()
        summaries = SummaryTable(index, spec, sink_probe=_probe)
        for info, qualname, fn in index.iter_functions():
            if self._exempt(info):
                continue
            yield from self._check_function(summaries, spec, info, qualname, fn)

    @staticmethod
    def _exempt(info: ModuleInfo) -> bool:
        # Same carve-out as DET01: the stream factory legitimately
        # touches the host clock/RNG.
        return info.ctx.is_module("sim/random.py")

    def _check_function(
        self,
        summaries: SummaryTable,
        spec: TaintSpec,
        info: ModuleInfo,
        qualname: str,
        fn,
    ) -> Iterator[Finding]:
        current_class = enclosing_class_map(info).get(qualname)

        def resolve(call: ast.Call) -> FunctionSummary | None:
            return summaries.lookup(info, call, current_class)

        tracker = TaintTracker(info.ctx, spec, resolve_summary=resolve)
        found: list[Finding] = []
        seen: set[tuple[int, str]] = set()

        def visitor(
            node: ast.AST, taint_of: Callable[[ast.expr], str | None]
        ) -> None:
            if not isinstance(node, ast.Call):
                return
            for sink, arg in _call_sinks(node):
                label = taint_of(arg)
                if label is None:
                    continue
                message = (
                    f"nondeterministic value from {label}() flows into {sink}"
                )
                key = (node.lineno, message)
                if key not in seen:
                    seen.add(key)
                    found.append(self.project_finding(info, node, message))

        tracker.run(fn, visitor)
        yield from found
