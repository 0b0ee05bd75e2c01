"""SIM01 — simulation processes must not block.

Engine processes are generator functions whose only legitimate waits are
``yield``-ed simulation events.  A ``time.sleep`` or socket call inside
one stalls the single-threaded event loop for *wall* time without moving
*virtual* time, silently corrupting every latency measurement in flight.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import SEVERITY_ERROR, Checker, FileContext, Finding
from repro.analysis.project import ProjectIndex

#: ``open()`` mode characters that imply mutation of the host filesystem.
_WRITE_MODE_CHARS = frozenset("wax+")


def _is_generator(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True if ``func`` itself yields (nested defs don't count)."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in _walk_same_scope(func)
    )


def _walk_same_scope(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class BlockingSimProcessChecker(Checker):
    """SIM01: no blocking stdlib I/O inside simulation process generators."""

    rule = "SIM01"
    description = (
        "generator functions registered with the engine must only wait via "
        "yield-ed events; blocking I/O stalls the event loop in wall time"
    )
    severity = SEVERITY_ERROR
    default_hint = "yield sim.timeout(...) for delays; move real I/O outside the process"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.iter_modules():
            ctx = info.ctx
            if not ctx.in_package_dir(
                "sim", "messaging", "tracing", "tdn", "security", "baselines"
            ):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not _is_generator(node):
                    continue
                for inner in _walk_same_scope(node):
                    if isinstance(inner, ast.Call):
                        yield from self._check_call(ctx, node.name, inner)

    def _check_call(
        self, ctx: FileContext, process_name: str, call: ast.Call
    ) -> Iterator[Finding]:
        origin = ctx.resolve(call.func)
        if origin is None:
            return
        if origin == "time.sleep":
            yield ctx.finding(
                self,
                call,
                f"time.sleep() inside sim process {process_name!r} blocks the event loop",
            )
        elif origin == "socket" or origin.startswith("socket."):
            yield ctx.finding(
                self,
                call,
                f"socket call {origin}() inside sim process {process_name!r}",
                hint="simulated transports live in repro.transport; use a Link",
            )
        elif origin == "open" and self._opens_for_write(call):
            yield ctx.finding(
                self,
                call,
                f"open() for writing inside sim process {process_name!r}",
                hint="record results via the monitor/journal and write after sim.run()",
            )

    @staticmethod
    def _opens_for_write(call: ast.Call) -> bool:
        mode: ast.expr | None = None
        if len(call.args) >= 2:
            mode = call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return False  # default "r": a read, not a mutation
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return bool(_WRITE_MODE_CHARS & set(mode.value))
        return True  # dynamic mode: assume the worst
