"""Intraprocedural taint tracking with one-hop call-graph propagation.

The engine is deliberately small: a forward, statement-ordered pass over
one function body, with an environment mapping local names to taint
labels.  What counts as a *source*, a *sanitizer*, or how taint survives
attribute/subscript access is injected through a :class:`TaintSpec`; CRY02
(key material) supplies the vocabulary.

Cross-function reach is one hop, via :class:`FunctionSummary`:

* ``returns_taint`` — the function's return value carries taint even with
  untainted arguments (``def issue_trace_key(): return KeyPair(...)``).
* ``sink_params`` — parameters that flow into one of the rule's sinks
  inside the body (``def dump(k): journal.record(key=k)``), so a tainted
  argument at a call site is a finding *at the call site*.

Summaries are computed without consulting other summaries, which keeps
the whole analysis a two-pass affair with no fixpoint iteration — exactly
the "one-hop propagation through the call graph" contract CRY02
documents.  Loop bodies are traversed twice so loop-carried assignments
converge for this depth.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.analysis.base import FileContext
from repro.analysis.project import FunctionNode, ModuleInfo, ProjectIndex

#: ``taint_of`` result: a short human-readable label naming the source
#: ("trace_key", "KeyPair.generate", ...), or ``None`` for clean values.
TaintLabel = str


@dataclass(frozen=True)
class TaintSpec:
    """Rule-specific taint vocabulary injected into the engine."""

    #: Label for a call that *introduces* taint (a key constructor),
    #: given its resolved dotted origin (may be ``None``).
    source_call: Callable[[str | None, ast.Call], TaintLabel | None]
    #: Label for a non-call expression that is a source by itself
    #: (e.g. a secret-named name or attribute).
    source_expr: Callable[[ast.expr], TaintLabel | None]
    #: True if a call *removes* taint (digest, fingerprint, seal, len...).
    sanitizer: Callable[[str | None, ast.Call], bool]
    #: Taint surviving ``base.attr`` / ``base["key"]`` access on a tainted
    #: base; return ``None`` to stop propagation (key *metadata*).
    propagate_access: Callable[[str, TaintLabel], TaintLabel | None] = (
        lambda part, label: label
    )


@dataclass
class FunctionSummary:
    """One-hop interface of a function, as seen from its call sites."""

    returns_taint: TaintLabel | None = None
    #: Parameter name -> description of the sink it reaches.
    sink_params: dict[str, str] = field(default_factory=dict)


#: Callback receiving ``(node, taint_of)`` for every Call and JoinedStr
#: encountered in statement order; ``taint_of`` evaluates any expression
#: against the environment at that point.
SinkVisitor = Callable[[ast.AST, Callable[[ast.expr], TaintLabel | None]], None]


class TaintTracker:
    """Forward taint pass over one function body."""

    def __init__(
        self,
        ctx: FileContext,
        spec: TaintSpec,
        resolve_summary: Callable[[ast.Call], FunctionSummary | None] | None = None,
        param_taints: dict[str, TaintLabel] | None = None,
    ) -> None:
        self.ctx = ctx
        self.spec = spec
        self.resolve_summary = resolve_summary
        self.env: dict[str, TaintLabel] = dict(param_taints or {})

    # -- expression taint ------------------------------------------------------

    def taint_of(self, node: ast.expr) -> TaintLabel | None:
        spec = self.spec
        if isinstance(node, ast.Name):
            return self.env.get(node.id) or spec.source_expr(node)
        if isinstance(node, ast.Attribute):
            direct = spec.source_expr(node)
            if direct is not None:
                return direct
            base = self.taint_of(node.value)
            if base is not None:
                return spec.propagate_access(node.attr, base)
            return None
        if isinstance(node, ast.Subscript):
            direct = spec.source_expr(node)
            if direct is not None:
                return direct
            base = self.taint_of(node.value)
            if base is None:
                return None
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return spec.propagate_access(key.value, base)
            return base
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.JoinedStr):
            # An f-string *containing* tainted text is tainted text.
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    label = self.taint_of(value.value)
                    if label is not None:
                        return label
            return None
        if isinstance(node, (ast.BinOp, ast.BoolOp)):
            operands = (
                [node.left, node.right] if isinstance(node, ast.BinOp) else node.values
            )
            for operand in operands:
                label = self.taint_of(operand)
                if label is not None:
                    return label
            return None
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body) or self.taint_of(node.orelse)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for element in node.elts:
                label = self.taint_of(element)
                if label is not None:
                    return label
            return None
        if isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    label = self.taint_of(value)
                    if label is not None:
                        return label
            return None
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        if isinstance(node, ast.NamedExpr):
            label = self.taint_of(node.value)
            self._assign_name(node.target, label)
            return label
        # Compare/Lambda/comprehensions/constants: boolean or fresh values.
        return None

    def _call_taint(self, node: ast.Call) -> TaintLabel | None:
        spec = self.spec
        origin = self.ctx.resolve(node.func)
        if spec.sanitizer(origin, node):
            return None
        label = spec.source_call(origin, node)
        if label is not None:
            return label
        if self.resolve_summary is not None:
            summary = self.resolve_summary(node)
            if summary is not None and summary.returns_taint is not None:
                return summary.returns_taint
        # Method call on a tainted object keeps the taint unless the
        # method name itself sanitizes (handled above via `sanitizer`).
        if isinstance(node.func, ast.Attribute):
            base = self.taint_of(node.func.value)
            if base is not None:
                propagated = spec.propagate_access(node.func.attr, base)
                if propagated is not None:
                    return propagated
        # An unrecognized call with a tainted argument returns taint.
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            label = self.taint_of(arg)
            if label is not None:
                return label
        return None

    # -- environment updates ---------------------------------------------------

    def _assign_name(self, target: ast.expr, label: TaintLabel | None) -> None:
        if isinstance(target, ast.Name):
            if label is None:
                self.env.pop(target.id, None)
            else:
                self.env[target.id] = label
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                inner = element.value if isinstance(element, ast.Starred) else element
                self._assign_name(inner, label)
        # Attribute / Subscript targets: the spec's source_expr already
        # decides whether such locations are sources when read back.

    def _handle_assign(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            value_taints: TaintLabel | None = self.taint_of(node.value)
            for target in node.targets:
                if (
                    isinstance(target, (ast.Tuple, ast.List))
                    and isinstance(node.value, (ast.Tuple, ast.List))
                    and len(target.elts) == len(node.value.elts)
                    and not any(isinstance(e, ast.Starred) for e in target.elts)
                ):
                    for element, value in zip(
                        target.elts, node.value.elts, strict=True
                    ):
                        self._assign_name(element, self.taint_of(value))
                else:
                    self._assign_name(target, value_taints)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._assign_name(node.target, self.taint_of(node.value))
        elif isinstance(node, ast.AugAssign):
            label = self.taint_of(node.value)
            if label is not None:
                self._assign_name(node.target, label)

    # -- statement walk --------------------------------------------------------

    def run(self, fn: FunctionNode, visitor: SinkVisitor | None = None) -> None:
        """Walk ``fn``'s body in order, updating taint and firing sinks."""
        self._walk_block(fn.body, visitor)

    def _walk_block(self, body: list[ast.stmt], visitor: SinkVisitor | None) -> None:
        for stmt in body:
            self._walk_stmt(stmt, visitor)

    def _walk_stmt(self, stmt: ast.stmt, visitor: SinkVisitor | None) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are analyzed as their own functions
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign_name(stmt.target, self.taint_of(stmt.iter))
        self._handle_assign(stmt)
        if visitor is not None:
            self._visit_sinks(stmt, visitor)
        nested = list(self._nested_blocks(stmt))
        # Loop bodies run twice so loop-carried taint reaches sinks on the
        # second traversal; conditional/try blocks run once.
        repeats = 2 if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)) else 1
        for _ in range(repeats):
            for block in nested:
                self._walk_block(block, visitor)

    @staticmethod
    def _nested_blocks(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(stmt, attr, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    def _visit_sinks(self, stmt: ast.stmt, visitor: SinkVisitor) -> None:
        """Fire the visitor for sink-shaped nodes owned by this statement.

        Only the statement's *own* expressions are visited (a compound
        statement's header — the ``if`` test, the ``for`` iterable); nested
        statement blocks are visited when the walk reaches them, so no sink
        is reported from two nesting levels at once.
        """
        for _name, value in ast.iter_fields(stmt):
            values = value if isinstance(value, list) else [value]
            for item in values:
                if not isinstance(item, ast.expr):
                    continue
                for node in ast.walk(item):
                    if isinstance(node, (ast.Call, ast.JoinedStr)):
                        visitor(node, self.taint_of)

    # -- return taint ----------------------------------------------------------

    def returned_taint(self, fn: FunctionNode) -> TaintLabel | None:
        """Label of any tainted ``return``/``yield`` value after the walk."""
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                label = self.taint_of(node.value)
                if label is not None:
                    return label
            elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
                label = self.taint_of(node.value)
                if label is not None:
                    return label
        return None


class SummaryTable:
    """One-hop :class:`FunctionSummary` per indexed function, per rule."""

    def __init__(
        self,
        index: ProjectIndex,
        spec: TaintSpec,
        sink_probe: Callable[[TaintTracker, ast.AST], str | None] | None = None,
    ) -> None:
        """``sink_probe(tracker, node)`` names the sink ``node`` feeds, if any."""
        self.index = index
        self.spec = spec
        self._summaries: dict[tuple[str, str], FunctionSummary] = {}
        self._build(sink_probe)

    def _build(
        self, sink_probe: Callable[[TaintTracker, ast.AST], str | None] | None
    ) -> None:
        for info, qualname, fn in self.index.iter_functions():
            summary = FunctionSummary()
            tracker = TaintTracker(info.ctx, self.spec)
            tracker.run(fn)
            summary.returns_taint = tracker.returned_taint(fn)
            if sink_probe is not None:
                summary.sink_params = self._probe_params(
                    info, fn, sink_probe
                )
            self._summaries[(info.name, qualname)] = summary

    def _probe_params(
        self,
        info: ModuleInfo,
        fn: FunctionNode,
        sink_probe: Callable[[TaintTracker, ast.AST], str | None],
    ) -> dict[str, str]:
        params = [
            arg.arg
            for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            if arg.arg not in ("self", "cls")
        ]
        if not params:
            return {}
        marker = "param:"
        tracker = TaintTracker(
            info.ctx, self.spec, param_taints={p: f"{marker}{p}" for p in params}
        )
        hits: dict[str, str] = {}

        def visitor(node: ast.AST, taint_of: Callable[[ast.expr], str | None]) -> None:
            sink = sink_probe(tracker, node)
            if sink is None:
                return
            for label in tainted_labels(node, taint_of):
                if label.startswith(marker):
                    hits.setdefault(label[len(marker):], sink)

        tracker.run(fn, visitor)
        return hits

    def lookup(
        self, module: ModuleInfo, call: ast.Call, current_class: str | None
    ) -> FunctionSummary | None:
        resolved = self.index.resolve_call(module, call, current_class)
        if resolved is None:
            return None
        target, qualname = resolved
        return self._summaries.get((target.name, qualname))


def tainted_labels(
    node: ast.AST, taint_of: Callable[[ast.expr], str | None]
) -> Iterator[str]:
    """Labels of tainted immediate operands of a sink node."""
    if isinstance(node, ast.Call):
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            label = taint_of(arg)
            if label is not None:
                yield label
    elif isinstance(node, ast.JoinedStr):
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                label = taint_of(value.value)
                if label is not None:
                    yield label
