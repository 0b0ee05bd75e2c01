"""CRY02 — flow-sensitive key-material taint tracking.

Trace keys and private keys must never reach the journal, a log line, an
f-string message or ``repr`` — any of those ends up in exported snapshots
that untrusted trackers read — whether the key is named at the sink, flows
through an intermediate variable (``k = self.trace_key; journal.record(
key=k)``) or through a helper function one module away.  CRY02 runs a
small taint engine over the whole
:class:`~repro.analysis.project.ProjectIndex`:

* **Sources** — secret-named names/attributes (the name heuristic of
  :mod:`~repro.analysis.rules.crypto_hygiene`), key
  constructors (``SymmetricKey``/``KeyPair``/``generate_*key*`` and their
  ``from_dict``), and functions whose one-hop summary says they return key
  material.
* **Sanitizers** — digests, fingerprints, hybrid sealing
  (:func:`~repro.crypto.signing.seal_for`), signing, encryption: once key
  material has been hashed or encrypted its rendering is safe to observe.
* **Sinks** — the observable ones (journal ``.record``, logging calls,
  f-strings, ``repr``/``str``) plus the wire-shaped exits: message
  bodies handed to ``publish``/``send`` calls, ``wire_dict``/codec
  ``encode`` arguments, and instrument names.

The engine (:class:`TaintTracker`) is a forward, statement-ordered pass
over one function body, with an environment mapping local names to taint
labels — a short name of the source (``"trace_key"``, ``"KeyPair"``).
Cross-function reach is one hop, via :class:`FunctionSummary`:

* ``returns_taint`` — the function's return value carries taint even with
  untainted arguments (``def issue_trace_key(): return KeyPair(...)``).
* ``sink_params`` — parameters that flow into a sink inside the body
  (``def dump(k): journal.record(key=k)``), so a tainted argument at a
  call site is a finding *at the call site*.

Summaries are computed without consulting other summaries, which keeps
the whole analysis a two-pass affair with no fixpoint iteration.  Loop
bodies are traversed twice so loop-carried assignments converge for this
depth.  Findings name the taint label, so the flow can be traced without
re-running the engine.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.base import SEVERITY_ERROR, Checker, Finding
from repro.analysis.project import (
    FunctionNode,
    ModuleInfo,
    ProjectIndex,
    call_param_pairs,
    enclosing_class_map,
)
from repro.analysis.rules.crypto_hygiene import (
    _secret_expr_name,
    access_chain,
    is_metadata_name,
    observable_sink_label,
)

#: Callable name fragments that construct or deserialize key material.
KEY_CONSTRUCTOR_NAMES = frozenset({"SymmetricKey", "KeyPair", "TraceKey"})

#: Callee final names that neutralize taint: hash/fingerprint the key,
#: seal or sign it (output is ciphertext/signature, not the key), or
#: reduce it to a size/boolean.
SANITIZER_NAMES = frozenset(
    {
        "fingerprint",
        "digest",
        "sha1_digest",
        "sha1",
        "sha256",
        "hash",
        "seal_for",
        "open_sealed",
        "wrap_trace_body",
        "unwrap_trace_body",
        "sign_payload",
        "verify_signed",
        "encrypt",
        "decrypt",
        "aes_cbc_encrypt",
        "aes_cbc_decrypt",
        "len",
        "bool",
        "type",
        "isinstance",
        "id",
        "count",
    }
)

#: Call attr names that put their payload argument on the wire.
WIRE_SINK_NAMES = frozenset(
    {"publish", "publish_from_broker", "send", "broadcast", "encode", "encode_into"}
)

#: Label prefix the summary pass gives each parameter (``"param:k"``).
_PARAM = "param:"


def _source_call(origin: str | None, node: ast.Call) -> str | None:
    """Label for a call that *introduces* taint (a key constructor)."""
    callee = origin.rsplit(".", 1)[-1] if origin else ""
    if callee in KEY_CONSTRUCTOR_NAMES:
        return callee
    # SymmetricKey.from_dict / KeyPair.generate style classmethods.
    if origin and "." in origin:
        head = origin.rsplit(".", 2)[-2]
        if head in KEY_CONSTRUCTOR_NAMES:
            return head
    if callee.startswith("generate_") and "key" in callee:
        return callee
    return None


def _source_expr(node: ast.expr) -> str | None:
    """Label for a non-call expression that is a source by itself."""
    # A *bare* name ``key``/``keys`` (possibly sliced, ``key[:8]``) is
    # overwhelmingly a mapping key, a ``sorted(..., key=...)`` callable, or
    # a cache key — not key material.  Real key material either has a
    # qualifying part (``trace_key``, ``session.keys.private``) or enters
    # through a constructor source.
    chain = access_chain(node)
    if chain in (["key"], ["keys"]):
        return None
    return _secret_expr_name(node)


def _sanitizer(origin: str | None, node: ast.Call) -> bool:
    """True if a call *removes* taint (digest, fingerprint, seal, len...)."""
    # Token minting signs with the private key but *returns* only public
    # material — tokens are designed to ride the wire (section 4.3).
    if origin is not None and origin.endswith("AuthorizationToken.create"):
        return True
    callee = origin.rsplit(".", 1)[-1] if origin else ""
    if not callee and isinstance(node.func, ast.Attribute):
        callee = node.func.attr
    return callee in SANITIZER_NAMES


def _propagate_access(part: str, label: str) -> str | None:
    """Key metadata read off a tainted object is clean; the rest is not."""
    return None if is_metadata_name(part) or not part.isidentifier() else label


def _sink_label(node: ast.AST) -> str | None:
    """Sink label for a call or f-string node, or None if it is not a sink."""
    if isinstance(node, ast.JoinedStr):
        return "an f-string"
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    label = observable_sink_label(func)
    if label is not None:
        return label
    if isinstance(func, ast.Name) and func.id in {"repr", "str", "format"}:
        return f"{func.id}()"
    if isinstance(func, ast.Attribute) and func.attr in WIRE_SINK_NAMES:
        return f"a .{func.attr}() wire sink"
    return None


@dataclass
class FunctionSummary:
    """One-hop interface of a function, as seen from its call sites."""

    returns_taint: str | None = None
    #: Parameter name -> description of the sink it reaches.
    sink_params: dict[str, str] = field(default_factory=dict)


#: One flow into a sink: ``(node, sink, taint label, callee parameter)``;
#: the parameter is ``None`` unless the sink sits inside a called function.
Flow = tuple[ast.AST, str, str, str | None]


class TaintTracker:
    """Forward taint pass over one function body.

    Every sink reached by a tainted operand is appended to :attr:`flows`.
    With ``summaries``, calls resolve one hop: a callee's returned taint
    flows back, and a tainted argument for a sink parameter is a flow.
    """

    def __init__(
        self,
        module: ModuleInfo,
        summaries: SummaryTable | None = None,
        current_class: str | None = None,
        param_taints: dict[str, str] | None = None,
    ) -> None:
        self.module = module
        self.ctx = module.ctx
        self.summaries = summaries
        self.current_class = current_class
        self.env: dict[str, str] = dict(param_taints or {})
        self.flows: list[Flow] = []

    # -- expression taint ------------------------------------------------------

    def taint_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id) or _source_expr(node)
        if isinstance(node, ast.Attribute):
            direct = _source_expr(node)
            if direct is not None:
                return direct
            base = self.taint_of(node.value)
            if base is not None:
                return _propagate_access(node.attr, base)
            return None
        if isinstance(node, ast.Subscript):
            direct = _source_expr(node)
            if direct is not None:
                return direct
            base = self.taint_of(node.value)
            if base is None:
                return None
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return _propagate_access(key.value, base)
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

    def _call_taint(self, node: ast.Call) -> str | None:
        origin = self.ctx.resolve(node.func)
        if _sanitizer(origin, node):
            return None
        label = _source_call(origin, node)
        if label is not None:
            return label
        summary = self._summary(node)
        if summary is not None and summary.returns_taint is not None:
            return summary.returns_taint
        # Method call on a tainted object keeps the taint unless the
        # method name itself sanitizes (handled above).
        if isinstance(node.func, ast.Attribute):
            base = self.taint_of(node.func.value)
            if base is not None:
                propagated = _propagate_access(node.func.attr, base)
                if propagated is not None:
                    return propagated
        # An unrecognized call with a tainted argument returns taint.
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            label = self.taint_of(arg)
            if label is not None:
                return label
        return None

    def _summary(self, call: ast.Call) -> FunctionSummary | None:
        if self.summaries is None:
            return None
        return self.summaries.lookup(self.module, call, self.current_class)

    # -- environment updates ---------------------------------------------------

    def _assign_name(self, target: ast.expr, label: str | None) -> None:
        if isinstance(target, ast.Name):
            if label is None:
                self.env.pop(target.id, None)
            else:
                self.env[target.id] = label
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                inner = element.value if isinstance(element, ast.Starred) else element
                self._assign_name(inner, label)
        # Attribute / Subscript targets: _source_expr already decides
        # whether such locations are sources when read back.

    def _handle_assign(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            value_taints = self.taint_of(node.value)
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

    def run(self, fn: FunctionNode) -> None:
        """Walk ``fn``'s body in order, updating taint and recording flows."""
        self._walk_block(fn.body)

    def _walk_block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are analyzed as their own functions
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign_name(stmt.target, self.taint_of(stmt.iter))
        self._handle_assign(stmt)
        self._visit_sinks(stmt)
        nested = list(self._nested_blocks(stmt))
        # Loop bodies run twice so loop-carried taint reaches sinks on the
        # second traversal; conditional/try blocks run once.
        repeats = 2 if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)) else 1
        for _ in range(repeats):
            for block in nested:
                self._walk_block(block)

    @staticmethod
    def _nested_blocks(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(stmt, attr, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    def _visit_sinks(self, stmt: ast.stmt) -> None:
        """Record flows into sink-shaped nodes owned by this statement.

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
                    sink = _sink_label(node)
                    if sink is not None:
                        for label in self._tainted_operands(node):
                            self.flows.append((node, sink, label, None))
                    if isinstance(node, ast.Call):
                        self._visit_callee_sink_params(node)

    def _tainted_operands(self, node: ast.AST) -> Iterator[str]:
        """Labels of tainted immediate operands of a sink node."""
        if isinstance(node, ast.Call):
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                label = self.taint_of(arg)
                if label is not None:
                    yield label
        elif isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    label = self.taint_of(value.value)
                    if label is not None:
                        yield label

    def _visit_callee_sink_params(self, call: ast.Call) -> None:
        """One-hop outward flow: a tainted argument to a function whose
        summary says that parameter reaches a sink inside the callee."""
        summary = self._summary(call)
        if summary is None or not summary.sink_params:
            return
        pairs = call_param_pairs(self.summaries.index, self.module, call, self.current_class)
        for param, arg in pairs:
            if param in summary.sink_params:
                label = self.taint_of(arg)
                if label is not None:
                    self.flows.append((call, summary.sink_params[param], label, param))

    # -- return taint ----------------------------------------------------------

    def returned_taint(self, fn: FunctionNode) -> str | None:
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
    """One-hop :class:`FunctionSummary` per indexed function."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._summaries = {
            (info.path, qualname): self._summarize(info, fn)
            for info, qualname, fn in index.iter_functions()
        }

    @staticmethod
    def _summarize(info: ModuleInfo, fn: FunctionNode) -> FunctionSummary:
        tracker = TaintTracker(info)
        tracker.run(fn)
        summary = FunctionSummary(returns_taint=tracker.returned_taint(fn))
        params = [
            arg.arg
            for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            if arg.arg not in ("self", "cls")
        ]
        if params:
            tracker = TaintTracker(info, param_taints={p: f"{_PARAM}{p}" for p in params})
            tracker.run(fn)
            for _node, sink, label, _param in tracker.flows:
                if label.startswith(_PARAM):
                    summary.sink_params.setdefault(label[len(_PARAM):], sink)
        return summary

    def lookup(
        self, module: ModuleInfo, call: ast.Call, current_class: str | None
    ) -> FunctionSummary | None:
        resolved = self.index.resolve_call(module, call, current_class)
        if resolved is None:
            return None
        target, qualname = resolved
        return self._summaries.get((target.path, qualname))


class KeyMaterialFlowChecker(Checker):
    """CRY02: no key material reaches observable or wire sinks, even via
    intermediate variables or one function call of indirection."""

    rule = "CRY02"
    description = (
        "taint tracking from key-material sources (key constructors, "
        "secret-named attributes) to observable/wire sinks, through "
        "assignments and one call-graph hop"
    )
    severity = SEVERITY_ERROR
    default_hint = (
        "pass a digest/fingerprint instead, or seal the payload "
        "(repro.crypto.signing.seal_for) before it leaves the process"
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        summaries = SummaryTable(index)
        for info, qualname, fn in index.iter_functions():
            tracker = TaintTracker(info, summaries, enclosing_class_map(info).get(qualname))
            tracker.run(fn)
            seen: set[tuple[int, str]] = set()
            for node, sink, label, param in tracker.flows:
                if param is None:
                    message = f"key material from {label!r} flows into {sink}"
                else:
                    message = (
                        f"key material from {label!r} flows through parameter "
                        f"{param!r} of this call into {sink} inside the callee"
                    )
                if (node.lineno, message) not in seen:
                    seen.add((node.lineno, message))
                    yield info.ctx.finding(self, node, message)
