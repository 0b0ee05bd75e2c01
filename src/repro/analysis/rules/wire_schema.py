"""WIRE01 — wire-schema drift between producers, handlers, and codecs.

The wire vocabulary lives in three places that nothing ties together at
runtime: message producers build ``{"kind": ...}`` bodies, broker/entity
handlers dispatch on ``body.get("kind")`` comparisons, and the compact
codec interns the protocol's strings in its static table.  A kind added
on one side and forgotten on another fails *silently* — the broker counts
``trace.entity_messages_unknown`` and drops the message, or the compact
codec spends inline bytes on a string the json codec frames for free.

A record declared ``@wire_record("<kind>")`` both produces and handles
its kind: the derived ``to_dict`` writes the tag and the derived
``from_dict`` refuses any other.

WIRE01 extracts all three vocabularies from the :class:`ProjectIndex`
and cross-checks them:

* a produced kind with no handler comparison anywhere — **error** at the
  production site (the message will be dropped);
* a handled kind that nothing produces — **warning** at the comparison
  site (dead dispatch arm, or the producer was renamed);
* ``Message.wire_dict()`` fields and the compact codec's
  ``_encode_message_body`` attribute reads must match exactly both ways,
  and every extra ``RoutedFrame`` field must be encoded too — **error**
  (silent payload loss on one codec);
* a produced kind missing from the compact static intern table —
  **warning** (correct but wasteful: the kind is spelled out inline in
  every frame).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import SEVERITY_ERROR, SEVERITY_WARNING, Checker, Finding
from repro.analysis.project import ModuleInfo, ProjectIndex

#: One occurrence of a kind string: where it was seen.
KindSites = dict[str, list[tuple[ModuleInfo, ast.AST]]]


def _record(sites: KindSites, kind: str, module: ModuleInfo, node: ast.AST) -> None:
    sites.setdefault(kind, []).append((module, node))


def declared_kinds(index: ProjectIndex) -> KindSites:
    """Every kind a ``@wire_record("<kind>")`` class declares, at its decorator."""
    sites: KindSites = {}
    for info in index.iter_modules():
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Call)
                    and isinstance(decorator.func, ast.Name)
                    and decorator.func.id == "wire_record"
                    and decorator.args
                    and (kind := index.resolve_constant(info, decorator.args[0])) is not None
                ):
                    _record(sites, kind, info, decorator)
    return sites


def produced_kinds(index: ProjectIndex) -> KindSites:
    """Every message kind the project builds, with its production sites.

    Two production shapes: a :func:`declared_kinds` declaration, and a
    dict literal with a constant-resolvable ``"kind"`` entry
    (``{"kind": SHUTDOWN_KIND, ...}``).  A body whose kind is a runtime
    value (``{"kind": self.kind}``) is invisible and deliberately out of
    scope: the protocol's messages are declared.
    """
    sites = declared_kinds(index)
    for info in index.iter_modules():
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "kind"
                    and (kind := index.resolve_constant(info, value)) is not None
                ):
                    _record(sites, kind, info, node)
    return sites


def handled_kinds(index: ProjectIndex) -> KindSites:
    """Every kind some dispatcher compares against, with comparison sites.

    A handler comparison is ``<kind-ish> == "literal"`` (either order)
    where the kind-ish side is a name called ``kind`` or a direct
    ``.get("kind")`` call; a :func:`declared_kinds` declaration handles
    its kind too.
    """
    sites = declared_kinds(index)
    for info in index.iter_modules():
        for node in ast.walk(info.ctx.tree):
            if not (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            ):
                continue
            left, right = node.left, node.comparators[0]
            for kind_side, const_side in ((left, right), (right, left)):
                if (
                    _is_kind_read(kind_side)
                    and isinstance(const_side, ast.Constant)
                    and isinstance(const_side.value, str)
                ):
                    _record(sites, const_side.value, info, node)
    return sites


def _is_kind_read(node: ast.expr) -> bool:
    if isinstance(node, ast.Name) and node.id == "kind":
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and len(node.args) >= 1
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "kind"
    )


def static_interned_strings(compact: ModuleInfo) -> set[str] | None:
    """The compact codec's ``STATIC_STRINGS`` table, or None if absent."""
    for node in compact.ctx.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target: ast.expr = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "STATIC_STRINGS":
            value = node.value
            if isinstance(value, (ast.Tuple, ast.List)):
                return {
                    elt.value
                    for elt in value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
    return None


def wire_dict_fields(message_module: ModuleInfo) -> tuple[set[str], set[str]]:
    """``(message fields, frame-only extras)`` from the ``wire_dict`` defs.

    Message fields are the constant keys of the dict ``Message.wire_dict``
    returns; frame extras are constant subscript stores inside
    ``RoutedFrame.wire_dict`` (``frame["destinations"] = ...``).
    """
    fields: set[str] = set()
    extras: set[str] = set()
    message_fn = message_module.functions.get("Message.wire_dict")
    if message_fn is not None:
        for node in ast.walk(message_fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                fields.update(
                    key.value
                    for key in node.value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
    frame_fn = message_module.functions.get("RoutedFrame.wire_dict")
    if frame_fn is not None:
        for node in ast.walk(frame_fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        extras.add(target.slice.value)
    return fields, extras


def encoder_attribute_reads(compact: ModuleInfo) -> set[str] | None:
    """Attributes ``_encode_message_body`` reads off its message parameter."""
    fn = compact.functions.get("_encode_message_body")
    if fn is None or not fn.args.args:
        return None
    param = fn.args.args[0].arg
    return {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == param
    }


class WireSchemaChecker(Checker):
    """WIRE01: kind and field vocabularies must agree across the stack."""

    rule = "WIRE01"
    description = (
        "message kinds must be produced AND handled; wire_dict fields must "
        "match the compact encoder; produced kinds belong in the compact "
        "static intern table"
    )
    severity = SEVERITY_ERROR
    default_hint = (
        "wire vocabulary lives in messaging/message.py, the kind dispatchers, "
        "and wire/compact.py STATIC_STRINGS — update all of them together"
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        produced = produced_kinds(index)
        handled = handled_kinds(index)
        yield from self._check_kind_coverage(produced, handled)
        compact = index.find_module("wire/compact.py")
        if compact is not None:
            yield from self._check_static_table(produced, compact)
            message_module = index.find_module("messaging/message.py")
            if message_module is not None:
                yield from self._check_field_parity(message_module, compact)

    # -- kinds ------------------------------------------------------------------

    def _check_kind_coverage(
        self, produced: KindSites, handled: KindSites
    ) -> Iterator[Finding]:
        for kind in sorted(set(produced) - set(handled)):
            for module, node in produced[kind]:
                yield module.ctx.finding(
                    self,
                    node,
                    f"message kind {kind!r} is produced here but no handler "
                    "compares against it — receivers will drop it",
                )
        for kind in sorted(set(handled) - set(produced)):
            for module, node in handled[kind]:
                yield module.ctx.finding(
                    self,
                    node,
                    f"message kind {kind!r} is dispatched on here but nothing "
                    "produces it — dead arm or renamed producer",
                    severity=SEVERITY_WARNING,
                )

    def _check_static_table(
        self, produced: KindSites, compact: ModuleInfo
    ) -> Iterator[Finding]:
        interned = static_interned_strings(compact)
        if interned is None:
            return
        for kind in sorted(set(produced) - interned):
            module, node = produced[kind][0]
            yield module.ctx.finding(
                self,
                node,
                f"message kind {kind!r} is not in the compact codec's static "
                "intern table; every frame spells it out inline",
                hint="append it to STATIC_STRINGS in wire/compact.py "
                "(append only — indexes are wire format)",
                severity=SEVERITY_WARNING,
            )

    # -- fields -----------------------------------------------------------------

    def _check_field_parity(
        self, message_module: ModuleInfo, compact: ModuleInfo
    ) -> Iterator[Finding]:
        fields, extras = wire_dict_fields(message_module)
        encoded = encoder_attribute_reads(compact)
        if not fields or encoded is None:
            return
        anchor_wire = message_module.functions["Message.wire_dict"]
        anchor_enc = compact.functions["_encode_message_body"]
        for field in sorted(fields - encoded):
            yield message_module.ctx.finding(
                self,
                anchor_wire,
                f"wire_dict() field {field!r} is never read by the compact "
                "codec's _encode_message_body — compact frames drop it",
            )
        for attr in sorted(encoded - fields):
            yield compact.ctx.finding(
                self,
                anchor_enc,
                f"compact codec encodes attribute {attr!r} that wire_dict() "
                "does not carry — json and compact frames disagree",
            )
        compact_attrs = {
            node.attr
            for node in ast.walk(compact.ctx.tree)
            if isinstance(node, ast.Attribute)
        }
        for extra in sorted(extras - compact_attrs):
            yield message_module.ctx.finding(
                self,
                message_module.functions["RoutedFrame.wire_dict"],
                f"RoutedFrame wire_dict() extra {extra!r} has no counterpart "
                "in the compact codec",
            )
