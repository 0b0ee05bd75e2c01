"""OBS01 / OBS02 — instrument naming and documentation contracts.

``MetricsRegistry`` instruments follow ``<family>.<noun>[.<detail>]``
(docs/OBSERVABILITY.md): all lowercase, dot-separated, first segment one
of the documented families.  Snapshot consumers group by that first
segment, so a misspelled family silently drops a number out of every
dashboard and paper-comparison table built on the snapshot.

OBS01 checks the *shape* of each name; OBS02 checks *documentation*, in
both directions: every instrument the code registers must appear in
docs/OBSERVABILITY.md, and every instrument that document lists must
still be registered somewhere.  Both read the same registry calls
(:func:`registry_calls`).
"""

from __future__ import annotations

import ast
import re
from typing import Collection, Iterator

from repro.analysis.base import SEVERITY_ERROR, Checker, FileContext, Finding
from repro.analysis.project import ModuleInfo, ProjectIndex, line_at

#: Documented instrument families (docs/OBSERVABILITY.md).
KNOWN_FAMILIES = frozenset(
    {
        "analytics",
        "auth",
        "broker",
        "campaign",
        "codec",
        "crypto",
        "entity",
        "faults",
        "fed",
        "tdn",
        "trace",
        "tracker",
        "transport",
    }
)

#: Registry factory methods whose first argument is an instrument name.
INSTRUMENT_FACTORIES = frozenset({"counter", "gauge", "histogram", "timer"})

_SEGMENT = r"[a-z][a-z0-9_]*"
_FULL_NAME_RE = re.compile(rf"^{_SEGMENT}(\.{_SEGMENT})+$")
_PREFIX_RE = re.compile(rf"^{_SEGMENT}\.")


def _receiver_is_registry(receiver: ast.expr) -> bool:
    """Heuristic: the object owning ``.counter``/... looks like a registry."""
    tail = (
        receiver.id
        if isinstance(receiver, ast.Name)
        else receiver.attr if isinstance(receiver, ast.Attribute) else ""
    ).lower()
    return "metric" in tail or "registr" in tail


def registry_calls(ctx: FileContext) -> Iterator[tuple[ast.Call, ast.expr]]:
    """``(call, name argument)`` per registry factory call in one file."""
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in INSTRUMENT_FACTORIES
            and node.args
            and _receiver_is_registry(node.func.value)
        ):
            yield node, node.args[0]


class InstrumentNameChecker(Checker):
    """OBS01: instrument name literals must match the documented scheme."""

    rule = "OBS01"
    description = (
        "registry instrument names must be lowercase dotted "
        "<family>.<noun>[.<detail>] with a documented family"
    )
    severity = SEVERITY_ERROR
    default_hint = (
        "families: " + ", ".join(sorted(KNOWN_FAMILIES)) + " (docs/OBSERVABILITY.md)"
    )

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.iter_modules():
            for call, name_arg in registry_calls(info.ctx):
                yield from self._check_name(info.ctx, call, name_arg)

    def _check_name(
        self, ctx: FileContext, call: ast.Call, name_arg: ast.expr
    ) -> Iterator[Finding]:
        if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
            name = name_arg.value
            if not _FULL_NAME_RE.match(name):
                yield ctx.finding(
                    self,
                    call,
                    f"instrument name {name!r} is not lowercase dotted "
                    "<family>.<noun>[.<detail>]",
                )
            elif name.split(".", 1)[0] not in KNOWN_FAMILIES:
                yield ctx.finding(
                    self,
                    call,
                    f"instrument family {name.split('.', 1)[0]!r} "
                    f"(from {name!r}) is not documented",
                )
        elif isinstance(name_arg, ast.JoinedStr):
            yield from self._check_fstring_name(ctx, call, name_arg)
        # A bare variable cannot be checked statically; the registry's own
        # helpers (e.g. timer() delegating to histogram()) pass those.

    def _check_fstring_name(
        self, ctx: FileContext, call: ast.Call, name_arg: ast.JoinedStr
    ) -> Iterator[Finding]:
        first = name_arg.values[0] if name_arg.values else None
        prefix = (
            first.value
            if isinstance(first, ast.Constant) and isinstance(first.value, str)
            else ""
        )
        if not _PREFIX_RE.match(prefix):
            yield ctx.finding(
                self,
                call,
                "dynamic instrument name must start with a literal "
                "'<family>.' prefix so the family stays checkable",
            )
        elif prefix.split(".", 1)[0] not in KNOWN_FAMILIES:
            yield ctx.finding(
                self,
                call,
                f"instrument family {prefix.split('.', 1)[0]!r} "
                f"(from f-string prefix {prefix!r}) is not documented",
            )


# -- instrument extraction (OBS02) -------------------------------------------------

_DOC_TOKEN_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_<>\-]+)+)`")

#: Instrument name (or f-string prefix) -> every call registering it.
Sites = dict[str, list[tuple[ModuleInfo, ast.Call]]]


def registered_instruments(index: ProjectIndex) -> tuple[Sites, Sites]:
    """(exact instrument names, f-string literal prefixes) over ``index``.

    Registry factory calls whose name argument cannot be resolved
    statically (a bare variable that is not a module constant) are
    skipped, matching OBS01.
    """
    names: Sites = {}
    prefixes: Sites = {}
    for info in index.iter_modules():
        for node, arg in registry_calls(info.ctx):
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.setdefault(arg.value, []).append((info, node))
            elif isinstance(arg, ast.Name) and arg.id in info.constants:
                names.setdefault(info.constants[arg.id], []).append((info, node))
            elif isinstance(arg, ast.JoinedStr) and arg.values:
                first = arg.values[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    prefixes.setdefault(first.value, []).append((info, node))
    return names, prefixes


def doc_instrument_names(text: str) -> tuple[set[str], set[str]]:
    """(exact documented names, placeholder prefixes) in the doc text.

    Placeholder segments in angle brackets (``crypto.ms.<op>``) match any
    code name or f-string prefix under the literal part before them.
    """
    exact: set[str] = set()
    placeholder_prefixes: set[str] = set()
    for token in _DOC_TOKEN_RE.findall(text):
        if token.split(".", 1)[0] not in KNOWN_FAMILIES:
            continue
        if "<" in token:
            placeholder_prefixes.add(token.split("<", 1)[0])
        else:
            exact.add(token)
    return exact, placeholder_prefixes


def instrument_drift(
    code_names: Collection[str],
    code_prefixes: Collection[str],
    doc_names: Collection[str],
    doc_prefixes: Collection[str],
) -> tuple[list[str], list[str], list[str], list[str]]:
    """Sorted ``(undocumented names, undocumented prefixes, stale names, stale prefixes)``.

    Undocumented tokens are registered in code but missing from the doc;
    stale tokens are documented but registered nowhere.  A name is covered
    exactly or by a prefix of the other side; a prefix is covered by an
    equal prefix or by any exact name under it.
    """

    def uncovered(
        names: Collection[str],
        prefixes: Collection[str],
        other_names: Collection[str],
        other_prefixes: Collection[str],
    ) -> tuple[list[str], list[str]]:
        return (
            sorted(
                name
                for name in names
                if name not in other_names
                and not any(name.startswith(prefix) for prefix in other_prefixes)
            ),
            sorted(
                prefix
                for prefix in prefixes
                if prefix not in other_prefixes
                and not any(name.startswith(prefix) for name in other_names)
            ),
        )

    return (
        *uncovered(code_names, code_prefixes, doc_names, doc_prefixes),
        *uncovered(doc_names, doc_prefixes, code_names, code_prefixes),
    )


class UndocumentedInstrumentChecker(Checker):
    """OBS02: code and docs/OBSERVABILITY.md list the same instruments.

    Code-to-doc findings sit on the registration call; doc-to-code
    (staleness) findings sit on the ``docs/OBSERVABILITY.md`` line naming
    the instrument nobody registers.  Runs that do not index the
    ``repro`` package root (fixture packages) are skipped entirely.
    """

    rule = "OBS02"
    description = (
        "registered instrument names and docs/OBSERVABILITY.md must agree "
        "(exactly or under a <placeholder> prefix), in both directions"
    )
    severity = SEVERITY_ERROR
    default_hint = "keep the family tables in docs/OBSERVABILITY.md in step with the code"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        root = index.repo_root()
        doc = root / "docs" / "OBSERVABILITY.md" if root is not None else None
        if doc is None or not doc.is_file():
            return
        text = doc.read_text(encoding="utf-8")
        names, prefixes = registered_instruments(index)
        missing_names, missing_prefixes, stale_names, stale_prefixes = instrument_drift(
            names, prefixes, *doc_instrument_names(text)
        )
        for name in missing_names:
            for info, node in names[name]:
                yield info.ctx.finding(
                    self,
                    node,
                    f"instrument {name!r} is registered here but not "
                    "documented in docs/OBSERVABILITY.md",
                )
        for prefix in missing_prefixes:
            for info, node in prefixes[prefix]:
                yield info.ctx.finding(
                    self,
                    node,
                    f"dynamic instruments under {prefix!r} have no entry "
                    "in docs/OBSERVABILITY.md",
                )
        stale = [(f"`{name}`", repr(name)) for name in stale_names] + [
            (f"`{prefix}<", f"placeholder family {prefix!r}*") for prefix in stale_prefixes
        ]
        for needle, what in stale:
            yield self.doc_finding(
                doc,
                line_at(text, text.index(needle)),
                f"stale documentation: {what} is listed here but no code registers it",
            )
