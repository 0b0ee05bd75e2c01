"""CRY02 — flow-sensitive key-material taint tracking.

Trace keys and private keys must never reach the journal, a log line, an
f-string message or ``repr`` — any of those ends up in exported snapshots
that untrusted trackers read — whether the key is named at the sink, flows
through an intermediate variable (``k = self.trace_key; journal.record(
key=k)``) or through a helper function one module away.  CRY02 runs the
:mod:`repro.analysis.dataflow` engine over the whole
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

Findings report the taint label (the source-side name) so a reviewer can
trace the flow without re-running the engine.
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
    tainted_labels,
)
from repro.analysis.project import (
    ModuleInfo,
    ProjectChecker,
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
        "sha256_digest",
        "hmac_sha1",
        "sha1",
        "sha256",
        "hash",
        "seal_for",
        "open_sealed",
        "wrap_trace_body",
        "unwrap_trace_body",
        "sign_payload",
        "verify_payload",
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


def _source_call(origin: str | None, node: ast.Call) -> str | None:
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


def make_key_taint_spec() -> TaintSpec:
    """The CRY02 taint vocabulary (exported for the fixture tests)."""
    return TaintSpec(
        source_call=_source_call,
        source_expr=_source_expr,
        sanitizer=_sanitizer,
        propagate_access=_propagate_access,
    )


def _sink_of_call(call: ast.Call) -> str | None:
    """Sink label for a call node, or None if it is not a sink."""
    func = call.func
    label = observable_sink_label(func)
    if label is not None:
        return label
    if isinstance(func, ast.Name) and func.id in {"repr", "str", "format"}:
        return f"{func.id}()"
    if isinstance(func, ast.Attribute) and func.attr in WIRE_SINK_NAMES:
        return f"a .{func.attr}() wire sink"
    return None


def _probe(tracker: TaintTracker, node: ast.AST) -> str | None:
    """Sink-probe shared by the summary pass and the main pass."""
    if isinstance(node, ast.JoinedStr):
        return "an f-string"
    if isinstance(node, ast.Call):
        return _sink_of_call(node)
    return None


class KeyMaterialFlowChecker(ProjectChecker):
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

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        spec = make_key_taint_spec()
        summaries = SummaryTable(index, spec, sink_probe=_probe)
        for info, qualname, fn in index.iter_functions():
            yield from self._check_function(index, summaries, spec, info, qualname, fn)

    def _check_function(
        self,
        index: ProjectIndex,
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
            sink = _probe(tracker, node)
            if sink is not None:
                for label in tainted_labels(node, taint_of):
                    self._report(info, node, sink, label, found, seen)
            if isinstance(node, ast.Call):
                self._check_callee_sink_params(
                    index, info, current_class, node, resolve, taint_of, found, seen
                )

        tracker.run(fn, visitor)
        yield from found

    def _report(
        self,
        info: ModuleInfo,
        node: ast.AST,
        sink: str,
        label: str,
        found: list[Finding],
        seen: set[tuple[int, str]],
    ) -> None:
        message = f"key material from {label!r} flows into {sink}"
        key = (getattr(node, "lineno", 1), message)
        if key in seen:
            return
        seen.add(key)
        found.append(self.project_finding(info, node, message))

    def _check_callee_sink_params(
        self,
        index: ProjectIndex,
        info: ModuleInfo,
        current_class: str | None,
        call: ast.Call,
        resolve: Callable[[ast.Call], FunctionSummary | None],
        taint_of: Callable[[ast.expr], str | None],
        found: list[Finding],
        seen: set[tuple[int, str]],
    ) -> None:
        """One-hop outward flow: a tainted argument to a function whose
        summary says that parameter reaches a sink inside the callee."""
        summary = resolve(call)
        if summary is None or not summary.sink_params:
            return
        for param_name, arg in call_param_pairs(index, info, call, current_class):
            if param_name not in summary.sink_params:
                continue
            label = taint_of(arg)
            if label is None:
                continue
            sink = summary.sink_params[param_name]
            message = (
                f"key material from {label!r} flows through parameter "
                f"{param_name!r} of this call into {sink} inside the callee"
            )
            key = (call.lineno, message)
            if key not in seen:
                seen.add(key)
                found.append(self.project_finding(info, call, message))
