"""ERR01 — the error taxonomy is the API.

Callers and tests discriminate failure modes by exception type (a forged
signature is not an expired token).  A ``raise ValueError`` inside
``src/repro/`` flattens that distinction and is invisible to ``except
ReproError`` boundaries, so every raise must use a
:class:`~repro.errors.ReproError` subclass.  ``NotImplementedError`` is
exempt: it is Python's abstract-method idiom, not a protocol failure.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import SEVERITY_ERROR, Checker, Finding
from repro.analysis.project import ProjectIndex

#: Builtin exception types banned in ``raise`` statements, with the
#: taxonomy home that replaces each (the hint shown on findings).
BANNED_BUILTIN_RAISES: dict[str, str] = {
    "Exception": "a specific ReproError subclass",
    "BaseException": "a specific ReproError subclass",
    "ValueError": "ValidationError / ConfigurationError (repro.errors)",
    "TypeError": "SerializationTypeError or a ValidationError subclass",
    "RuntimeError": "SimulationError / BenchmarkError (repro.errors)",
    "KeyError": "a ReproError+KeyError subclass",
    "IndexError": "a ReproError subclass carrying the lookup context",
    "LookupError": "a ReproError subclass carrying the lookup context",
    "ArithmeticError": "StatsError or a ValidationError subclass",
    "ZeroDivisionError": "StatsError or a ValidationError subclass",
    "OSError": "TransportError (repro.errors)",
    "IOError": "TransportError (repro.errors)",
    "StopIteration": "return from the generator instead",
}


class BuiltinRaiseChecker(Checker):
    """ERR01: raise ``ReproError`` subclasses, not builtin exception types."""

    rule = "ERR01"
    description = (
        "library code must raise repro.errors.ReproError subclasses so "
        "callers can discriminate failure modes"
    )
    severity = SEVERITY_ERROR
    default_hint = "pick or add a subclass in repro/errors.py"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for info in index.iter_modules():
            ctx = info.ctx
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                callee = exc.func if isinstance(exc, ast.Call) else exc
                origin = ctx.resolve(callee)
                if origin in BANNED_BUILTIN_RAISES:
                    yield ctx.finding(
                        self,
                        node,
                        f"raise of builtin {origin} inside the library",
                        hint=f"use {BANNED_BUILTIN_RAISES[origin]}",
                    )
