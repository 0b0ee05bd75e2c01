"""Checker framework: findings, per-file context, and ``# repro: noqa``.

A *checker* is a small class with a rule id that reads one
:class:`~repro.analysis.project.ProjectIndex` (every file of a run) and
yields :class:`Finding` records.  The framework owns everything rules
should not re-implement: parsing, import resolution (so ``from time import
monotonic as mono`` still resolves to ``time.monotonic``), line-level
suppression, and stable ordering of results.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path, PurePath
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.analysis.project import ProjectIndex

#: Severity levels, mirroring compiler convention.  Both fail ``repro
#: analyze``; the split exists so consumers can triage the SARIF report.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
Severity = str

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")

#: Sentinel meaning "a bare ``# repro: noqa`` suppresses every rule here".
_ALL_RULES = "*"


def cwd_relative(path: str | Path) -> str:
    """``path`` relative to the working directory, with ``/`` separators."""
    return Path(os.path.relpath(path)).as_posix()


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    hint: str = ""

    def sort_key(self) -> tuple[str, int, str]:
        return (self.path, self.line, self.rule)

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} [{self.severity}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return asdict(self)


class FileContext:
    """Everything a checker may ask about one source file.

    The context pre-computes the AST, a line-indexed suppression table and
    an import alias map, so individual rules stay declarative.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = PurePath(path).as_posix()
        self.source = source
        self.lines: list[str] = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=self.path)
        except SyntaxError as exc:
            raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
        self._noqa: dict[int, set[str]] = self._parse_noqa(self.lines)
        self.imports: dict[str, str] = self._collect_imports(self.tree)

    # -- suppression -----------------------------------------------------------

    @staticmethod
    def _parse_noqa(lines: Sequence[str]) -> dict[int, set[str]]:
        table: dict[int, set[str]] = {}
        for lineno, text in enumerate(lines, start=1):
            match = _NOQA_RE.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                table[lineno] = {_ALL_RULES}
            else:
                table[lineno] = {r.strip().upper() for r in rules.split(",") if r.strip()}
        return table

    def suppressed(self, rule: str, line: int) -> bool:
        """True if ``# repro: noqa`` on ``line`` silences ``rule``."""
        rules = self._noqa.get(line)
        return rules is not None and (_ALL_RULES in rules or rule.upper() in rules)

    # -- imports ---------------------------------------------------------------

    @staticmethod
    def _collect_imports(tree: ast.Module) -> dict[str, str]:
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    # ``import pkg.mod`` binds ``pkg``; only ``as`` binds the module.
                    name = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases[alias.asname or name] = name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return aliases

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of a name chain, following import aliases.

        ``mono`` (after ``from time import monotonic as mono``) resolves to
        ``"time.monotonic"``; ``self.rng.random`` resolves to ``None``
        because the chain is not rooted in a module-level name.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return f"{base}.{node.attr}" if base is not None else None
        return None

    # -- path scoping ----------------------------------------------------------

    def in_package_dir(self, *dirs: str) -> bool:
        """True if this file lives under ``repro/<dir>/`` for any given dir."""
        return any(f"repro/{d}/" in self.path for d in dirs)

    def is_module(self, rel: str) -> bool:
        """True if this file *is* ``repro/<rel>`` (e.g. ``sim/random.py``)."""
        return self.path.endswith(f"repro/{rel}")

    # -- finding construction --------------------------------------------------

    def finding(
        self,
        checker: "Checker",
        node: ast.AST,
        message: str,
        hint: str = "",
        severity: Severity | None = None,
    ) -> Finding:
        return Finding(
            rule=checker.rule,
            severity=severity or checker.severity,
            path=self.path,
            line=getattr(node, "lineno", 1),
            message=message,
            hint=hint or checker.default_hint,
        )


class Checker:
    """Base class for one lint rule.

    Subclasses set :attr:`rule` (the id findings and ``noqa`` comments
    use), :attr:`description`, a :attr:`severity` and optionally a
    :attr:`default_hint`, then implement :meth:`check` over the whole
    index; a rule about single files loops over ``index.iter_modules()``.
    """

    rule: str = ""
    description: str = ""
    severity: Severity = SEVERITY_ERROR
    default_hint: str = ""

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError  # the one builtin ERR01 permits: abstract method

    def doc_finding(self, path: Path, line: int, message: str) -> Finding:
        """A finding anchored at a markdown line instead of an AST node."""
        return Finding(
            rule=self.rule,
            severity=self.severity,
            path=cwd_relative(path),
            line=line,
            message=message,
            hint=self.default_hint,
        )
