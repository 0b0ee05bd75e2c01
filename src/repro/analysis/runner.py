"""Indexing trees of files, running the rules, and the terminal report.

An analysis is two steps: :func:`index_paths` parses every file into one
:class:`~repro.analysis.project.ProjectIndex`, and :func:`analyze_index`
runs each rule once over it.  The text report here is for humans at a
terminal; the machine-readable one is SARIF (:mod:`repro.analysis.sarif`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.base import Checker, FileContext, Finding
from repro.analysis.project import ProjectIndex
from repro.analysis.rules import default_checkers
from repro.errors import ConfigurationError

#: Directories never worth parsing.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".pytest_cache"})


def all_rule_ids() -> list[str]:
    """Shipped rule ids in catalogue order."""
    return [checker.rule for checker in default_checkers()]


def select_checkers(rules: Sequence[str] | None) -> list[Checker]:
    """The default checkers, optionally restricted to ``rules`` ids."""
    checkers = default_checkers()
    if rules is None:
        return checkers
    wanted = {rule.upper() for rule in rules}
    known = {checker.rule for checker in checkers}
    unknown = wanted - known
    if unknown:
        raise ConfigurationError(
            f"unknown rule(s) {sorted(unknown)}; known: {sorted(known)}"
        )
    return [checker for checker in checkers if checker.rule in wanted]


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            candidates: Iterable[Path] = [path]
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(part for part in p.parts))
            )
        else:
            raise ConfigurationError(f"no such file or directory: {path}")
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def index_paths(paths: Iterable[str | Path]) -> ProjectIndex:
    """One :class:`ProjectIndex` of every Python file reachable from ``paths``."""
    index = ProjectIndex()
    for path in iter_python_files(paths):
        index.add(FileContext(str(path), path.read_text(encoding="utf-8")))
    return index


def analyze_index(
    index: ProjectIndex, checkers: Iterable[Checker] | None = None
) -> list[Finding]:
    """All findings of ``checkers`` (default: every rule) over ``index``, sorted.

    This is the one place ``# repro: noqa`` is applied: a finding on a
    line of an indexed file that suppresses its rule is dropped.
    """
    findings: list[Finding] = []
    for checker in checkers if checkers is not None else default_checkers():
        for finding in checker.check(index):
            module = index.by_path(finding.path)
            if module is None or not module.ctx.suppressed(finding.rule, finding.line):
                findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def analyze_paths(
    paths: Iterable[str | Path],
    checkers: Iterable[Checker] | None = None,
) -> list[Finding]:
    """All findings over every Python file reachable from ``paths``."""
    return analyze_index(index_paths(paths), checkers)


def analyze_source(
    source: str,
    path: str = "<string>",
    checkers: Iterable[Checker] | None = None,
) -> list[Finding]:
    """Analyze one in-memory source blob (the test-fixture entry point).

    ``path`` participates in rule scoping — pass a representative path such
    as ``src/repro/sim/example.py`` to exercise directory-scoped rules.  The
    one-module index has no repository root, so the doc rules stay inert.
    """
    index = ProjectIndex()
    index.add(FileContext(path, source))
    return analyze_index(index, checkers)


def format_findings_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a summary tail line."""
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines)
