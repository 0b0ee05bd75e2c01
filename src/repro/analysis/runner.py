"""Running the checkers over trees of files, and rendering the results.

Two output shapes here, one per consumer: ``text`` for humans at a
terminal and ``json`` (stable schema — see :func:`format_findings_json`)
for CI and tooling; SARIF lives in :mod:`repro.analysis.sarif`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.base import Checker, FileContext, Finding, run_checkers
from repro.analysis.project import ProjectChecker, ProjectIndex, run_project_checkers
from repro.analysis.rules import default_checkers
from repro.errors import ConfigurationError

#: Directories never worth parsing.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".pytest_cache"})

#: Version of the JSON output schema; bump on breaking shape changes.
JSON_SCHEMA_VERSION = 1


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


def analyze_paths(
    paths: Iterable[str | Path],
    checkers: Iterable[Checker] | None = None,
) -> list[Finding]:
    """All findings over every Python file reachable from ``paths``.

    Per-file rules run file by file; :class:`ProjectChecker` rules run
    once over a shared :class:`ProjectIndex` of every file in the run.
    """
    active = list(checkers) if checkers is not None else default_checkers()
    file_checkers = [c for c in active if not isinstance(c, ProjectChecker)]
    project_checkers = [c for c in active if isinstance(c, ProjectChecker)]

    contexts: list[FileContext] = []
    for path in iter_python_files(paths):
        try:
            contexts.append(FileContext(str(path), path.read_text(encoding="utf-8")))
        except SyntaxError as exc:
            raise ConfigurationError(f"cannot parse {path}: {exc}") from exc

    findings: list[Finding] = []
    for ctx in contexts:
        findings.extend(run_checkers(ctx, file_checkers))
    if project_checkers:
        index = ProjectIndex()
        for ctx in contexts:
            index.add(ctx)
        findings.extend(run_project_checkers(index, project_checkers))
    return sorted(findings, key=Finding.sort_key)


def rule_counts(findings: Iterable[Finding], rules: Iterable[str]) -> dict[str, int]:
    """Finding count per rule id, zero-filled for quiet rules."""
    counts = {rule: 0 for rule in rules}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


def format_findings_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a summary tail line."""
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines)


def format_findings_json(findings: Sequence[Finding], rules: Sequence[str]) -> str:
    """Stable machine-readable report.

    Schema (version 1)::

        {"schema_version": 1,
         "findings": [{"rule", "severity", "path", "line", "message", "hint"}],
         "counts": {"<rule>": <int>, ...}}
    """
    return json.dumps(
        {
            "schema_version": JSON_SCHEMA_VERSION,
            "findings": [finding.to_dict() for finding in findings],
            "counts": rule_counts(findings, rules),
        },
        indent=2,
        sort_keys=True,
    )
