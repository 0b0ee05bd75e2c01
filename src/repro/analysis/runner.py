"""Running the checkers over trees of files, and rendering the results.

Three output shapes, one per consumer: ``text`` for humans at a terminal,
``json`` (stable schema — see :func:`format_findings_json`) for CI and
tooling, and :func:`record_stats` for the metrics registry so linter
trends can be cited in snapshots like any other instrument
(``analysis.findings.<rule>``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.base import Checker, FileContext, Finding, run_checkers
from repro.analysis.project import ProjectChecker, ProjectIndex, run_project_checkers
from repro.analysis.rules import default_checkers
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry

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


def _now_ms() -> float:
    """Analyzer wall-clock for self-instrumentation (not simulation code)."""
    return time.perf_counter() * 1000.0  # repro: noqa[DET01]


def analyze_paths(
    paths: Iterable[str | Path],
    checkers: Iterable[Checker] | None = None,
    registry: MetricsRegistry | None = None,
) -> list[Finding]:
    """All findings over every Python file reachable from ``paths``.

    Per-file rules run file by file; :class:`ProjectChecker` rules run
    once over a shared :class:`ProjectIndex` of every file in the run.
    With a ``registry``, the analyzer instruments itself:
    ``analysis.project.files`` (files indexed),
    ``analysis.project.index_ms`` (index build time) and
    ``analysis.project.ms.<rule>`` (per-rule wall time).
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
    for checker in file_checkers:
        started = _now_ms()
        for ctx in contexts:
            findings.extend(run_checkers(ctx, [checker]))
        _observe_rule_ms(registry, checker.rule, _now_ms() - started)

    if project_checkers:
        started = _now_ms()
        index = ProjectIndex()
        for ctx in contexts:
            index.add(ctx)
        if registry is not None:
            registry.gauge("analysis.project.files").set(len(contexts))
            registry.histogram("analysis.project.index_ms").observe(
                _now_ms() - started
            )
        for checker in project_checkers:
            started = _now_ms()
            findings.extend(run_project_checkers(index, [checker]))
            _observe_rule_ms(registry, checker.rule, _now_ms() - started)

    return sorted(findings, key=Finding.sort_key)


def _observe_rule_ms(
    registry: MetricsRegistry | None, rule: str, elapsed_ms: float
) -> None:
    if registry is not None:
        registry.histogram(f"analysis.project.ms.{rule.lower()}").observe(elapsed_ms)


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


def record_stats(
    findings: Iterable[Finding],
    registry: MetricsRegistry,
    rules: Sequence[str] | None = None,
) -> None:
    """Publish per-rule finding counts as ``analysis.findings.<rule>``.

    Quiet rules get a zero-valued counter so snapshot consumers can tell
    "rule ran clean" from "rule never ran".
    """
    counts = rule_counts(findings, rules if rules is not None else all_rule_ids())
    for rule, count in counts.items():
        registry.counter(f"analysis.findings.{rule.lower()}").inc(count)
