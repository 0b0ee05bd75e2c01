"""DOC01 / DOC02 / DOC03 — docstring, doc-link and EXPERIMENTS.md contracts.

The paper's evaluation lives here as markdown (README.md, ``docs/*.md``,
EXPERIMENTS.md) that sends readers into the code and back out to the
benchmark entry points.  These rules keep those pointers true: DOC01 —
the packages the docs send readers into document their public surface;
DOC02 — no relative link is broken and no ``docs/`` page falls out of
the navigation graph README.md promises; DOC03 — every EXPERIMENTS.md
section ends with the exact command that regenerates the files it cites.

All three are rooted at :meth:`ProjectIndex.repo_root`, so they are
inert on fixture packages and single-file runs.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from repro.analysis.base import Checker, Finding
from repro.analysis.project import (
    FunctionNode,
    ModuleInfo,
    ProjectIndex,
    line_at,
)

#: Packages under src/repro whose public surface DOC01 covers: the ones
#: docs/API.md and docs/PERFORMANCE.md send readers into.
COVERED = ("analytics", "auth", "bench", "campaigns", "faults", "messaging", "obs")


class PublicDocstringChecker(Checker):
    """DOC01: public modules, classes, functions and methods carry a docstring.

    Public means a name without a leading underscore.  Dunder methods are
    exempt (their contracts are the language's), ``__init__`` included:
    the class docstring is where constructor semantics live in this
    codebase.
    """

    rule = "DOC01"
    description = (
        "every public module, class, function and method under repro/{"
        + ",".join(COVERED)
        + "} has a docstring"
    )
    default_hint = "say what it is for; an undocumented public surface here is a doc bug"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        if index.repo_root() is None:
            return
        for info in index.iter_modules():
            if not info.ctx.in_package_dir(*COVERED):
                continue
            if ast.get_docstring(info.ctx.tree) is None:
                yield info.ctx.finding(self, info.ctx.tree, "module has no docstring")
            yield from self._undocumented(info, info.ctx.tree)

    def _undocumented(
        self, info: ModuleInfo, parent: ast.AST, prefix: str = ""
    ) -> Iterator[Finding]:
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (FunctionNode, ast.ClassDef)) or node.name.startswith("_"):
                continue
            is_class = isinstance(node, ast.ClassDef)
            if ast.get_docstring(node) is None:
                what = f"class {node.name}" if is_class else f"function {prefix}{node.name}()"
                yield info.ctx.finding(self, node, f"public {what} has no docstring")
            if is_class:
                yield from self._undocumented(info, node, prefix=f"{node.name}.")


# -- DOC02: relative links and reachability ----------------------------------------

#: Inline markdown links: [text](target).  Good enough for this repo's
#: docs — no reference-style links, no angle-bracket autolinks to files.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Link targets that are not files: external schemes and pure anchors.
_NOT_A_FILE = ("http://", "https://", "mailto:", "#")


def doc_files(root: Path) -> list[Path]:
    """README.md plus every markdown file under docs/, sorted."""
    return [root / "README.md", *sorted((root / "docs").glob("*.md"))]


def relative_links(doc: Path) -> Iterator[tuple[int, str, Path]]:
    """``(line, target as written, resolved file)`` per relative link in ``doc``.

    A ``#fragment`` is stripped before resolving against the linking
    file's directory.
    """
    text = doc.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if not target.startswith(_NOT_A_FILE):
            resolved = (doc.parent / target.split("#", 1)[0]).resolve()
            yield line_at(text, match.start(1)), target, resolved


def broken_links(root: Path) -> list[tuple[Path, int, str]]:
    """``(doc, line, target)`` for every relative link that resolves nowhere."""
    return [
        (doc, line, target)
        for doc in doc_files(root)
        for line, target, resolved in relative_links(doc)
        if not resolved.exists()
    ]


def unreachable_docs(root: Path) -> list[Path]:
    """docs/*.md files no chain of relative links from README.md arrives at."""
    reachable = {(root / "README.md").resolve()}
    frontier = list(reachable)
    while frontier:
        for _line, _target, resolved in relative_links(frontier.pop()):
            if resolved.suffix == ".md" and resolved.is_file() and resolved not in reachable:
                reachable.add(resolved)
                frontier.append(resolved)
    return [doc for doc in doc_files(root)[1:] if doc.resolve() not in reachable]


class DocLinkChecker(Checker):
    """DOC02: doc links resolve and no docs/ page is orphaned.

    A broken link is reported on its own line; a ``docs/*.md`` that no
    chain of relative links from README.md (its "Document map") reaches
    is reported at line 1 of the orphan.
    """

    rule = "DOC02"
    description = (
        "relative links in README.md and docs/*.md resolve, and every "
        "docs/*.md is reachable from README.md"
    )
    default_hint = "fix the target, or link the page from README.md's document map"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        root = index.repo_root()
        if root is None:
            return
        for doc, line, target in broken_links(root):
            yield self.doc_finding(doc, line, f"relative link {target!r} resolves to no file")
        for doc in unreachable_docs(root):
            yield self.doc_finding(
                doc, 1, "page is not reachable from README.md by relative links"
            )


# -- DOC03: EXPERIMENTS.md regeneration footers ------------------------------------

BEGIN = "<!-- regen:begin -->"
END = "<!-- regen:end -->"

#: The one command that rewrites every seeded result file (``src/repro/seeds.py``).
SEEDS_FOOTER = "> Regenerate: `PYTHONPATH=src python -m repro seeds`"

_RESULT = re.compile(r"\bresults/([\w./-]+\.(?:txt|svg|json|md))\b")
_SCRIPT = re.compile(r"(?:benchmarks/)?\b(bench_\w+\.py)")
_SECTION = re.compile(r"^## ", re.MULTILINE)


def footer_block(results: list[str], scripts: list[str]) -> str:
    """The footer a section citing ``results`` and ``scripts`` must end with.

    Cited result files are seeds: ``repro seeds`` rewrites them all.  A cited
    ``bench_*.py`` is a host-measurement script (``bench_scale.py``), run
    directly, one line each.
    """
    lines = [BEGIN, *([SEEDS_FOOTER] if results else [])]
    lines += [
        f"> Regenerate: `PYTHONPATH=src python benchmarks/{name}`"
        " *(a host measurement, not a seed)*"
        for name in scripts
    ]
    lines.append(END)
    return "\n".join(lines)


def cited_in(section: str) -> tuple[list[str], list[str]]:
    """``(result files, bench scripts)`` a section cites, in first-mention order."""
    return (
        list(dict.fromkeys(_RESULT.findall(section))),
        list(dict.fromkeys(_SCRIPT.findall(section))),
    )


def footer_drift(root: Path) -> Iterator[tuple[int, str]]:
    """``(heading line, message)`` per EXPERIMENTS.md section out of step.

    A section (or the preamble) citing a ``results/`` file or a
    ``bench_*.py`` that does not exist is one finding; a ``## `` section
    citing either that does not end with exactly one :func:`footer_block`
    for them is another.
    """
    text = (root / "EXPERIMENTS.md").read_text(encoding="utf-8")
    starts = [0, *(match.start() for match in _SECTION.finditer(text)), len(text)]
    for start, end in zip(starts, starts[1:]):
        section = text[start:end]
        line = line_at(text, start)
        results, scripts = cited_in(section.partition(BEGIN)[0])
        cited = [f"benchmarks/results/{name}" for name in results]
        cited += [f"benchmarks/{name}" for name in scripts]
        missing = [path for path in cited if not (root / path).is_file()]
        if missing:
            yield line, "cites missing file(s) " + ", ".join(missing)
        elif (results or scripts) and section.startswith("## "):
            expected = footer_block(results, scripts)
            if section.count(BEGIN) != 1 or not section.rstrip().endswith(expected):
                yield line, (
                    f"section {section.splitlines()[0][3:]!r}: regeneration footer "
                    "out of date; the section must end with: "
                    + " \\n ".join(expected.splitlines())
                )


class ExperimentsFooterChecker(Checker):
    """DOC03: EXPERIMENTS.md sections end with a current regeneration footer.

    Findings sit on the section heading; every cited file must exist.
    """

    rule = "DOC03"
    description = (
        "EXPERIMENTS.md sections carry a current 'Regenerate:' footer: "
        "`repro seeds` for the result files they cite, one line per bench script"
    )
    default_hint = "paste the footer from the message as the section's last lines"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        root = index.repo_root()
        if root is None or not (root / "EXPERIMENTS.md").is_file():
            return
        for line, message in footer_drift(root):
            yield self.doc_finding(root / "EXPERIMENTS.md", line, message)
