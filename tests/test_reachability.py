"""Every ``src/repro`` def is reached by a committed run or allow-listed with a reason.

The committed runs are ``repro seeds`` (the paper's tables and figures
included), the four wall-clock workloads at smoke scale, ``repro info`` /
``quickstart`` / ``demo failure`` / ``demo secure`` / ``metrics`` and the
examples ``tests/test_examples.py`` executes (``tests/reach_probe.py`` names them).
Each runs in its own process under ``PYTHONHASHSEED=0`` with a profile hook
that records the code objects it enters.  ``analysis/`` (a CI-only tool
with its own tests) and ``cli.py`` (handlers beyond the run list) are out
of scope.

The deep test fails on an unreached def that :data:`ALLOWED` does not
name, and on an entry that is now reached or names no def.  The tier-1
guard checks the entries against the source with ``ast`` alone, so a
deletion that leaves a stale entry fails without tracing anything.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import pytest

from tests.reach_allowlist import ALLOWED, CLASSES

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
PROBE = pathlib.Path(__file__).resolve().parent / "reach_probe.py"
#: the longest run first: two workers finish together
RUNS = ("seeds", "perf", "cli", "examples")


def _in_scope(relative: str) -> bool:
    return not relative.startswith("analysis/") and relative != "cli.py"


def _walk(node: ast.AST, prefix: str):
    """``(qualname, first line)`` of every def below ``node``; the first line
    is the first decorator's, as in ``co_firstlineno``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield qualname, min([child.lineno, *(d.lineno for d in child.decorator_list)])
            yield from _walk(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, prefix + child.name + ".")
        else:
            yield from _walk(child, prefix)


def package_defs() -> dict[str, list[tuple[str, int]]]:
    """``module:qualname`` -> ``(path relative to src/repro, first line)`` of each
    def under that name (a property's getter and setter share one)."""
    defs: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if not _in_scope(relative):
            continue
        module = "repro." + relative[: -len(".py")].replace("/", ".").removesuffix(".__init__")
        for qualname, first in _walk(ast.parse(path.read_text(encoding="utf-8")), ""):
            defs[f"{module}:{qualname}"].append((relative, first))
    return dict(defs)


def _probe(run: str, workdir: pathlib.Path) -> set[tuple[str, int]]:
    out = workdir / f"{run}.json"
    (workdir / run).mkdir()
    env = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)]),
    }
    subprocess.run(
        [sys.executable, str(PROBE), run, str(out), str(workdir / run)],
        cwd=workdir / run,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=1200,
    )
    return {tuple(entry) for entry in json.loads(out.read_text())}


def unreached(workdir: pathlib.Path) -> set[str]:
    """Names with a def that no run of the list enters."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        reached = set().union(*pool.map(lambda run: _probe(run, workdir), RUNS))
    return {name for name, sites in package_defs().items() if not reached.issuperset(sites)}


class TestAllowList:
    def test_every_entry_names_a_def_in_scope(self):
        defs = package_defs()
        assert sorted(set(ALLOWED) - set(defs)) == []

    def test_every_reason_starts_with_a_class(self):
        bad = {
            name: reason
            for name, reason in ALLOWED.items()
            if not reason.startswith(CLASSES) or len(reason.splitlines()) != 1
        }
        assert bad == {}


@pytest.mark.deep
def test_every_unreached_def_is_allow_listed(tmp_path):
    missed = unreached(tmp_path)
    assert sorted(missed - set(ALLOWED)) == [], "unreached and not allow-listed"
    assert sorted(set(ALLOWED) - missed) == [], "allow-listed but reached or gone"
