"""A deployment owns its state: no process-global mutable state in ``src/repro``.

A seeded run must reproduce itself whatever else ran earlier — or runs
alongside it — in the same process, so every counter, memo, pool and
registry a run writes to must belong to a deployment, never to a module.
The behavioural check interleaves two chaos deployments in one process;
the structural one walks the AST of every module under ``src/repro`` and
fails on:

* a ``global`` statement anywhere;
* a module-level binding to an empty mutable container (``{}``, ``[]``,
  ``set()``, ``dict()``, ``list()``, ``OrderedDict()``, ``deque()``,
  ``defaultdict(...)``), an ``itertools.count``, a ``WeakKeyDictionary`` /
  ``WeakValueDictionary``, or a pool (any constructor named ``...Pool``);
* a memo decorator (``@lru_cache``, ``@cache``, ``@functools.cache``, called
  or not) on a module-level function or on a method of a module-level
  class: its table is shared by every deployment in the process.  The one
  exception is :data:`_ALLOWED_MEMOS`.

A third walk keeps the deployment's counts in one place: every event is
counted in the registry, so a ``Monitor.increment`` call anywhere under
``src/repro`` fails, naming ``file:line``, unless it is one of the counts
the benchmark harness still reads by name: ``trace.published.<type>`` or
``control.floods``.  Its behavioural twin runs a chaos scenario and reads
what the monitor and the registry hold afterwards.

A fourth walk keeps a run in one thread of one process: no module under
``src/repro`` imports ``subprocess``, ``multiprocessing``, ``threading``
or ``concurrent.futures``.  Concurrency is the simulator's, in virtual
time.
"""

from __future__ import annotations

import ast
import pathlib

from repro.faults.controller import FaultController
from repro.faults.scenarios import (
    ENTITY_BROKER,
    ENTITY_ID,
    TRACKER_BROKER,
    TRACKER_ID,
    build_chaos_deployment,
    run_scenario,
    scenario_plan,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Constructors whose result is mutable state however it is filled.
_STATEFUL_CALLS = frozenset(
    {"count", "defaultdict", "WeakKeyDictionary", "WeakValueDictionary"}
)
#: Constructors that are flagged when called with no arguments (empty).
_EMPTY_CALLS = frozenset({"dict", "list", "set", "OrderedDict", "deque"})
#: Decorators that hold a process-wide memo table.
_MEMO_DECORATORS = frozenset({"lru_cache", "cache"})
#: ``path:function`` -> why its process-wide memo cannot leak between runs.
_ALLOWED_MEMOS = {
    "repro/messaging/topics.py:_cached_segments": (
        "a pure function of an immutable str that returns an immutable tuple"
    ),
}


def _memo_decorator(decorator: ast.expr) -> str | None:
    """The name of a memo decorator, bare or called, or ``None``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "attr", None) or getattr(decorator, "id", "")
    return name if name in _MEMO_DECORATORS else None


def _memoized_defs(statements):
    """``(def, decorator name)`` for each memoized module-level function and
    method of a module-level class."""
    for node in statements:
        defs = [node]
        if isinstance(node, ast.ClassDef):
            defs = node.body
        for item in defs:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in item.decorator_list:
                    name = _memo_decorator(decorator)
                    if name is not None:
                        yield item, name


def _stateful(value: ast.expr | None) -> str | None:
    """Why ``value`` is mutable process state, or ``None``."""
    if isinstance(value, ast.Dict) and not value.keys:
        return "{}"
    if isinstance(value, ast.List) and not value.elts:
        return "[]"
    if isinstance(value, ast.Call):
        func = value.func
        name = getattr(func, "attr", None) or getattr(func, "id", "")
        if name in _STATEFUL_CALLS or name.endswith("Pool"):
            return f"{name}(...)"
        if name in _EMPTY_CALLS and not value.args and not value.keywords:
            return f"{name}()"
    return None


def _module_statements(body: list[ast.stmt]):
    """Statements that run once per import: descends into ``if`` / ``try``
    / ``with`` blocks, never into functions or classes."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            blocks = [node.body, getattr(node, "orelse", []), getattr(node, "finalbody", [])]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            for block in blocks:
                yield from _module_statements(block)
        else:
            yield node


def process_state_sites(root: pathlib.Path = SRC) -> list[str]:
    """``path:line: what`` for every forbidden site under ``root``."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                sites.append(f"{relative}:{node.lineno}: global {', '.join(node.names)}")
        for node, decorator in _memoized_defs(_module_statements(tree.body)):
            if f"{relative}:{node.name}" not in _ALLOWED_MEMOS:
                sites.append(f"{relative}:{node.lineno}: @{decorator} {node.name}")
        for node in _module_statements(tree.body):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            why = _stateful(node.value)
            for target in targets:
                if why is not None and isinstance(target, ast.Name):
                    sites.append(f"{relative}:{node.lineno}: {target.id} = {why}")
    return sites


def test_no_process_global_mutable_state():
    sites = process_state_sites()
    assert not sites, "process-global state (make it per deployment):\n" + "\n".join(sites)


def test_every_allowed_memo_is_a_memoized_def():
    memoized = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        relative = path.relative_to(SRC.parent).as_posix()
        memoized |= {f"{relative}:{node.name}" for node, _ in _memoized_defs(tree.body)}
    assert set(_ALLOWED_MEMOS) <= memoized


def test_guard_flags_each_kind(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "bad.py").write_text(
        "import itertools\n"
        "from collections import OrderedDict, defaultdict\n"
        "from weakref import WeakKeyDictionary\n"
        "A = {}\n"
        "B: list[int] = []\n"
        "C = set()\n"
        "D = OrderedDict()\n"
        "E = defaultdict(int)\n"
        "F = itertools.count(1)\n"
        "G = WeakKeyDictionary()\n"
        "H = FramePool()\n"
        "if True:\n"
        "    I = dict()\n"
        "OK = {'json': 1}\n"
        "ALSO_OK = frozenset()\n"
        "def f():\n"
        "    global A\n"
        "    local = {}\n"
        "    @lru_cache\n"
        "    def inner(): pass\n"
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def J(): pass\n"
        "@lru_cache\n"
        "def K(): pass\n"
        "@cache\n"
        "def L(): pass\n"
        "@functools.cache\n"
        "def M(): pass\n"
        "class N:\n"
        "    @functools.lru_cache()\n"
        "    def method(self): pass\n"
        "    @staticmethod\n"
        "    def plain(): pass\n"
    )
    flagged = [site.split(": ", 1)[1].split(" = ")[0] for site in process_state_sites(package)]
    assert flagged == [
        "global A",
        "@lru_cache J",
        "@lru_cache K",
        "@cache L",
        "@cache M",
        "@lru_cache method",
        "A", "B", "C", "D", "E", "F", "G", "H", "I",
    ]


#: The harness reads ``monitor.control.floods`` and
#: ``monitor.trace.published.FAILED`` by name until it hashes the registry
#: instead (ROADMAP item 5(a)); every other count is the registry's.
_MONITOR_COUNTS = frozenset({"control.floods"})
_MONITOR_COUNT_PREFIXES = ("trace.published.",)


def _harness_count(name: ast.expr | None) -> bool:
    """Whether ``name`` is a count the frozen benchmark harness reads."""
    if isinstance(name, ast.Constant):
        return name.value in _MONITOR_COUNTS
    if isinstance(name, ast.JoinedStr) and isinstance(name.values[0], ast.Constant):
        return name.values[0].value in _MONITOR_COUNT_PREFIXES
    return False


def monitor_increment_sites(root: pathlib.Path = SRC) -> list[str]:
    """``path:line`` of every ``.increment(...)`` under ``root`` other than
    the counts the frozen benchmark harness still reads."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "increment"
            ):
                continue
            if not _harness_count(node.args[0] if node.args else None):
                sites.append(f"{relative}:{node.lineno}")
    return sites


def test_every_count_is_in_the_registry():
    sites = monitor_increment_sites()
    assert not sites, "Monitor.increment (use the registry):\n" + "\n".join(sites)


def test_a_chaos_run_leaves_only_harness_counts_on_the_monitor():
    deployments = []
    run_scenario("broker-crash", deployment_probe=deployments.append)
    (dep,) = deployments
    leftover = [
        name
        for name in dep.monitor.counters()
        if name not in _MONITOR_COUNTS and not name.startswith(_MONITOR_COUNT_PREFIXES)
    ]
    assert not leftover, f"counted on the monitor, not the registry: {leftover}"
    counters = dep.snapshot()["counters"]
    assert counters["trace.sessions_created"] >= 1
    assert counters["entity.pings_answered"] >= 1


def _chaos_deployment(seed: int):
    """The chaos deployment, bootstrapped, with the broker-crash plan started."""
    dep = build_chaos_deployment(seed)
    entity = dep.add_traced_entity(ENTITY_ID)
    tracker = dep.add_tracker(TRACKER_ID)
    tracker.connect(TRACKER_BROKER)
    entity.start(ENTITY_BROKER)
    FaultController(dep, scenario_plan("broker-crash")).start()
    return dep, tracker


def _step(dep, tracker, until_ms: int) -> None:
    dep.sim.run(until=until_ms)
    if until_ms == 3_000:
        tracker.track(ENTITY_ID)


#: 1 s steps to 30 s: past the broker crash (20 s) and its failover (22 s).
STEPS_MS = range(1_000, 30_001, 1_000)


def test_interleaved_deployments_reproduce_their_solo_runs():
    seeds = (42, 7)
    solo = {}
    for seed in seeds:
        dep, tracker = _chaos_deployment(seed)
        for until in STEPS_MS:
            _step(dep, tracker, until)
        solo[seed] = dep.snapshot()
    pair = {seed: _chaos_deployment(seed) for seed in seeds}
    for until in STEPS_MS:
        for dep, tracker in pair.values():
            _step(dep, tracker, until)
    for seed, (dep, _) in pair.items():
        assert dep.snapshot() == solo[seed], f"seed {seed} drifted when interleaved"


#: Modules that would run part of a deployment outside its one thread.
_CONCURRENCY_MODULES = ("subprocess", "multiprocessing", "threading", "concurrent.futures")


def _imported_names(node: ast.stmt) -> list[str]:
    """Every dotted module name an import statement can bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def concurrency_import_sites(root: pathlib.Path = SRC) -> list[str]:
    """``path:line: module`` for every import statement under ``root`` that
    binds a concurrency module or a name from one."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = [
                name
                for name in _imported_names(node)
                if any(name == m or name.startswith(f"{m}.") for m in _CONCURRENCY_MODULES)
            ]
            if names:
                sites.append(f"{relative}:{node.lineno}: {names[0]}")
    return sites


def test_no_module_runs_work_outside_the_simulator():
    sites = concurrency_import_sites()
    assert not sites, "concurrency import (run in process, in virtual time):\n" + "\n".join(sites)


def test_concurrency_guard_flags_each_spelling(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "bad.py").write_text(
        "import subprocess\n"
        "import multiprocessing.pool\n"
        "from threading import Thread\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrency_notes, threadingx\n"
        "from . import threading\n"
        "def f():\n"
        "    import subprocess as sp\n"
    )
    flagged = [site.split(": ", 1)[1] for site in concurrency_import_sites(package)]
    assert flagged == [
        "subprocess",
        "multiprocessing.pool",
        "threading",
        "concurrent.futures",
        "concurrent.futures",
        "subprocess",
    ]
