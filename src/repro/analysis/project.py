"""Project-wide indexing: modules, symbol tables, and the call graph.

Every rule reads one :class:`ProjectIndex` built over every file in one
analysis run.  A syntactic rule walks its modules one by one; the
flow-sensitive rule families (CRY02 key-material taint, WIRE01 wire-schema
drift) answer cross-module questions — "does this function return key
material?", "is this message kind handled anywhere?" — from its dotted
module names, per-module function/method tables, and import-aware call
resolution.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.base import FileContext

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


class ModuleInfo:
    """One indexed source file: its dotted name, context, and symbols."""

    def __init__(self, name: str, ctx: FileContext) -> None:
        self.name = name
        self.ctx = ctx
        #: ``"fn"`` or ``"Class.method"`` -> def node.
        self.functions: dict[str, FunctionNode] = {}
        #: Module-level ``NAME = "literal"`` string constants.
        self.constants: dict[str, str] = {}
        self._collect()

    @property
    def path(self) -> str:
        return self.ctx.path

    def _collect(self) -> None:
        for node in self.ctx.tree.body:
            if isinstance(node, FunctionNode):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FunctionNode):
                        self.functions[f"{node.name}.{item.name}"] = item
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self.constants[node.targets[0].id] = node.value.value


def module_name_for(path: str | Path) -> str:
    """Dotted module name for ``path``, walking up through ``__init__.py``.

    ``src/repro/tracing/entity.py`` becomes ``repro.tracing.entity`` because
    every directory from ``repro`` down carries an ``__init__.py``; a file
    outside any package is just its stem.  This matches how the analyzed
    code itself imports, so :class:`FileContext` import origins line up with
    index keys.
    """
    path = Path(path)
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # pragma: no cover - filesystem root
            break
        current = parent
    return ".".join(parts) if parts else path.stem


class ProjectIndex:
    """Every module in one analysis run, addressable by name and path."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self._by_path: dict[str, ModuleInfo] = {}

    def add(self, ctx: FileContext) -> ModuleInfo:
        """Index one parsed file under the module name its path gives."""
        info = ModuleInfo(module_name_for(ctx.path), ctx)
        # Last add wins on name collisions (two roots shipping an ``x.py``)
        # for call resolution; iteration and path lookup see every file.
        self.modules[info.name] = info
        self._by_path[info.ctx.path] = info
        return info

    def by_path(self, path: str) -> ModuleInfo | None:
        return self._by_path.get(path)

    def find_module(self, *suffixes: str) -> ModuleInfo | None:
        """First module whose posix path ends with any of ``suffixes``."""
        for suffix in suffixes:
            for info in self.iter_modules():
                if info.path.endswith(suffix):
                    return info
        return None

    def iter_modules(self) -> Iterator[ModuleInfo]:
        """Every indexed file in deterministic (path-sorted) order."""
        return (self._by_path[path] for path in sorted(self._by_path))

    def repo_root(self) -> Path | None:
        """Nearest ancestor of the indexed ``repro/__init__.py`` holding ``README.md``.

        The rules that check code against markdown (OBS02, DOC01-03) find
        ``docs/`` and ``EXPERIMENTS.md`` from here; a run that does not
        index the ``repro`` package root (fixture packages, single files)
        has no such root, and those rules stay inert.
        """
        package = self.modules.get("repro")
        if package is None or not package.path.endswith("repro/__init__.py"):
            return None
        for parent in Path(package.path).resolve().parents:
            if (parent / "README.md").is_file():
                return parent
        return None

    def iter_functions(self) -> Iterator[tuple[ModuleInfo, str, FunctionNode]]:
        """Every function/method as ``(module, qualname, node)``."""
        for info in self.iter_modules():
            for qualname in sorted(info.functions):
                yield info, qualname, info.functions[qualname]

    # -- call resolution -------------------------------------------------------

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        current_class: str | None = None,
    ) -> tuple[ModuleInfo, str] | None:
        """Resolve ``call`` to an indexed ``(module, qualname)`` if possible.

        Handles three shapes: bare names defined in the same module,
        ``self.method(...)`` within ``current_class``, and imported
        functions whose dotted origin (via the file's import table) prefixes
        an indexed module name.
        """
        origin = module.ctx.resolve(call.func)
        if origin is None:
            return None
        if origin.startswith("self."):
            if current_class is None:
                return None
            qualname = f"{current_class}.{origin[len('self.'):]}"
            return (module, qualname) if qualname in module.functions else None
        if "." not in origin:
            return (module, origin) if origin in module.functions else None
        # Imported: longest indexed-module prefix wins, remainder is the
        # qualname ("pkg.mod.Class.method" or "pkg.mod.fn").
        head, _, tail = origin.rpartition(".")
        while head:
            target = self.modules.get(head)
            if target is not None and tail in target.functions:
                return target, tail
            head, _, rest = head.rpartition(".")
            tail = f"{rest}.{tail}"
        return None

    def resolve_constant(self, module: ModuleInfo, node: ast.expr) -> str | None:
        """Constant string behind ``node``: literal, local, or imported name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in module.constants:
                return module.constants[node.id]
            origin = module.ctx.imports.get(node.id)
            if origin and "." in origin:
                source, _, name = origin.rpartition(".")
                target = self.modules.get(source)
                if target is not None:
                    return target.constants.get(name)
        return None


def call_param_pairs(
    index: ProjectIndex,
    module: ModuleInfo,
    call: ast.Call,
    current_class: str | None = None,
) -> list[tuple[str, ast.expr]]:
    """``(param_name, argument)`` pairs for a call resolved in ``index``.

    Keywords map exactly; positional arguments map by order against the
    callee's positional parameters (``self``/``cls`` skipped).  Calls that
    do not resolve to an indexed function contribute keyword pairs only.
    """
    pairs: list[tuple[str, ast.expr]] = [
        (kw.arg, kw.value) for kw in call.keywords if kw.arg is not None
    ]
    resolved = index.resolve_call(module, call, current_class)
    if resolved is None:
        return pairs
    target, qualname = resolved
    fn = target.functions[qualname]
    params = [
        arg.arg
        for arg in [*fn.args.posonlyargs, *fn.args.args]
        if arg.arg not in ("self", "cls")
    ]
    pairs.extend(zip(params, call.args))
    return pairs


def enclosing_class_map(info: ModuleInfo) -> dict[str, str | None]:
    """Qualname -> owning class name (``None`` for module-level functions)."""
    owners: dict[str, str | None] = {}
    for qualname in info.functions:
        cls, _, _method = qualname.rpartition(".")
        owners[qualname] = cls or None
    return owners


def line_at(text: str, offset: int) -> int:
    """1-based line number of character ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1
