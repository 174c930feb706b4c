"""Whole-program context for cross-module lint rules.

The per-file rules (SIM01..SIM09) see one AST at a time; the rule
families added with SIM10..SIM14 need facts that only exist across the
tree: the import graph (layering, SIM14) and the class hierarchy (which
classes subclass ``PageMappedFtl``, SIM12).

:class:`ProjectContext` parses the linted file set exactly once and
exposes those derived views.  It is deliberately *approximate* where
full import resolution would be overkill for a domain lint:

* module names are derived from the path relative to the ``repro``
  package root, so fixture trees (``tmp/repro/ftl/x.py``) resolve the
  same way the shipped package does;
* class bases are resolved by simple name across the whole project
  (the simulator has no duplicate class names across packages).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.checkers.lint import FileContext


@dataclass(frozen=True)
class ImportEdge:
    """One ``import``/``from ... import`` statement in a module."""

    module: str                 #: absolute module imported, e.g. ``repro.ssd.config``
    names: tuple[str, ...]      #: names bound by a ``from`` import, ``()`` otherwise
    lineno: int
    col: int
    type_only: bool             #: inside an ``if TYPE_CHECKING:`` block

    @property
    def top_package(self) -> str | None:
        """Top-level package under ``repro`` (``None`` for externals)."""
        parts = self.module.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return None
        return parts[1]


@dataclass
class ClassInfo:
    """One class definition and its directly-declared surface."""

    name: str
    module: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]


@dataclass
class ModuleInfo:
    """Everything the project knows about one source file."""

    name: str                   #: dotted module name, e.g. ``repro.ftl.base``
    ctx: FileContext
    imports: list[ImportEdge] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def top_package(self) -> str | None:
        parts = self.name.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return None
        return parts[1]


def module_name_of(ctx: FileContext) -> str:
    """Dotted module name derived from the path's ``repro`` suffix."""
    parts = list(ctx.rel_parts)
    if not parts or parts == list(ctx.path.parts):
        # file outside any repro package root: bare module name
        return ctx.path.stem
    parts[-1] = parts[-1].removesuffix(".py")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts]) if parts else "repro"


def _collect_imports(tree: ast.Module) -> list[ImportEdge]:
    """Import edges, tagging those under ``if TYPE_CHECKING:``."""
    edges: list[ImportEdge] = []

    def visit(nodes: Iterable[ast.stmt], type_only: bool) -> None:
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    edges.append(
                        ImportEdge(alias.name, (), node.lineno,
                                   node.col_offset + 1, type_only)
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    # relative imports stay within one package: never a
                    # cross-layer edge, so layering ignores them
                    continue
                if node.module == "repro":
                    # ``from repro import ssd`` binds subpackages
                    for alias in node.names:
                        edges.append(
                            ImportEdge(f"repro.{alias.name}", (), node.lineno,
                                       node.col_offset + 1, type_only)
                        )
                else:
                    names = tuple(alias.name for alias in node.names)
                    edges.append(
                        ImportEdge(node.module, names, node.lineno,
                                   node.col_offset + 1, type_only)
                    )
            elif isinstance(node, ast.If):
                guard = _is_type_checking_guard(node.test)
                visit(node.body, type_only or guard)
                visit(node.orelse, type_only)
            elif isinstance(node, ast.Try):
                visit(node.body, type_only)
                for handler in node.handlers:
                    visit(handler.body, type_only)
                visit(node.orelse, type_only)
                visit(node.finalbody, type_only)
            elif isinstance(node, (ast.With, ast.FunctionDef,
                                   ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, type_only)

    visit(tree.body, False)
    return edges


def _is_type_checking_guard(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _collect_classes(module: str, tree: ast.Module) -> dict[str, ClassInfo]:
    classes: dict[str, ClassInfo] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        classes[node.name] = ClassInfo(
            name=node.name, module=module, node=node,
            bases=tuple(bases), methods=methods,
        )
    return classes


class ProjectContext:
    """Parsed whole-program view over the linted file set."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        for ctx in contexts:
            name = module_name_of(ctx)
            info = ModuleInfo(
                name=name,
                ctx=ctx,
                imports=_collect_imports(ctx.tree),
                classes=_collect_classes(name, ctx.tree),
            )
            self.modules[name] = info
            self.by_path[ctx.display_path] = info
            for cls in info.classes.values():
                self._classes_by_name.setdefault(cls.name, []).append(cls)

    # ------------------------------------------------------------------
    def iter_modules(self) -> Iterator[ModuleInfo]:
        for name in sorted(self.modules):
            yield self.modules[name]

    def classes_named(self, name: str) -> list[ClassInfo]:
        return self._classes_by_name.get(name, [])

    def mro_names(self, cls: ClassInfo) -> list[str]:
        """Approximate linearization by simple base names (cycle-safe)."""
        order: list[str] = []
        seen: set[str] = set()
        stack = [cls.name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            order.append(name)
            for info in self.classes_named(name):
                stack.extend(b for b in info.bases if b not in seen)
        return order

    def is_subclass_of(self, cls: ClassInfo, base_name: str) -> bool:
        return base_name in self.mro_names(cls)

    def subclasses_of(self, base_name: str) -> list[ClassInfo]:
        """Every project class whose hierarchy reaches ``base_name``."""
        out = []
        for infos in self._classes_by_name.values():
            for info in infos:
                if self.is_subclass_of(info, base_name):
                    out.append(info)
        out.sort(key=lambda c: (c.module, c.name))
        return out

    def resolved_methods(
        self, cls: ClassInfo
    ) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
        """Method table with inheritance applied (derived wins)."""
        table: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for name in reversed(self.mro_names(cls)):
            for info in self.classes_named(name):
                table.update(info.methods)
        return table
