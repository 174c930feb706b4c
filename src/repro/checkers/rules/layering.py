"""SIM14: import-layering contract across the simulator packages.

The packages form a strict stack -- each layer may import only from
layers *below* it::

    flash  <  ftl  <  ssd  <  sim  <  telemetry  <  analysis  <  audit  <  fleet

``flash`` is pure device physics; ``ftl`` builds mapping policy on it;
``ssd`` composes an FTL with timing/config into a device; ``sim`` drives
devices through the event engine; ``telemetry`` observes everything
beneath it; ``analysis`` consumes finished runs; ``audit`` replays
finished traces into sanitization certificates (so it may drive runs via
``analysis`` and probe devices, while ``fleet`` folds its certificates
into campaign reports); ``fleet`` composes
whole campaigns of devices over the analysis grid runner.  An *upward* import
(``ftl`` importing ``sim``, say) inverts the dependency stack, and --
because the contract is a total order -- any import cycle between named
layers necessarily contains an upward edge, so this one rule also keeps
the layer graph acyclic.

Packages outside the stack (``core``, ``host``, ``security``,
``workloads``, ``checkers``, ``faults``, top-level modules) are
cross-cutting and exempt.  Imports under ``if TYPE_CHECKING:`` are
allowed: they never execute, so they cannot create a runtime cycle, and
annotations legitimately point upward (an observer protocol typed
against the engine that drives it).

The rule needs only one file's own module name (derived from its path
below the ``repro`` package root, so fixture trees like
``tmp/repro/ftl/x.py`` resolve like the shipped package) and that
file's own imports, so it runs per file like every other rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from repro.checkers.lint import FileContext, Finding, LintRule

#: the layer stack, lowest first.  Index == layer height.
LAYER_ORDER = (
    "flash", "ftl", "ssd", "sim", "telemetry", "analysis", "audit", "fleet",
)
LAYERS = {name: i for i, name in enumerate(LAYER_ORDER)}


class ImportEdge(NamedTuple):
    """One ``import``/``from ... import`` statement in a module."""

    module: str                 #: absolute module imported, e.g. ``repro.ssd.config``
    node: ast.stmt              #: the statement, for the finding's location
    type_only: bool             #: inside an ``if TYPE_CHECKING:`` block


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


def top_package(module: str) -> str | None:
    """Top-level package under ``repro`` (``None`` for externals)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def import_edges(tree: ast.Module) -> list[ImportEdge]:
    """Absolute import edges, tagging those under ``if TYPE_CHECKING:``.

    Relative imports stay within one package -- never a cross-layer
    edge -- so they are left out.
    """
    edges: list[ImportEdge] = []

    def visit(nodes: Iterable[ast.stmt], type_only: bool) -> None:
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    edges.append(ImportEdge(alias.name, node, type_only))
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue
                # ``from repro import ssd`` binds subpackages
                targets = (
                    [f"repro.{alias.name}" for alias in node.names]
                    if node.module == "repro"
                    else [node.module]
                )
                edges.extend(ImportEdge(t, node, type_only) for t in targets)
            elif isinstance(node, ast.If):
                visit(node.body, type_only or _is_type_checking_guard(node.test))
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


class ImportLayeringRule(LintRule):
    rule_id = "SIM14"
    severity = "error"
    description = (
        "upward import between simulator layers "
        f"({' < '.join(LAYER_ORDER)})"
    )
    hint = (
        "depend downward only: move the shared code below both layers, "
        "invert the dependency through an observer/callback seam, or "
        "import under `if TYPE_CHECKING:` when only annotations need it"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return top_package(module_name_of(ctx)) in LAYERS

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        src_pkg = top_package(module_name_of(ctx))
        src_level = LAYERS[src_pkg]
        for edge in import_edges(ctx.tree):
            dst_pkg = top_package(edge.module)
            if dst_pkg not in LAYERS or dst_pkg == src_pkg or edge.type_only:
                continue
            dst_level = LAYERS[dst_pkg]
            if dst_level > src_level:
                yield self.finding(
                    ctx,
                    edge.node,
                    f"{src_pkg!r} (layer {src_level}) imports "
                    f"{edge.module!r} from higher layer {dst_pkg!r} "
                    f"(layer {dst_level})",
                )
