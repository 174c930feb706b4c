"""SIM13: time-unit suffix dimensional analysis.

The codebase encodes time units in identifier suffixes -- ``now_us``,
``elapsed_us``, ``wall_s``, ``t_prog_us`` -- because the simulator core
runs in microseconds while benchmark wall time is seconds.  Mixing them
compiles, runs, and produces numbers that are wrong by a factor of a
million, which in this repo means a silently corrupted IOPS figure, not
a crash.  This rule type-checks the suffix convention:

* ``a_us + b_ms``, ``a_us - b_s``, ``a_us < b_ms``: mixed-unit
  arithmetic/comparison between suffixed operands of different units;
* ``x_ms = expr_us``: assignment whose target suffix disagrees with the
  inferred unit of the value;
* ``x_us += expr_ms`` / ``x_us -= expr_ms``: augmented assignment, the
  same mix as ``x_us = x_us + expr_ms``;
* ``f(duration_us=value_ms)``: keyword argument whose name disagrees
  with the value's unit;
* ``def foo_us(...) -> ...: return expr_ms``: function-name suffix vs
  returned unit.

Inference is deliberately shallow: a bare ``Name``/``Attribute`` has
the unit its suffix says; multiplying or dividing by anything drops to
"unknown" (that is what a unit *conversion* looks like -- ``us / 1e6``
is seconds); adding/subtracting a plain constant keeps the unit
(offsets); everything unknown stays silent.  Rate-style names
(``..._per_s``, ``events_per_sec``) are unitless by convention.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checkers.lint import FileContext, Finding, LintRule, functions_of

#: recognized unit suffixes, longest first so ``_ns`` wins over ``_s``.
_SUFFIXES = ("_ns", "_us", "_ms", "_s")


def unit_of_name(name: str) -> str | None:
    """Unit carried by an identifier suffix (``None`` = unitless)."""
    lower = name.lower()
    if "_per_" in lower or lower.endswith(("per_s", "per_sec")):
        return None  # rates are their own dimension
    for suffix in _SUFFIXES:
        if lower.endswith(suffix):
            return suffix[1:]
    return None


def unit_of_expr(node: ast.expr) -> str | None:
    """Shallow unit inference (see module docstring)."""
    if isinstance(node, ast.Name):
        return unit_of_name(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of_name(node.attr)
    if isinstance(node, ast.Call):
        # max(a_us, b_us) and friends preserve a unanimous unit
        func = node.func
        fname = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if fname in {"max", "min", "abs", "sum", "float", "int", "round"}:
            units = {unit_of_expr(a) for a in node.args}
            units.discard(None)
            if len(units) == 1:
                return units.pop()
        return None
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = unit_of_expr(node.left)
            right = unit_of_expr(node.right)
            if left and right:
                return left if left == right else None
            # adding a raw constant keeps the unit (offset)
            return left or right
        # Mult/Div/... against anything is a conversion or a new
        # dimension: unit unknown
        return None
    if isinstance(node, ast.UnaryOp):
        return unit_of_expr(node.operand)
    if isinstance(node, ast.IfExp):
        body = unit_of_expr(node.body)
        orelse = unit_of_expr(node.orelse)
        return body if body == orelse else None
    return None


def _operand_units(node: ast.expr) -> str | None:
    """Unit for mixed-operand checks: only trust direct suffixes."""
    if isinstance(node, ast.Name):
        return unit_of_name(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of_name(node.attr)
    return None


class TimeUnitConsistencyRule(LintRule):
    rule_id = "SIM13"
    severity = "error"
    description = "mixed time units in arithmetic, comparison, or binding"
    hint = (
        "convert explicitly at the boundary (e.g. `wall_us / 1e6` into a "
        "`_s` name); the suffix is the type"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                left = _operand_units(node.left)
                right = _operand_units(node.right)
                if left and right and left != right:
                    yield self.finding(
                        ctx,
                        node,
                        f"arithmetic mixes units: "
                        f"{ast.unparse(node.left)} [{left}] "
                        f"{'+' if isinstance(node.op, ast.Add) else '-'} "
                        f"{ast.unparse(node.right)} [{right}]",
                    )
            elif isinstance(node, ast.Compare):
                units = [_operand_units(node.left)] + [
                    _operand_units(c) for c in node.comparators
                ]
                present = [u for u in units if u]
                if len(set(present)) > 1:
                    yield self.finding(
                        ctx,
                        node,
                        f"comparison mixes units "
                        f"({', '.join(sorted(set(present)))}): "
                        f"{ast.unparse(node)}",
                    )
            elif isinstance(node, ast.Assign):
                value_unit = unit_of_expr(node.value)
                if value_unit is None:
                    continue
                for target in node.targets:
                    target_unit = _operand_units(target)
                    if target_unit and target_unit != value_unit:
                        yield self.finding(
                            ctx,
                            node,
                            f"assigns a [{value_unit}] value to "
                            f"{ast.unparse(target)} [{target_unit}]",
                        )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                # ``a_us += b_ms`` is ``a_us = a_us + b_ms``
                target_unit = _operand_units(node.target)
                value_unit = unit_of_expr(node.value)
                if target_unit and value_unit and target_unit != value_unit:
                    yield self.finding(
                        ctx,
                        node,
                        f"augmented assignment mixes units: "
                        f"{ast.unparse(node.target)} [{target_unit}] "
                        f"{'+' if isinstance(node.op, ast.Add) else '-'}= "
                        f"{ast.unparse(node.value)} [{value_unit}]",
                    )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg is None:
                        continue
                    arg_unit = unit_of_name(kw.arg)
                    value_unit = unit_of_expr(kw.value)
                    if arg_unit and value_unit and arg_unit != value_unit:
                        yield self.finding(
                            ctx,
                            kw.value,
                            f"keyword {kw.arg}= [{arg_unit}] receives a "
                            f"[{value_unit}] value: {ast.unparse(kw.value)}",
                        )

        for func in functions_of(ctx.tree):
            fn_unit = unit_of_name(func.name)
            if not fn_unit:
                continue
            for sub in _own_returns(func):
                if sub.value is None:
                    continue
                ret_unit = unit_of_expr(sub.value)
                if ret_unit and ret_unit != fn_unit:
                    yield self.finding(
                        ctx,
                        sub,
                        f"{func.name!r} [{fn_unit}] returns a "
                        f"[{ret_unit}] value: {ast.unparse(sub.value)}",
                    )


def _own_returns(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.Return]:
    """Return statements of this function, excluding nested functions."""

    def visit(body: list[ast.stmt]) -> Iterator[ast.Return]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Return):
                yield stmt
            for name in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, name, None)
                if isinstance(sub, list):
                    yield from visit(sub)
            for handler in getattr(stmt, "handlers", []):
                yield from visit(handler.body)

    yield from visit(func.body)
