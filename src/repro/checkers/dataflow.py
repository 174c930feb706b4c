"""Intraprocedural taint analysis for determinism lint (SIM10).

The simulator's output contracts are *byte-identity* contracts
(serial ≡ parallel runs, golden telemetry files, the simulated-output
goldens), so any value derived from wall-clock time, process identity, or
unordered-collection iteration that reaches a result artifact silently
voids them.  This walker tracks, per function, which local names carry:

* ``wall-clock`` -- ``time.time/perf_counter/monotonic`` (and ``_ns``
  variants), ``datetime.now/utcnow/today``;
* ``entropy``    -- ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``;
* ``process``    -- ``os.getpid``, ``id()``, ``hash()`` (hash is
  PYTHONHASHSEED-salted for str/bytes);
* ``set-order``  -- iterating a ``set``/``frozenset`` value (element
  order is observable and insertion-history dependent).

Analysis is flow-insensitive within a function (a fixpoint over its
statements), which trades a little precision for robustness: the rules
only *report* at well-known sinks, so over-approximation inside the
function body is harmless.

Sanitizers: ``sorted(x)`` erases set-order taint (that is exactly the
repo-wide fix pattern for deterministic iteration); order-insensitive
aggregators (``sum``/``min``/``max``/``len``/``any``/``all``) erase
set-order but keep wall-clock/entropy taint.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.checkers.lint import attr_chain

# taint kinds ----------------------------------------------------------
WALL = "wall-clock"
ENTROPY = "entropy"
PROCESS = "process-identity"
ORDER = "set-order"

#: 2-element attribute-chain tails that produce each taint kind.
_SOURCE_TAILS: dict[tuple[str, str], str] = {
    ("time", "time"): WALL,
    ("time", "time_ns"): WALL,
    ("time", "perf_counter"): WALL,
    ("time", "perf_counter_ns"): WALL,
    ("time", "monotonic"): WALL,
    ("time", "monotonic_ns"): WALL,
    ("datetime", "now"): WALL,
    ("datetime", "utcnow"): WALL,
    ("datetime", "today"): WALL,
    ("date", "today"): WALL,
    ("os", "urandom"): ENTROPY,
    ("uuid", "uuid1"): ENTROPY,
    ("uuid", "uuid4"): ENTROPY,
    ("os", "getpid"): PROCESS,
}

#: bare builtins producing taint when called.
_SOURCE_BUILTINS: dict[str, str] = {"id": PROCESS, "hash": PROCESS}

#: calling anything under these modules is a source.
_SOURCE_MODULES: dict[str, str] = {"secrets": ENTROPY}

#: builtins that consume iteration order (safe over unordered input).
_ORDER_SANITIZERS = frozenset(
    {"sorted", "sum", "min", "max", "len", "any", "all"}
)

#: calls that build set-like (unordered) values.
_SET_BUILDERS = frozenset({"set", "frozenset"})


@dataclass
class Taint:
    """Taint kinds attached to one value, with the source line of each."""

    kinds: dict[str, int] = field(default_factory=dict)

    def merged(self, other: "Taint") -> "Taint":
        kinds = dict(self.kinds)
        for kind, line in other.kinds.items():
            kinds.setdefault(kind, line)
        return Taint(kinds)

    def without(self, kind: str) -> "Taint":
        kinds = {k: v for k, v in self.kinds.items() if k != kind}
        return Taint(kinds)

    def __bool__(self) -> bool:
        return bool(self.kinds)


def _function_source_kind(chain: tuple[str, ...] | None) -> str | None:
    """Taint kind produced by *calling* the function this chain names."""
    if not chain:
        return None
    if len(chain) == 1 and chain[0] in _SOURCE_BUILTINS:
        return _SOURCE_BUILTINS[chain[0]]
    if len(chain) >= 2 and chain[-2:] in _SOURCE_TAILS:
        return _SOURCE_TAILS[chain[-2:]]
    if chain[0] in _SOURCE_MODULES:
        return _SOURCE_MODULES[chain[0]]
    return None


class FunctionTaint:
    """Taint environment for one function body (fixpoint-computed)."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        #: name -> taint currently known for that local
        self.env: dict[str, Taint] = {}
        #: names statically known to hold set-like values
        self.setlike: set[str] = set()
        #: names aliasing a taint-source function (``clock = time.time``)
        self.fn_alias: dict[str, str] = {}
        self._compute()

    # -- statement iteration (skip nested function/class bodies) -------
    def _own_statements(self) -> Iterator[ast.stmt]:
        def visit(body: list[ast.stmt]) -> Iterator[ast.stmt]:
            for stmt in body:
                yield stmt
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                for name in ("body", "orelse", "finalbody"):
                    sub = getattr(stmt, name, None)
                    if isinstance(sub, list):
                        yield from visit(sub)
                for handler in getattr(stmt, "handlers", []):
                    yield from visit(handler.body)

        yield from visit(self.func.body)

    # -- expression evaluation ------------------------------------------
    def taint_of(self, node: ast.expr) -> Taint:
        """Taint carried by evaluating ``node`` (recursive)."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id, Taint())
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.Attribute):
            return self.taint_of(node.value)
        if isinstance(node, ast.Subscript):
            return self.taint_of(node.value).merged(self.taint_of(node.slice))
        if isinstance(node, ast.BinOp):
            return self.taint_of(node.left).merged(self.taint_of(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.BoolOp):
            out = Taint()
            for value in node.values:
                out = out.merged(self.taint_of(value))
            return out
        if isinstance(node, ast.Compare):
            out = self.taint_of(node.left)
            for comp in node.comparators:
                out = out.merged(self.taint_of(comp))
            return out
        if isinstance(node, ast.IfExp):
            return (
                self.taint_of(node.test)
                .merged(self.taint_of(node.body))
                .merged(self.taint_of(node.orelse))
            )
        if isinstance(node, ast.JoinedStr):
            out = Taint()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out = out.merged(self.taint_of(value.value))
            return out
        if isinstance(node, (ast.List, ast.Tuple)):
            out = Taint()
            for elt in node.elts:
                out = out.merged(self.taint_of(elt))
            return out
        if isinstance(node, ast.Set):
            out = Taint({ORDER: node.lineno})
            for elt in node.elts:
                out = out.merged(self.taint_of(elt))
            return out
        if isinstance(node, ast.Dict):
            out = Taint()
            for key in node.keys:
                if key is not None:
                    out = out.merged(self.taint_of(key))
            for value in node.values:
                out = out.merged(self.taint_of(value))
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            out = self._comprehension_taint(node.generators, node.lineno)
            out = out.merged(self.taint_of(node.elt))
            if isinstance(node, ast.SetComp):
                out = out.merged(Taint({ORDER: node.lineno}))
            return out
        if isinstance(node, ast.DictComp):
            out = self._comprehension_taint(node.generators, node.lineno)
            return out.merged(self.taint_of(node.key)).merged(
                self.taint_of(node.value)
            )
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        return Taint()

    def _comprehension_taint(
        self, generators: list[ast.comprehension], lineno: int
    ) -> Taint:
        out = Taint()
        for gen in generators:
            iter_taint = self.taint_of(gen.iter)
            if self._is_setlike(gen.iter):
                iter_taint = iter_taint.merged(
                    Taint({ORDER: gen.iter.lineno})
                )
            out = out.merged(iter_taint)
            for cond in gen.ifs:
                out = out.merged(self.taint_of(cond))
        return out

    def _is_setlike(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.setlike
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain and chain[-1] in _SET_BUILDERS:
                return True
            # s.union(...), s.difference(...), ... yield sets again
            if (
                chain
                and len(chain) >= 2
                and chain[-1] in {
                    "union", "intersection", "difference",
                    "symmetric_difference", "copy",
                }
                and self._is_setlike_name(chain[:-1])
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setlike(node.left) or self._is_setlike(node.right)
        return False

    def _is_setlike_name(self, chain: tuple[str, ...]) -> bool:
        return len(chain) == 1 and chain[0] in self.setlike

    def _call_taint(self, node: ast.Call) -> Taint:
        chain = attr_chain(node.func)
        arg_taint = Taint()
        for arg in node.args:
            arg_taint = arg_taint.merged(self.taint_of(arg))
        for kw in node.keywords:
            arg_taint = arg_taint.merged(self.taint_of(kw.value))
        if isinstance(node.func, ast.Attribute):
            # a method call carries its receiver's taint through:
            # os.urandom(8).hex() is as entropy-tainted as the bytes
            arg_taint = arg_taint.merged(self.taint_of(node.func.value))

        # direct source call (time.time(), os.urandom(n), id(x), ...)
        kind = _function_source_kind(chain)
        if kind is not None:
            return arg_taint.merged(Taint({kind: node.lineno}))
        # call through an alias (clock = time.perf_counter; clock())
        if chain and len(chain) == 1 and chain[0] in self.fn_alias:
            return arg_taint.merged(
                Taint({self.fn_alias[chain[0]]: node.lineno})
            )

        if chain:
            name = chain[-1]
            if name in _SET_BUILDERS:
                # building a set is fine; only *iterating* it taints
                return arg_taint.without(ORDER)
            if name == "sorted" or name in _ORDER_SANITIZERS:
                return arg_taint.without(ORDER)
            if name in {"join",}:
                # "".join(iterable): order-sensitive, keep taint
                return arg_taint
        return arg_taint

    # -- fixpoint over statements ---------------------------------------
    def _assign_name(self, name: str, taint: Taint, setlike: bool) -> bool:
        changed = False
        old = self.env.get(name, Taint())
        new = old.merged(taint)
        if new.kinds != old.kinds:
            self.env[name] = new
            changed = True
        if setlike and name not in self.setlike:
            self.setlike.add(name)
            changed = True
        return changed

    def _bind_target(self, target: ast.expr, value: ast.expr | None,
                     taint: Taint, setlike: bool) -> bool:
        changed = False
        if isinstance(target, ast.Name):
            changed |= self._assign_name(target.id, taint, setlike)
            # track function aliasing for wall-clock sources
            if value is not None:
                alias_kind = _function_source_kind(attr_chain(value))
                if isinstance(value, ast.IfExp):
                    for branch in (value.body, value.orelse):
                        branch_kind = _function_source_kind(attr_chain(branch))
                        if branch_kind is not None:
                            alias_kind = branch_kind
                if alias_kind is not None and not isinstance(value, ast.Call):
                    if self.fn_alias.get(target.id) != alias_kind:
                        self.fn_alias[target.id] = alias_kind
                        changed = True
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                changed |= self._bind_target(elt, None, taint, setlike)
        elif isinstance(target, ast.Starred):
            changed |= self._bind_target(target.value, None, taint, setlike)
        return changed

    def _step(self) -> bool:
        changed = False
        for stmt in self._own_statements():
            if isinstance(stmt, ast.Assign):
                taint = self.taint_of(stmt.value)
                setlike = self._is_setlike(stmt.value)
                for target in stmt.targets:
                    changed |= self._bind_target(
                        target, stmt.value, taint, setlike
                    )
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                taint = self.taint_of(stmt.value)
                changed |= self._bind_target(
                    stmt.target, stmt.value, taint,
                    self._is_setlike(stmt.value),
                )
            elif isinstance(stmt, ast.AugAssign):
                taint = self.taint_of(stmt.value).merged(
                    self.taint_of(stmt.target)
                )
                changed |= self._bind_target(stmt.target, None, taint, False)
            elif isinstance(stmt, ast.For):
                iter_taint = self.taint_of(stmt.iter)
                if self._is_setlike(stmt.iter):
                    iter_taint = iter_taint.merged(
                        Taint({ORDER: stmt.iter.lineno})
                    )
                changed |= self._bind_target(
                    stmt.target, None, iter_taint, False
                )
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                # receiver.append(tainted) and friends taint the receiver
                call = stmt.value
                chain = attr_chain(call.func)
                if chain and len(chain) == 2 and chain[1] in {
                    "append", "add", "extend", "update", "insert",
                }:
                    taint = Taint()
                    for arg in call.args:
                        taint = taint.merged(self.taint_of(arg))
                    if taint:
                        changed |= self._assign_name(chain[0], taint, False)
        return changed

    def _compute(self) -> None:
        # bounded fixpoint; each pass only adds taint, so it terminates
        for _ in range(16):
            if not self._step():
                break
