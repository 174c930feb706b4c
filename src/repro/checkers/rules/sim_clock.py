"""SIM07: the event engine must not read the wall clock (or global RNG).

The discrete-event engine's determinism contract is that simulated time
advances *only* through the event heap: same seed, same report,
byte-identical.  One ``time.time()`` in an event handler (say, for a
"how long did this take" shortcut) or one module-level ``random.*``
draw silently couples the simulation to the host machine, and the
same-seed guarantee -- which the cross-check against the open-loop
model and every regression test depend on -- is gone.

The rule bans, inside ``repro/sim/``, ``repro/fleet/`` (whose merged
campaign reports carry the same byte-identity contract),
``repro/audit/`` (whose certificates must be byte-deterministic), and
``repro/checkpoint/`` (whose manifests, section checksums, and resumed
campaigns -- the aging studies ride on them -- must be reproducible
bit-for-bit):

* importing the ``time`` or ``datetime`` modules (or names from them);
* calling any ``time.*`` / ``datetime.*`` function;
* module-level ``random.*`` draws (seeded ``random.Random(seed)``
  instances remain fine, as everywhere else -- SIM03 already enforces
  the seeding part; SIM07 rejects the module-level form outright even
  when seeded, because ``random.seed()`` mutates global state shared
  with every other component).

Wall-clock measurement of the engine belongs *outside* the package --
the host-time benchmark in ``benchmarks/perf/`` times runs from the
caller's side.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checkers.lint import FileContext, Finding, LintRule, attr_chain
from repro.checkers.rules.determinism import STDLIB_GLOBAL_FNS

#: modules whose very import signals wall-clock coupling.
CLOCK_MODULES = frozenset({"time", "datetime"})


class SimWallClockRule(LintRule):
    rule_id = "SIM07"
    severity = "error"
    description = "wall clock / global RNG inside the event engine"
    hint = (
        "advance time via the event heap (SimClock) and draw randomness "
        "from a seeded random.Random held by the arrival process; "
        "wall-clock benchmarking belongs in benchmarks/perf/"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # fleet campaigns and audit certificates inherit the same
        # contract: reports and certificates must be byte-identical
        # across serial/parallel/resumed runs, which one wall-clock read
        # or global RNG draw would break.
        return (
            ctx.in_package_dir("sim")
            or ctx.in_package_dir("fleet")
            or ctx.in_package_dir("audit")
            or ctx.in_package_dir("checkpoint")
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    # ------------------------------------------------------------------
    def _check_import(
        self, ctx: FileContext, node: ast.Import
    ) -> Iterator[Finding]:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in CLOCK_MODULES:
                yield self.finding(
                    ctx,
                    node,
                    f"import of {alias.name!r} inside repro.sim "
                    "(wall-clock coupling)",
                )

    def _check_import_from(
        self, ctx: FileContext, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        root = (node.module or "").split(".")[0]
        if root in CLOCK_MODULES:
            names = ", ".join(alias.name for alias in node.names)
            yield self.finding(
                ctx,
                node,
                f"import of {names} from {node.module!r} inside repro.sim "
                "(wall-clock coupling)",
            )

    def _check_call(self, ctx: FileContext, call: ast.Call) -> Iterator[Finding]:
        chain = attr_chain(call.func)
        if chain is None or len(chain) < 2:
            return
        if chain[0] in CLOCK_MODULES:
            dotted = ".".join(chain)
            yield self.finding(
                ctx,
                call,
                f"call to {dotted}() inside repro.sim (simulated time must "
                "come from the event heap)",
            )
        elif chain[0] == "random" and chain[-1] in (
            STDLIB_GLOBAL_FNS | {"seed"}
        ):
            dotted = ".".join(chain)
            yield self.finding(
                ctx,
                call,
                f"module-level {dotted}() inside repro.sim (use a seeded "
                "random.Random instance)",
            )
