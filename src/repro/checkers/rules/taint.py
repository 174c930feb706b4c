"""SIM10: nondeterministic values must not reach result artifacts.

Everything downstream of a run -- the simulated-output goldens, the
serial-vs-parallel byte-identity check, the golden telemetry files --
assumes a run's artifacts are a pure function of (workload, config,
seed).  A wall-clock read, ``os.urandom`` byte, ``id()``, or unordered
``set`` iteration that flows into a :class:`RunResult`, a telemetry
event, or a JSON artifact breaks that silently: the gate starts to
flicker instead of gate.

The per-function taint environment comes from
:mod:`repro.checkers.dataflow` (sources, propagation, and the
``sorted()`` sanitizer are documented there).  This rule only *reports*
at sinks:

* ``RunResult(...)`` construction (the canonical result record);
* telemetry emission, ``<...>.bus.instant(...)`` /
  ``<...>.bus.complete(...)`` (and direct ``bus.*`` calls);
* ``json.dump(...)`` / ``json.dumps(...)`` (merged artifacts).

Intentional wall-clock measurement (a timing harness that records real
time on purpose) is suppressed at the sink line with a justified
``# lint: disable=SIM10 -- ...`` comment.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checkers.dataflow import FunctionTaint
from repro.checkers.lint import (
    FileContext,
    Finding,
    LintRule,
    attr_chain,
    attr_tail,
    calls_in,
    functions_of,
)

#: constructor names treated as result-record sinks.
_RESULT_TYPES = frozenset({"RunResult"})

#: telemetry emission methods (on a ``bus`` receiver).
_BUS_EMITS = frozenset({"instant", "complete", "counter"})

#: json serialization entry points.
_JSON_SINKS = frozenset({("json", "dump"), ("json", "dumps")})


def _sink_label(call: ast.Call) -> str | None:
    """Human label when this call is a sink, else ``None``."""
    chain = attr_chain(call.func)
    tail = attr_tail(call.func)
    if chain and chain[-1] in _RESULT_TYPES:
        return f"{chain[-1]}(...) result record"
    if tail and tail[-1] in _BUS_EMITS and "bus" in tail[:-1]:
        return f"telemetry bus.{tail[-1]}(...)"
    if chain and len(chain) == 2 and chain[0] == "bus" and (
        chain[1] in _BUS_EMITS
    ):
        return f"telemetry bus.{chain[1]}(...)"
    if chain and chain[-2:] in _JSON_SINKS:
        return f"{'.'.join(chain[-2:])}(...) artifact"
    return None


class DeterminismTaintRule(LintRule):
    rule_id = "SIM10"
    severity = "error"
    description = (
        "nondeterministic value (wall clock, entropy, process identity, "
        "or set iteration order) flows into a result artifact"
    )
    hint = (
        "derive artifacts only from (workload, config, seed): sort sets "
        "before iterating, take time from the sim clock, or justify "
        "with `# lint: disable=SIM10 -- why` if measuring wall time is "
        "the point"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # functions_of also yields nested functions, whose calls would
        # otherwise be visited twice (once under the enclosing walk)
        reported: set[tuple[int, int]] = set()
        for func in functions_of(ctx.tree):
            taint_env: FunctionTaint | None = None
            for call in calls_in(func):
                label = _sink_label(call)
                if label is None:
                    continue
                if (call.lineno, call.col_offset) in reported:
                    continue
                if taint_env is None:
                    taint_env = FunctionTaint(func)
                args = list(call.args) + [kw.value for kw in call.keywords]
                for arg in args:
                    taint = taint_env.taint_of(arg)
                    if not taint:
                        continue
                    kinds = ", ".join(
                        f"{kind} (from line {line})"
                        for kind, line in sorted(taint.kinds.items())
                    )
                    reported.add((call.lineno, call.col_offset))
                    yield self.finding(
                        ctx,
                        call,
                        f"{label} receives {kinds} via "
                        f"{ast.unparse(arg)!r} in {func.name!r}",
                    )
                    break  # one finding per sink call is enough
