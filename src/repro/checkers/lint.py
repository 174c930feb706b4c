"""Rule-driven static lint engine for the ``repro`` tree.

The engine parses every python file under the given paths, hands the AST
to each registered :class:`LintRule`, and collects :class:`Finding`
objects.  Rules are *domain* rules: they encode simulator invariants
(page-status encapsulation, lock-op accounting, seeded randomness, ...)
that generic linters cannot know about -- see
:mod:`repro.checkers.rules` for the catalogue.

Suppression uses two comment syntaxes.  Per line::

    something_suspicious()  # lint: disable=SIM03
    other_thing()           # lint: disable=SIM03,SIM04 -- why it is fine
    everything_goes()       # lint: disable=all

and per file (anywhere in the file, conventionally near the top)::

    # lint: disable-file=SIM13 -- this module mixes units on purpose

A per-line suppression only silences findings reported *on that line*;
a file-level suppression silences the named rules for the whole file.
File-level wins whenever it applies -- per-line comments for other
rules keep working independently.  Text after ``--`` is a free-form
justification (encouraged, never parsed).

Every rule sees one file at a time.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

#: suppression comment, e.g. ``# lint: disable=SIM03,SIM04`` (per line)
#: or ``# lint: disable-file=SIM13`` (whole file).  An optional
#: ``-- justification`` trailer is ignored by the parser.
SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable(-file)?=([A-Za-z0-9_*,\s]+)")

#: severity ordering used to sort reports (most severe first).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self, show_hint: bool = True) -> str:
        out = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule_id}: {self.message}"
        )
        if show_hint and self.hint:
            out += f"\n    hint: {self.hint}"
        return out


@dataclass
class FileContext:
    """Everything a rule needs to inspect one source file."""

    path: Path
    display_path: str
    #: path parts relative to (and excluding) the ``repro`` package root,
    #: e.g. ``("ftl", "base.py")``; files outside a ``repro`` directory
    #: keep their full parts.  Rules use this for directory scoping.
    rel_parts: tuple[str, ...]
    source: str
    tree: ast.Module

    @property
    def filename(self) -> str:
        return self.rel_parts[-1] if self.rel_parts else self.path.name

    def in_package_dir(self, dirname: str) -> bool:
        """Whether the file lives under ``repro/<dirname>/``."""
        return len(self.rel_parts) > 1 and self.rel_parts[0] == dirname


class LintRule:
    """Base class for domain lint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings via :meth:`finding`.
    """

    rule_id: str = "SIM00"
    severity: str = "error"
    description: str = ""
    hint: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str | None = None
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message or self.description,
            hint=self.hint,
        )


# ---------------------------------------------------------------------------
# shared AST helpers used by the rule implementations
# ---------------------------------------------------------------------------
def attr_chain(node: ast.AST) -> tuple[str, ...] | None:
    """Dotted-name chain of an attribute/name expression.

    ``self.timing.plock`` -> ``("self", "timing", "plock")``; returns
    ``None`` when the chain is rooted in something unnamed (a call
    result, a subscript, ...), in which case only the trailing attribute
    names are recoverable via :func:`attr_tail`.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def attr_tail(node: ast.AST) -> tuple[str, ...]:
    """Trailing attribute names regardless of the chain's root.

    ``self.chips[i].plock`` -> ``("plock",)``;
    ``chip.block_lock`` -> ``("chip", "block_lock")`` (name roots count).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def functions_of(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
def _suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> suppressed rule ids (``{"all"}`` wildcards)."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = SUPPRESS_RE.search(line)
        if match and not match.group(1):
            ids = {part.strip() for part in match.group(2).split(",")}
            out[lineno] = {i for i in ids if i}
    return out


def _file_suppressions(source: str) -> set[str]:
    """Rule ids suppressed for the whole file (``disable-file=`` lines)."""
    out: set[str] = set()
    for line in source.splitlines():
        match = SUPPRESS_RE.search(line)
        if match and match.group(1):
            out.update(
                part.strip()
                for part in match.group(2).split(",")
                if part.strip()
            )
    return out


def _rel_parts(path: Path) -> tuple[str, ...]:
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1 :]
    return parts


def make_context(path: Path, display_path: str | None = None) -> FileContext:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        path=path,
        display_path=display_path or str(path),
        rel_parts=_rel_parts(path),
        source=source,
        tree=tree,
    )


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts and "egg-info" not in p.name
            )
        elif path.suffix == ".py" and path.is_file():
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")


def lint_file(
    path: Path | str,
    rules: Sequence[LintRule] | None = None,
    display_path: str | None = None,
) -> list[Finding]:
    """Run the rule set over one file, honouring suppressions."""
    if rules is None:
        rules = default_rules()
    path = Path(path)
    try:
        ctx = make_context(path, display_path)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id="SIM-PARSE",
                severity="error",
                path=display_path or str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    line_supp = _suppressions(ctx.source)
    in_file = _file_suppressions(ctx.source)
    kept: list[Finding] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if "all" in in_file or finding.rule_id in in_file:
                continue
            on_line = line_supp.get(finding.line, ())
            if "all" in on_line or finding.rule_id in on_line:
                continue
            kept.append(finding)
    return kept


def lint_paths(
    paths: Iterable[Path | str], rules: Sequence[LintRule] | None = None
) -> list[Finding]:
    """Run the rule set over files/directories; sorted, stable output."""
    if rules is None:
        rules = default_rules()
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def format_findings(
    findings: Sequence[Finding],
    show_hints: bool = True,
) -> str:
    """Human-readable report: one block per finding plus a summary line."""
    if not findings:
        return "repro lint: clean (0 findings)"
    lines = [f.format(show_hint=show_hints) for f in findings]
    by_sev = {
        sev: sum(1 for f in findings if f.severity == sev) for sev in SEVERITIES
    }
    summary = ", ".join(f"{n} {sev}(s)" for sev, n in by_sev.items() if n)
    lines.append(f"repro lint: {len(findings)} finding(s): {summary}")
    return "\n".join(lines)


def default_rules() -> list[LintRule]:
    """The registered SIM rule set (imported lazily to stay cycle-free)."""
    from repro.checkers.rules import ALL_RULES

    return [cls() for cls in ALL_RULES]


def rule_catalogue() -> str:
    """One line per rule: id, severity, description (for ``--rules``)."""
    lines = []
    for rule in default_rules():
        lines.append(f"{rule.rule_id} [{rule.severity}] {rule.description}")
    return "\n".join(lines)


def run_lint(
    paths: Sequence[str] | None = None,
    show_hints: bool = True,
    echo: Callable[[str], object] = print,
    fmt: str = "text",
    out: str | None = None,
) -> int:
    """CLI entry: lint the given paths (default: the installed package).

    Output goes through ``echo`` (stdout by default; pass a collector to
    capture it -- referencing ``print`` as a value keeps this module
    SIM08-clean, the *call* happens on the caller's authority).

    ``fmt`` selects ``text``, ``json``, or ``sarif``; ``out`` writes the
    report to a file instead of echoing it.

    Returns a process exit code: 0 when no error-severity finding
    remains, 1 otherwise, 2 on usage errors.
    """
    from repro.checkers.report import render_json, render_sarif

    if fmt not in ("text", "json", "sarif"):
        echo(f"repro lint: unknown format {fmt!r}")
        return 2
    if not paths:
        package_root = Path(__file__).resolve().parent.parent
        paths = [str(package_root)]
    try:
        findings = lint_paths(paths)
    except FileNotFoundError as exc:
        echo(f"repro lint: {exc}")
        return 2

    if fmt == "json":
        payload = render_json(findings)
    elif fmt == "sarif":
        payload = render_sarif(findings)
    else:
        payload = format_findings(findings, show_hints=show_hints) + "\n"

    if out:
        Path(out).write_text(payload, encoding="utf-8")
        echo(
            format_findings([])
            if not findings
            else f"repro lint: {len(findings)} finding(s) written to {out}"
        )
    else:
        echo(payload.removesuffix("\n"))
    return 1 if any(f.severity == "error" for f in findings) else 0
