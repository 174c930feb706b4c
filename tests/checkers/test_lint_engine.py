"""Lint engine mechanics: discovery, suppression, formatting, parsing."""

from __future__ import annotations

import textwrap

import pytest

from repro.checkers.lint import (
    Finding,
    default_rules,
    format_findings,
    iter_python_files,
    lint_file,
    lint_paths,
    make_context,
    rule_catalogue,
    run_lint,
)


def _write(tmp_path, relpath: str, body: str):
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


class TestDiscovery:
    def test_directory_walk_is_sorted_and_skips_pycache(self, tmp_path):
        _write(tmp_path, "pkg/b.py", "x = 1\n")
        _write(tmp_path, "pkg/a.py", "x = 1\n")
        _write(tmp_path, "pkg/__pycache__/c.py", "x = 1\n")
        _write(tmp_path, "pkg/note.txt", "not python\n")
        files = list(iter_python_files([tmp_path / "pkg"]))
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_single_file_accepted(self, tmp_path):
        path = _write(tmp_path, "one.py", "x = 1\n")
        assert list(iter_python_files([path])) == [path]

    def test_non_python_path_rejected(self, tmp_path):
        path = _write(tmp_path, "one.txt", "x\n")
        with pytest.raises(FileNotFoundError):
            list(iter_python_files([path]))


class TestContext:
    def test_rel_parts_strip_repro_prefix(self, tmp_path):
        path = _write(tmp_path, "src/repro/ftl/base.py", "x = 1\n")
        ctx = make_context(path)
        assert ctx.rel_parts == ("ftl", "base.py")
        assert ctx.filename == "base.py"
        assert ctx.in_package_dir("ftl")
        assert not ctx.in_package_dir("flash")

    def test_file_outside_repro_keeps_parts(self, tmp_path):
        path = _write(tmp_path, "scripts/tool.py", "x = 1\n")
        ctx = make_context(path)
        assert ctx.rel_parts[-1] == "tool.py"
        assert not ctx.in_package_dir("ftl")


class TestSuppression:
    def test_specific_rule_suppressed_on_line(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            def f(x):
                return x == 1.0  # lint: disable=SIM04
            """,
        )
        assert lint_file(path) == []

    def test_wildcard_all_suppressed(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            def f(x):
                return x == 1.0  # lint: disable=all
            """,
        )
        assert lint_file(path) == []

    def test_other_rule_id_does_not_suppress(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            def f(x):
                return x == 1.0  # lint: disable=SIM03
            """,
        )
        assert [f.rule_id for f in lint_file(path)] == ["SIM04"]

    def test_suppression_is_line_scoped(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            def f(x):
                a = x == 1.0  # lint: disable=SIM04
                b = x == 2.0
                return a or b
            """,
        )
        findings = lint_file(path)
        assert [f.rule_id for f in findings] == ["SIM04"]
        assert findings[0].line == 4  # the unsuppressed comparison


class TestFileSuppression:
    """`# lint: disable-file=ID` silences a rule for the whole file."""

    def test_file_level_silences_all_occurrences(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            # lint: disable-file=SIM04 -- tolerance table is exact by design
            def f(x):
                a = x == 1.0
                b = x == 2.0
                return a or b
            """,
        )
        assert lint_file(path) == []

    def test_file_level_is_rule_scoped(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            # lint: disable-file=SIM03
            def f(x):
                return x == 1.0
            """,
        )
        assert [f.rule_id for f in lint_file(path)] == ["SIM04"]

    def test_file_level_wildcard(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            # lint: disable-file=all
            def f(x):
                return x == 1.0
            """,
        )
        assert lint_file(path) == []

    def test_file_level_applies_regardless_of_position(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            def f(x):
                return x == 1.0

            # lint: disable-file=SIM04 -- declared after the finding
            """,
        )
        assert lint_file(path) == []

    def test_file_level_and_line_level_compose(self, tmp_path):
        """File-level for one rule leaves per-line control of others."""
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            # lint: disable-file=SIM04
            import random

            def f(x):
                a = random.random()  # lint: disable=SIM03
                b = random.random()
                return a == 1.0 or b == 2.0
            """,
        )
        findings = lint_file(path)
        # SIM04 gone file-wide; SIM03 suppressed only on the first call
        assert [f.rule_id for f in findings] == ["SIM03"]
        assert findings[0].line == 7

    def test_line_suppression_does_not_leak_file_wide(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            def f(x):
                a = x == 1.0  # lint: disable=SIM04
                b = x == 2.0
                return a or b
            """,
        )
        assert [f.line for f in lint_file(path)] == [4]


class TestParseErrors:
    def test_syntax_error_becomes_finding(self, tmp_path):
        path = _write(tmp_path, "repro/bad.py", "def f(:\n")
        findings = lint_file(path)
        assert len(findings) == 1
        assert findings[0].rule_id == "SIM-PARSE"
        assert findings[0].severity == "error"
        assert "does not parse" in findings[0].message


class TestFormatting:
    def test_clean_report(self):
        assert format_findings([]) == "repro lint: clean (0 findings)"

    def test_report_has_location_and_summary(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/flash/x.py",
            """
            def f(x):
                return x == 1.0
            """,
        )
        findings = lint_paths([path])
        report = format_findings(findings)
        assert f"{path}:3:" in report
        assert "error SIM04" in report
        assert "1 finding(s): 1 error(s)" in report
        assert "hint:" in report
        assert "hint:" not in format_findings(findings, show_hints=False)

    def test_finding_format_without_hint(self):
        finding = Finding("SIM99", "error", "a.py", 3, 7, "boom")
        assert finding.format() == "a.py:3:7: error SIM99: boom"

    def test_findings_sorted_by_location(self, tmp_path):
        _write(tmp_path, "repro/flash/b.py", "x = 1 if y == 2.0 else 0\n")
        _write(tmp_path, "repro/flash/a.py", "x = 1 if y == 2.0 else 0\n")
        findings = lint_paths([tmp_path])
        paths = [f.path for f in findings]
        assert paths == sorted(paths)


class TestRegistry:
    def test_catalogue_lists_every_rule(self):
        catalogue = rule_catalogue()
        for rule in default_rules():
            assert rule.rule_id in catalogue
        for rule_id in ("SIM03", "SIM04", "SIM10", "SIM14", "SIM16"):
            assert rule_id in catalogue
        # retired in favour of runtime checks (DESIGN.md 3c)
        for rule_id in ("SIM01", "SIM02", "SIM05", "SIM11", "SIM12"):
            assert rule_id not in catalogue

    def test_run_lint_clean_tree_exit_zero(self, tmp_path, capsys):
        _write(tmp_path, "repro/ok.py", "x = 1\n")
        assert run_lint([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_run_lint_dirty_tree_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "repro/flash/x.py", "bad = value == 0.5\n")
        assert run_lint([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM04" in out and "x.py:1" in out

    def test_shipped_package_is_clean_against_baseline(self):
        """The tree has zero findings beyond the committed baseline."""
        from pathlib import Path

        from repro.checkers.baseline import Baseline

        import repro

        package_root = Path(repro.__file__).resolve().parent
        repo_root = package_root.parent.parent
        baseline = Baseline.load(repo_root / ".lint-baseline.json")
        new, accepted = baseline.split(lint_paths([package_root]))
        assert new == [], "non-baselined findings:\n" + "\n".join(
            f.format(show_hint=False) for f in new
        )
        # the baseline must not contain stale entries either: every
        # accepted fingerprint is still produced by the tree
        assert len(accepted) == sum(baseline.fingerprints.values())
