"""SIM13: time-unit suffix consistency (_ns/_us/_ms/_s)."""

from __future__ import annotations

import textwrap

import pytest

from repro.checkers.lint import lint_paths
from repro.checkers.rules.units import TimeUnitConsistencyRule

RULES = [TimeUnitConsistencyRule()]


def _write(tmp_path, relpath: str, body: str):
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def _lint(tmp_path):
    return lint_paths([tmp_path], rules=RULES)


class TestMismatches:
    def test_mixed_addition_flagged(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def f(start_us, t_prog_ms):
                return start_us + t_prog_ms
        """)
        (finding,) = _lint(tmp_path)
        assert finding.rule_id == "SIM13"
        assert "us" in finding.message and "ms" in finding.message

    def test_mixed_comparison_flagged(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def f(deadline_us, now_ns):
                return now_ns < deadline_us
        """)
        assert [f.rule_id for f in _lint(tmp_path)] == ["SIM13"]

    def test_assignment_unit_mismatch_flagged(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def f(t_read_us):
                latency_ms = t_read_us
                return latency_ms
        """)
        assert [f.rule_id for f in _lint(tmp_path)] == ["SIM13"]

    @pytest.mark.parametrize(
        "statement",
        [
            "self.cell_work_us = self.cell_work_us + t_read_ms",
            "self.cell_work_us += t_read_ms",
            "self.cell_work_us -= t_read_ms",
        ],
    )
    def test_accumulating_mixed_units_flagged(self, tmp_path, statement):
        _write(tmp_path, "repro/ssd/x.py", f"""
            def f(self, t_read_ms):
                {statement}
        """)
        (finding,) = _lint(tmp_path)
        assert finding.rule_id == "SIM13"
        assert "[us]" in finding.message and "[ms]" in finding.message

    def test_keyword_argument_mismatch_flagged(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def f(self, end_ns):
                self.record(duration_us=end_ns)
        """)
        assert [f.rule_id for f in _lint(tmp_path)] == ["SIM13"]

    def test_function_suffix_vs_return_flagged(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def latency_ms(self, start_us):
                return self.end_us - 0 + start_us
        """)
        findings = _lint(tmp_path)
        assert findings and all(f.rule_id == "SIM13" for f in findings)


class TestClean:
    def test_same_unit_arithmetic(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def f(start_us, t_prog_us):
                end_us = start_us + t_prog_us
                return end_us
        """)
        assert _lint(tmp_path) == []

    def test_explicit_conversion_resets_unit(self, tmp_path):
        # multiply/divide is how conversions are written; the result is
        # deliberately unit-unknown
        _write(tmp_path, "repro/ssd/x.py", """
            def f(start_us):
                start_ms = start_us / 1000.0
                return start_ms
        """)
        assert _lint(tmp_path) == []

    def test_rates_and_unitless_names_exempt(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def f(ops_per_s, pages, span_us):
                total = ops_per_s * pages
                return total + span_us
        """)
        assert _lint(tmp_path) == []

    def test_constants_inherit_context(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def f(start_us):
                end_us = start_us + 50
                return end_us
        """)
        assert _lint(tmp_path) == []

    def test_same_unit_accumulation(self, tmp_path):
        # a conversion on the right of += is unit-unknown, so silent
        _write(tmp_path, "repro/ssd/x.py", """
            def f(self, t_read_us, t_read_ms):
                self.cell_work_us += t_read_us
                self.cell_work_us -= max(t_read_us, 0)
                self.cell_work_us += t_read_ms * 1000
        """)
        assert _lint(tmp_path) == []

    def test_aggregates_preserve_unanimous_unit(self, tmp_path):
        _write(tmp_path, "repro/ssd/x.py", """
            def f(a_us, b_us):
                peak_us = max(a_us, b_us)
                return peak_us
        """)
        assert _lint(tmp_path) == []
