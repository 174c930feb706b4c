"""SIM14: import-layering contract (telemetry -> flash -> ... -> fleet, no upward)."""

from __future__ import annotations

import textwrap

from repro.checkers.lint import lint_paths
from repro.checkers.rules.layering import ImportLayeringRule

RULES = [ImportLayeringRule()]


def _write(tmp_path, relpath: str, body: str):
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def _lint(tmp_path):
    return lint_paths([tmp_path], rules=RULES)


class TestLayering:
    def test_downward_imports_are_clean(self, tmp_path):
        _write(tmp_path, "repro/ssd/device.py", """
            from repro.flash.constants import PAGE_SIZE
            from repro.ftl.base import PageMappedFtl
        """)
        _write(tmp_path, "repro/sim/runner.py", """
            from repro.ssd.device import Ssd
        """)
        _write(tmp_path, "repro/analysis/tail.py", """
            from repro.sim.runner import run
            from repro.telemetry import Telemetry
        """)
        assert _lint(tmp_path) == []

    def test_upward_ftl_to_sim_import_is_flagged(self, tmp_path):
        # the acceptance-criteria fixture: ftl reaching up into sim
        _write(tmp_path, "repro/ftl/base.py", """
            from repro.sim.engine import QueueingEngine
        """)
        (finding,) = _lint(tmp_path)
        assert finding.rule_id == "SIM14"
        assert finding.severity == "error"
        assert finding.line == 2
        assert "'ftl' (layer 2)" in finding.message
        assert "'sim' (layer 4)" in finding.message

    def test_telemetry_is_below_flash_and_ftl(self, tmp_path):
        # every simulator layer publishes into telemetry: those edges
        # point down
        _write(tmp_path, "repro/flash/x.py", """
            from repro.telemetry import Telemetry
        """)
        _write(tmp_path, "repro/ftl/x.py", """
            from repro.telemetry.events import TraceBus
        """)
        assert _lint(tmp_path) == []

    def test_telemetry_importing_ftl_is_flagged(self, tmp_path):
        # the bridge may name the observer protocol only under
        # TYPE_CHECKING; a runtime import is the old ftl <-> telemetry cycle
        _write(tmp_path, "repro/telemetry/x.py", """
            from repro.ftl.observer import NullObserver
        """)
        (finding,) = _lint(tmp_path)
        assert "'telemetry' (layer 0)" in finding.message
        assert "'ftl' (layer 2)" in finding.message

    def test_ftl_importing_ssd_is_flagged(self, tmp_path):
        # the FTL's requests, counters and timing live in ftl; the
        # device stays above it
        _write(tmp_path, "repro/ftl/x.py", """
            from repro.ssd.device import SSD
        """)
        (finding,) = _lint(tmp_path)
        assert "'ssd' (layer 3)" in finding.message

    def test_layering_cycle_is_caught_via_upward_edge(self, tmp_path):
        # ftl -> sim -> ftl: the downward half is legal, the upward half
        # is the finding -- a total order makes every cycle visible
        _write(tmp_path, "repro/ftl/secure.py", """
            from repro.sim.ops import RecordingTiming
        """)
        _write(tmp_path, "repro/sim/ops.py", """
            from repro.ftl.secure import SecureFtl
        """)
        findings = _lint(tmp_path)
        assert [f.rule_id for f in findings] == ["SIM14"]
        assert findings[0].path.endswith("secure.py")

    def test_type_checking_imports_exempt(self, tmp_path):
        _write(tmp_path, "repro/telemetry/bridge.py", """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.ftl.observer import FtlObserver
        """)
        assert _lint(tmp_path) == []

    def test_same_package_imports_exempt(self, tmp_path):
        _write(tmp_path, "repro/sim/engine.py", """
            from repro.sim.heap import EventHeap
        """)
        assert _lint(tmp_path) == []

    def test_unlayered_packages_exempt(self, tmp_path):
        # checkers/cli/util are not part of the runtime layering contract
        _write(tmp_path, "repro/checkers/x.py", """
            from repro.analysis.tail import percentile
        """)
        _write(tmp_path, "repro/ftl/base.py", """
            from repro.util import clamp
        """)
        assert _lint(tmp_path) == []

    def test_inline_suppression_applies(self, tmp_path):
        _write(tmp_path, "repro/ftl/base.py", """
            from repro.sim.engine import QueueingEngine  # lint: disable=SIM14 -- seam
        """)
        assert _lint(tmp_path) == []
