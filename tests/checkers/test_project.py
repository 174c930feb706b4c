"""The per-file facts SIM14 reads: module naming and the import graph."""

from __future__ import annotations

import textwrap

from repro.checkers.lint import make_context
from repro.checkers.rules.layering import (
    import_edges,
    module_name_of,
    top_package,
)


def _ctx(tmp_path, relpath: str, body: str):
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return make_context(path)


def _edges(tmp_path, relpath: str, body: str):
    return import_edges(_ctx(tmp_path, relpath, body).tree)


class TestModuleNaming:
    def test_package_module(self, tmp_path):
        ctx = _ctx(tmp_path, "src/repro/ftl/base.py", "x = 1\n")
        assert module_name_of(ctx) == "repro.ftl.base"

    def test_package_init(self, tmp_path):
        ctx = _ctx(tmp_path, "src/repro/ftl/__init__.py", "x = 1\n")
        assert module_name_of(ctx) == "repro.ftl"

    def test_top_level_module(self, tmp_path):
        ctx = _ctx(tmp_path, "src/repro/faults.py", "x = 1\n")
        assert module_name_of(ctx) == "repro.faults"

    def test_file_outside_repro(self, tmp_path):
        ctx = _ctx(tmp_path, "scripts/tool.py", "x = 1\n")
        assert module_name_of(ctx) == "tool"


class TestImportGraph:
    def test_plain_and_from_imports(self, tmp_path):
        ctx = _ctx(tmp_path, "repro/ssd/device.py", """
            import repro.flash.constants
            from repro.ftl.base import PageMappedFtl
            from repro import telemetry
        """)
        edges = import_edges(ctx.tree)
        targets = {e.module for e in edges}
        assert targets == {
            "repro.flash.constants",
            "repro.ftl.base",
            "repro.telemetry",
        }
        assert top_package(module_name_of(ctx)) == "ssd"
        tops = {top_package(e.module) for e in edges}
        assert tops == {"flash", "ftl", "telemetry"}

    def test_type_checking_imports_are_tagged(self, tmp_path):
        edges = _edges(tmp_path, "repro/ftl/observer.py", """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.sim.engine import QueueingEngine
            from repro.flash.constants import PAGE_SIZE
        """)
        by_target = {e.module: e for e in edges}
        assert by_target["repro.sim.engine"].type_only
        assert not by_target["repro.flash.constants"].type_only

    def test_relative_imports_ignored(self, tmp_path):
        edges = _edges(
            tmp_path, "repro/ftl/secure.py", "from .base import PageMappedFtl\n"
        )
        assert edges == []
