"""ProjectContext: module naming, import graph, class hierarchy."""

from __future__ import annotations

import textwrap

from repro.checkers.lint import make_context
from repro.checkers.project import ProjectContext, module_name_of


def _ctx(tmp_path, relpath: str, body: str):
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return make_context(path)


def _project(tmp_path, files: dict[str, str]):
    contexts = [_ctx(tmp_path, rel, body) for rel, body in files.items()]
    return ProjectContext(contexts)


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
        project = _project(tmp_path, {
            "repro/ssd/device.py": """
                import repro.flash.constants
                from repro.ftl.base import PageMappedFtl
                from repro import telemetry
            """,
        })
        module = project.modules["repro.ssd.device"]
        targets = {e.module for e in module.imports}
        assert targets == {
            "repro.flash.constants",
            "repro.ftl.base",
            "repro.telemetry",
        }
        assert module.top_package == "ssd"
        tops = {e.top_package for e in module.imports}
        assert tops == {"flash", "ftl", "telemetry"}

    def test_type_checking_imports_are_tagged(self, tmp_path):
        project = _project(tmp_path, {
            "repro/ftl/observer.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.sim.engine import QueueingEngine
                from repro.flash.constants import PAGE_SIZE
            """,
        })
        module = project.modules["repro.ftl.observer"]
        by_target = {e.module: e for e in module.imports}
        assert by_target["repro.sim.engine"].type_only
        assert not by_target["repro.flash.constants"].type_only

    def test_relative_imports_ignored(self, tmp_path):
        project = _project(tmp_path, {
            "repro/ftl/secure.py": "from .base import PageMappedFtl\n",
        })
        assert project.modules["repro.ftl.secure"].imports == []


class TestHierarchy:
    FILES = {
        "repro/ftl/base.py": """
            class PageMappedFtl:
                def _invalidate(self, gppa):
                    self.observer.on_invalidate(gppa, 0, "host")
        """,
        "repro/ftl/secure.py": """
            class SecureFtl(PageMappedFtl):
                def extra(self):
                    pass
        """,
        "repro/ftl/scrub.py": """
            class ScrubFtl(SecureFtl):
                def _invalidate(self, gppa):
                    pass
        """,
        "repro/sim/engine.py": """
            class QueueingEngine:
                pass
        """,
    }

    def test_transitive_subclasses(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        names = {c.name for c in project.subclasses_of("PageMappedFtl")}
        assert names == {"PageMappedFtl", "SecureFtl", "ScrubFtl"}

    def test_resolved_methods_prefer_derived(self, tmp_path):
        project = _project(tmp_path, self.FILES)
        scrub = project.classes_named("ScrubFtl")[0]
        table = project.resolved_methods(scrub)
        assert set(table) == {"_invalidate", "extra"}
        # the override wins over the inherited definition
        assert table["_invalidate"] is scrub.methods["_invalidate"]

