"""Per-rule positive/negative cases on synthetic source files.

Each snippet is written under a ``repro/<dir>/`` shaped tmp tree so the
directory-scoped rules see realistic ``rel_parts``.
"""

from __future__ import annotations

import textwrap

from repro.checkers.lint import lint_file


def _lint(tmp_path, relpath: str, body: str):
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return lint_file(path)


def _ids(findings):
    return sorted({f.rule_id for f in findings})


class TestSim01Encapsulation:
    def test_direct_counter_mutation_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/rogue.py",
            """
            def f(self, gb):
                self.status._live[gb] -= 1
            """,
        )
        assert _ids(findings) == ["SIM01"]
        assert "_live" in findings[0].message

    def test_status_array_read_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/rogue.py",
            """
            def f(self, gppa):
                return self.status._status[gppa]
            """,
        )
        assert _ids(findings) == ["SIM01"]

    def test_owner_module_exempt(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/page_status.py",
            """
            class StatusTable:
                def set_invalid(self, gppa):
                    self._status[gppa] = 2
                    self._invalid[self.block_of(gppa)] += 1
            """,
        )
        assert findings == []

    def test_accessor_use_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/good.py",
            """
            def f(self, gb):
                return self.status.live_count(gb)
            """,
        )
        assert findings == []


class TestSim02Accounting:
    UNACCOUNTED = """
    class Ftl:
        def lock_it(self, chip, ppn):
            chip.plock(ppn)
    """

    ACCOUNTED = """
    class Ftl:
        def lock_it(self, chip_id, ppn):
            self.chips[chip_id].plock(ppn)
            self.timing.plock(chip_id)
            self.stats.plocks += 1
    """

    def test_unaccounted_chip_op_flagged(self, tmp_path):
        findings = _lint(tmp_path, "repro/ftl/x.py", self.UNACCOUNTED)
        # SIM05 also fires (plock with no on_sanitize); SIM02 is the focus.
        assert "SIM02" in _ids(findings)
        sim02 = next(f for f in findings if f.rule_id == "SIM02")
        assert "self.timing.*" in sim02.message
        assert "self.stats.*" in sim02.message

    def test_accounted_chip_op_clean(self, tmp_path):
        findings = _lint(tmp_path, "repro/ftl/x.py", self.ACCOUNTED)
        # SIM05 would fire for the missing on_sanitize; SIM02 must not.
        assert "SIM02" not in _ids(findings)

    def test_timing_only_still_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            class Ftl:
                def erase_it(self, chip_id, block):
                    self.chips[chip_id].erase_block(block)
                    self.timing.erase(chip_id)
            """,
        )
        assert "SIM02" in _ids(findings)
        assert "self.stats.*" in findings[0].message

    def test_timing_model_call_is_not_a_chip_op(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            class Ftl:
                def account_only(self, chip_id):
                    self.timing.plock(chip_id)
            """,
        )
        assert findings == []

    def test_outside_ftl_dir_not_scoped(self, tmp_path):
        findings = _lint(tmp_path, "repro/host/x.py", self.UNACCOUNTED)
        assert "SIM02" not in _ids(findings)

    def test_suppression(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            class Ftl:
                def lock_it(self, chip, ppn):
                    chip.plock(ppn)  # lint: disable=SIM02,SIM05
            """,
        )
        assert findings == []


class TestSim03Determinism:
    def test_module_level_random_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/workloads/x.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert _ids(findings) == ["SIM03"]

    def test_unseeded_random_instance_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/workloads/x.py",
            """
            import random

            rng = random.Random()
            """,
        )
        assert _ids(findings) == ["SIM03"]

    def test_seeded_random_instance_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/workloads/x.py",
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
        )
        assert findings == []

    def test_numpy_global_draw_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/flash/x.py",
            """
            import numpy as np

            def noise(n):
                return np.random.normal(size=n)
            """,
        )
        assert "SIM03" in _ids(findings)

    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/flash/x.py",
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
        )
        assert _ids(findings) == ["SIM03"]

    def test_seeded_default_rng_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/flash/x.py",
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert findings == []

    def test_generator_annotation_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/flash/x.py",
            """
            import numpy as np

            def draw(rng: np.random.Generator):
                return rng.normal()
            """,
        )
        assert findings == []


class TestSim04FloatEquality:
    def test_float_eq_in_flash_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/flash/x.py",
            """
            def check(rber):
                return rber == 0.0
            """,
        )
        assert _ids(findings) == ["SIM04"]

    def test_float_neq_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/flash/x.py",
            """
            def check(vth):
                return vth != -1.5
            """,
        )
        assert _ids(findings) == ["SIM04"]

    def test_ordered_comparison_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/flash/x.py",
            """
            def check(rber):
                return rber <= 0.0
            """,
        )
        assert findings == []

    def test_int_literal_eq_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/flash/x.py",
            """
            def check(count):
                return count == 0
            """,
        )
        assert findings == []

    def test_outside_flash_not_scoped(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            def check(ratio):
                return ratio == 1.0
            """,
        )
        assert findings == []


class TestSim05Observer:
    SILENT = """
    class Ftl:
        def lock_it(self, chip_id, ppn):
            self.chips[chip_id].plock(ppn)
            self.timing.plock(chip_id)
            self.stats.plocks += 1
    """

    NOTIFYING = """
    class Ftl:
        def lock_it(self, chip_id, ppn, gppa):
            self.chips[chip_id].plock(ppn)
            self.timing.plock(chip_id)
            self.stats.plocks += 1
            self.observer.on_sanitize(gppa, "plock")
    """

    def test_silent_sanitize_flagged(self, tmp_path):
        findings = _lint(tmp_path, "repro/ftl/x.py", self.SILENT)
        assert _ids(findings) == ["SIM05"]
        assert "on_sanitize" in findings[0].message

    def test_notifying_sanitize_clean(self, tmp_path):
        findings = _lint(tmp_path, "repro/ftl/x.py", self.NOTIFYING)
        assert findings == []

    def test_scrub_wordline_covered(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            class Ftl:
                def scrub_it(self, chip_id, block, wl):
                    self.chips[chip_id].scrub_wordline(block, wl)
                    self.timing.scrub(chip_id)
                    self.stats.scrubs += 1
            """,
        )
        assert _ids(findings) == ["SIM05"]

    def test_outside_ftl_dir_not_scoped(self, tmp_path):
        findings = _lint(tmp_path, "repro/core/x.py", self.SILENT)
        assert "SIM05" not in _ids(findings)


class TestSim06SwallowedFlashError:
    def test_pass_handler_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            def f(self, chip, ppn):
                try:
                    return chip.read_page(ppn)
                except FlashError:
                    pass
            """,
        )
        assert _ids(findings) == ["SIM06"]
        assert "FlashError" in findings[0].message

    def test_tuple_catch_with_continue_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            def f(self, chip, ppns):
                out = []
                for ppn in ppns:
                    try:
                        out.append(chip.read_page(ppn))
                    except (UncorrectableError, ProgramFailError):
                        continue
                return out
            """,
        )
        assert _ids(findings) == ["SIM06"]

    def test_qualified_name_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            def f(chip, block):
                try:
                    chip.erase_block(block)
                except errors.EraseFailError:
                    return None
            """,
        )
        assert _ids(findings) == ["SIM06"]

    def test_reraise_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            def f(self, chip, ppn):
                try:
                    return chip.read_page(ppn)
                except UncorrectableError:
                    raise
            """,
        )
        assert findings == []

    def test_stats_accounting_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            def f(self, chip, ppn):
                try:
                    return chip.read_page(ppn)
                except UncorrectableError:
                    self.stats.read_failures += 1
                    return None
            """,
        )
        assert findings == []

    def test_using_the_exception_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            def f(self, chip, ppn, log):
                try:
                    return chip.read_page(ppn)
                except UncorrectableError as exc:
                    log.append(exc)
                    return None
            """,
        )
        assert findings == []

    def test_unrelated_exception_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            def f(self, mapping, lpa):
                try:
                    return mapping[lpa]
                except KeyError:
                    return None
            """,
        )
        assert findings == []

    def test_power_loss_not_covered(self, tmp_path):
        # PowerLossInjected is a simulation control signal, not a flash
        # error: catching it (in harness code) is legitimate
        findings = _lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            def f(ssd, requests):
                try:
                    for request in requests:
                        ssd.submit(request)
                except PowerLossInjected:
                    return True
                return False
            """,
        )
        assert findings == []

    def test_suppression_comment_works(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/x.py",
            """
            def f(self, chip, ppn):
                try:
                    return chip.read_page(ppn)
                except FlashError:  # lint: disable=SIM06
                    pass
            """,
        )
        assert findings == []


class TestSim07WallClock:
    def test_time_import_in_sim_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/sim/engine.py",
            """
            import time

            def handler(event):
                return time.monotonic()
            """,
        )
        assert _ids(findings) == ["SIM07"]
        assert len(findings) == 2  # the import and the call

    def test_datetime_from_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/sim/metrics.py",
            """
            from datetime import datetime

            def stamp():
                return datetime.utcnow()
            """,
        )
        assert "SIM07" in _ids(findings)

    def test_module_level_random_draw_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/sim/arrivals.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        # SIM03 also fires on the unseeded draw; SIM07 adds the
        # engine-specific ban
        assert "SIM07" in _ids(findings)

    def test_random_seed_flagged_even_though_seeded(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/sim/arrivals.py",
            """
            import random

            def init(seed):
                random.seed(seed)
            """,
        )
        assert "SIM07" in _ids(findings)

    def test_seeded_instance_rng_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/sim/arrivals.py",
            """
            import random

            class Arrivals:
                def __init__(self, seed):
                    self._rng = random.Random(seed)

                def interarrival_us(self):
                    return self._rng.expovariate(1.0)
            """,
        )
        assert "SIM07" not in _ids(findings)
        assert findings == []

    def test_outside_sim_dir_not_scoped(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/analysis/progress.py",
            """
            import time

            def bench(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
            """,
        )
        assert "SIM07" not in _ids(findings)

    def test_suppression_comment_works(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/sim/engine.py",
            """
            import time  # lint: disable=SIM07
            """,
        )
        assert findings == []


class TestSim08NoPrint:
    def test_print_in_library_module_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/base.py",
            """
            def f(x):
                print("debugging", x)
                return x
            """,
        )
        assert _ids(findings) == ["SIM08"]
        assert findings[0].line == 3

    def test_cli_module_exempt(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/cli.py",
            """
            def cmd(args):
                print("the console is cli.py's job")
            """,
        )
        assert "SIM08" not in _ids(findings)

    def test_outside_package_not_scoped(self, tmp_path):
        findings = _lint(
            tmp_path,
            "scripts/tool.py",
            """
            print("standalone scripts may talk")
            """,
        )
        assert "SIM08" not in _ids(findings)

    def test_print_as_value_clean(self, tmp_path):
        # referencing print (echo=print default) is not calling it
        findings = _lint(
            tmp_path,
            "repro/checkers/lint.py",
            """
            def run(paths, echo=print):
                echo("report")
            """,
        )
        assert "SIM08" not in _ids(findings)

    def test_shadowed_attribute_print_clean(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/base.py",
            """
            def f(writer):
                writer.print("not the builtin")
            """,
        )
        assert "SIM08" not in _ids(findings)

    def test_suppression_comment_works(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/base.py",
            """
            def f():
                print("allowed here")  # lint: disable=SIM08
            """,
        )
        assert findings == []


class TestSim09ParallelOnly:
    def test_multiprocessing_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/analysis/rogue.py",
            """
            import multiprocessing

            def fan_out(tasks):
                with multiprocessing.Pool() as pool:
                    return pool.map(str, tasks)
            """,
        )
        assert _ids(findings) == ["SIM09"]
        assert "multiprocessing" in findings[0].message

    def test_concurrent_futures_from_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/sim/rogue.py",
            """
            from concurrent.futures import ProcessPoolExecutor
            """,
        )
        assert _ids(findings) == ["SIM09"]

    def test_submodule_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/rogue.py",
            """
            import multiprocessing.pool as mp_pool
            """,
        )
        assert _ids(findings) == ["SIM09"]

    def test_parallel_module_exempt(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/analysis/parallel.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def run_grid(fn, tasks, jobs=1):
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    return [f.result() for f in [pool.submit(fn, t) for t in tasks]]
            """,
        )
        assert "SIM09" not in _ids(findings)

    def test_out_of_package_script_exempt(self, tmp_path):
        findings = _lint(
            tmp_path,
            "scripts/fanout.py",
            """
            import multiprocessing
            """,
        )
        assert "SIM09" not in _ids(findings)

    def test_threading_not_banned(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/telemetry/rogue.py",
            """
            import threading
            """,
        )
        assert "SIM09" not in _ids(findings)


class TestSim15SerializationBoundary:
    def test_pickle_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/analysis/rogue.py",
            """
            import pickle

            def save(state, path):
                pickle.dump(state, open(path, "wb"))
            """,
        )
        assert _ids(findings) == ["SIM15"]
        assert "pickle" in findings[0].message

    def test_from_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/ftl/rogue.py",
            """
            from marshal import dumps
            """,
        )
        assert _ids(findings) == ["SIM15"]

    def test_submodule_import_flagged(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/sim/rogue.py",
            """
            import shelve.whatever as sv
            """,
        )
        assert _ids(findings) == ["SIM15"]

    def test_checkpoint_package_exempt(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/checkpoint/interop.py",
            """
            import pickle
            """,
        )
        assert "SIM15" not in _ids(findings)

    def test_out_of_package_script_exempt(self, tmp_path):
        findings = _lint(
            tmp_path,
            "scripts/export.py",
            """
            import pickle
            """,
        )
        assert "SIM15" not in _ids(findings)

    def test_plain_json_not_banned(self, tmp_path):
        findings = _lint(
            tmp_path,
            "repro/analysis/reports.py",
            """
            import json
            """,
        )
        assert "SIM15" not in _ids(findings)
