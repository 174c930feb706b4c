"""Per-rule cases, one class per rule id.

Kept rules are linted on synthetic source files, each written under a
``repro/<dir>/`` shaped tmp tree so the directory-scoped rules see
realistic ``rel_parts``.  Retired rules (SIM01, SIM02, SIM05) have no
lint code left: their classes seed the rule's defect into a live FTL
and check that the runtime guard that replaced the rule fails on it
(DESIGN.md 3c), and that it stays quiet on the unmutated variants.
"""

from __future__ import annotations

import random
import textwrap

import pytest

from repro.checkers.lint import lint_file
from repro.checkers.sanitizer import InvariantViolation
from repro.faults import FaultKind, FaultPlan
from repro.ftl.base import InvalidationEvent
from repro.ftl.page_status import PageStatus, StatusTable
from repro.ftl.scrub_based import ScrubBasedFtl
from repro.ftl.secure import SecureFtl
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.ssd.request import trim, write


def _lint(tmp_path, relpath: str, body: str):
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return lint_file(path)


def _ids(findings):
    return sorted({f.rule_id for f in findings})


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
        assert "inside repro.sim " in findings[0].message

    @pytest.mark.parametrize("package", ["fleet", "audit", "checkpoint"])
    def test_message_names_the_files_package(self, tmp_path, package):
        findings = _lint(
            tmp_path,
            f"repro/{package}/writer.py",
            """
            import time

            def stamp():
                return round(time.time(), 3)
            """,
        )
        assert [f.message for f in findings] == [
            f"import of 'time' inside repro.{package} (wall-clock coupling)",
            f"call to time.time() inside repro.{package} (simulated time "
            "must come from the event heap)",
        ]

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


# ---------------------------------------------------------------------------
# retired rules: the seeded defect against the runtime guard
# ---------------------------------------------------------------------------
ALL_VARIANTS = (
    "baseline", "secSSD", "secSSD_nobLock", "erSSD", "scrSSD", "cryptSSD",
)


class _Without:
    """``inner`` with some methods turned into no-ops and some attribute
    writes dropped: the call site "forgets" them."""

    def __init__(self, inner, dropped):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_dropped", dropped)

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name in self._dropped and callable(value):
            return lambda *args, **kwargs: None
        return value

    def __setattr__(self, name, value):
        if name not in self._dropped:
            setattr(self._inner, name, value)


def forgetting(base, method: str, attr: str, *dropped: str):
    """A ``base`` subclass whose ``method`` forgets ``self.<attr>.<x>``
    for each ``x`` in ``dropped`` (a call or a counter bump)."""

    def mutated(self, *args, **kwargs):
        real = getattr(self, attr)
        setattr(self, attr, _Without(real, frozenset(dropped)))
        try:
            return getattr(super(cls, self), method)(*args, **kwargs)
        finally:
            setattr(self, attr, real)

    cls = type(f"{base.__name__}Forgetting", (base,), {method: mutated})
    return cls


def _churn(ssd: SSD, rounds: int = 2, seed: int = 1) -> None:
    """Random secure writes with some trims: enough to force GC."""
    rng = random.Random(seed)
    logical = ssd.logical_pages
    for _ in range(rounds * logical):
        lpa = rng.randrange(logical)
        ssd.submit(trim(lpa) if rng.random() < 0.1 else write(lpa, secure=True))


def _violation(config, ftl_class) -> InvariantViolation:
    ssd = SSD(config, ftl_class=ftl_class, checked=True, check_interval=1)
    with pytest.raises(InvariantViolation) as excinfo:
        _churn(ssd)
    return excinfo.value


class TestSim01Encapsulation:
    """StatusTable private state written outside ``page_status.py``:
    the sanitizer's per-block counter recount fails on it."""

    class CounterBypassFtl(SecureFtl):
        """Invalidates by writing the table's arrays directly and
        forgets the ``_invalid`` counter."""

        def _invalidate(self, gppa, lpa, reason):
            status = self.status
            prev = status.get(gppa)
            block = status.block_of(gppa)
            status._status[gppa] = PageStatus.INVALID
            status._live[block] -= 1
            if prev is PageStatus.SECURED:
                status._secured[block] -= 1
            self.observer.on_invalidate(gppa, lpa, reason)
            return InvalidationEvent(
                gppa, lpa, prev is PageStatus.SECURED, reason
            )

    def test_direct_counter_mutation_flagged(self, single_chip_config):
        violation = _violation(single_chip_config, self.CounterBypassFtl)
        assert violation.invariant == "block-counters"

    def test_owner_module_exempt(self):
        # the transition methods are the one sanctioned writer: they
        # keep every per-block counter equal to a recount
        table = StatusTable(physical_pages=48, pages_per_block=12)
        rng = random.Random(3)
        for _ in range(400):
            gppa = rng.randrange(48)
            current = table.get(gppa)
            if current is PageStatus.FREE:
                table.set_written(gppa, secure=rng.random() < 0.5)
            elif current is PageStatus.INVALID:
                table.set_erased_block(table.block_of(gppa))
            else:
                table.set_invalid(gppa)
            for block in range(table.n_blocks):
                pages = [table.get(g) for g in range(block * 12, block * 12 + 12)]
                secured = pages.count(PageStatus.SECURED)
                assert table.secured_count(block) == secured
                assert table.live_count(block) == (
                    secured + pages.count(PageStatus.VALID)
                )
                assert table.invalid_count(block) == pages.count(
                    PageStatus.INVALID
                )


#: op kind -> (chip command, timing charge, DeviceStats counter)
ACCOUNTED_OPS = {
    "plock": ("plock", "plock", "plocks"),
    "block_lock": ("block_lock", "block_lock", "block_locks"),
    "erase": ("erase_block", "erase", "flash_erases"),
    "scrub": ("scrub_wordline", "scrub", "scrubs"),
}


class TestSim02Accounting:
    """A chip op without its timing charge or its stats bump: the op
    accounting oracle fails on it.  The oracle counts, per op kind, the
    chip commands that completed, the timing model's charges and the
    DeviceStats counter, under erase-, program- and lock-fail faults,
    and requires the three to be equal."""

    PLAN = FaultPlan.from_rates(
        {
            FaultKind.ERASE_FAIL: 0.01,
            FaultKind.PROGRAM_FAIL: 0.01,
            FaultKind.PLOCK_FAIL: 0.05,
            FaultKind.BLOCK_LOCK_FAIL: 0.2,
        },
        seed=3,
    )

    @pytest.fixture
    def config(self, small_geometry):
        return SSDConfig(
            n_channels=1, chips_per_channel=2, geometry=small_geometry,
            overprovision=0.2,
        )

    @staticmethod
    def _count(obj, name, counts, op):
        inner = getattr(obj, name)

        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            counts[op] += 1  # only commands that completed
            return out

        setattr(obj, name, counted)

    def accounting(self, config, variant=None, ftl_class=None):
        """(chip commands, timing charges, stats) per op kind after a
        faulted churn."""
        ssd = SSD(config, variant or "baseline", ftl_class=ftl_class,
                  faults=self.PLAN)
        commands = dict.fromkeys(ACCOUNTED_OPS, 0)
        charges = dict.fromkeys(ACCOUNTED_OPS, 0)
        for op, (command, charge, _) in ACCOUNTED_OPS.items():
            for chip in ssd.ftl.chips:
                if hasattr(chip, command):
                    self._count(chip, command, commands, op)
            self._count(ssd.ftl.timing, charge, charges, op)
        _churn(ssd)
        stats = ssd.ftl.stats
        counters = {
            op: getattr(stats, counter)
            for op, (_, _, counter) in ACCOUNTED_OPS.items()
        }
        return commands, charges, counters, stats

    def test_accounted_chip_op_clean(self, config):
        exercised = dict.fromkeys(ACCOUNTED_OPS, 0)
        erase_fails = program_fails = 0
        for variant in ALL_VARIANTS:
            commands, charges, counters, stats = self.accounting(
                config, variant
            )
            assert commands == charges == counters, variant
            for op, n in commands.items():
                exercised[op] += n
            erase_fails += stats.erase_fails
            program_fails += stats.program_fails
        # the faults fired and every op kind ran, so the oracle saw the
        # retry, fallback and grown-bad paths
        assert erase_fails > 0 and program_fails > 0
        assert all(exercised.values()), exercised

    def test_unaccounted_chip_op_flagged(self, config):
        # grown-bad retirement scrubs without charging the timing model
        commands, charges, counters, _ = self.accounting(
            config,
            ftl_class=forgetting(
                ScrubBasedFtl, "_retire_bad_block", "timing", "scrub"
            ),
        )
        assert commands["scrub"] == counters["scrub"] > charges["scrub"]

    def test_timing_only_still_flagged(self, config):
        # pLocks charged on the timing model but never counted
        commands, charges, counters, _ = self.accounting(
            config,
            ftl_class=forgetting(SecureFtl, "_plock_verified", "stats", "plocks"),
        )
        assert commands["plock"] == charges["plock"] > counters["plock"]


class TestSim05Observer:
    """A sanitizing chip command without ``on_sanitize``: the sanitizer
    still owes the stale copy at batch end and fails."""

    def test_silent_sanitize_flagged(self, single_chip_config):
        violation = _violation(
            single_chip_config,
            forgetting(SecureFtl, "_plock_verified", "observer", "on_sanitize"),
        )
        assert violation.invariant == "security"

    def test_scrub_wordline_covered(self, single_chip_config):
        violation = _violation(
            single_chip_config,
            forgetting(
                ScrubBasedFtl, "_scrub_wordline_inner", "observer",
                "on_sanitize",
            ),
        )
        assert violation.invariant == "security"

    def test_notifying_sanitize_clean(self, single_chip_config):
        for ftl_class in (SecureFtl, ScrubBasedFtl):
            ssd = SSD(single_chip_config, ftl_class=ftl_class, checked=True,
                      check_interval=1)
            _churn(ssd)
            assert ssd.ftl.checker.summary()["probes"] > 0
