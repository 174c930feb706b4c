"""FTL behaviour under injected faults: retry, remap, retire, fall back.

Each test schedules faults deterministically -- either through a
:class:`~repro.faults.FaultPlan` rate/schedule fixed at construction, or
by appending to the live injector's schedule at the *current* op index
(so the very next chip command of that kind fails).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.torture import torture_requests
from repro.checkers.residue import stale_secured_leaks as stale_secured_exposures
from repro.faults import FaultKind, FaultPlan
from repro.flash.block import BlockState
from repro.flash.errors import PowerLossInjected
from repro.ftl import FTL_VARIANTS
from repro.ftl.recovery import PowerLossRecovery
from repro.ftl.request import RequestOp, read, write
from repro.ssd.device import SSD


def fail_next(ftl, kind: FaultKind, count: int = 1, skip: int = 0) -> None:
    """Schedule ``count`` consecutive faults, ``skip`` ops from now."""
    injector = ftl.fault_injector
    for offset in range(count):
        injector._schedule[injector.op_index + skip + offset] = kind


@pytest.fixture
def ftl(tiny_config):
    return FTL_VARIANTS["baseline"](tiny_config, faults=FaultPlan(seed=5))


class TestReadRetry:
    def test_transient_failure_retried_to_success(self, ftl):
        ftl.submit(write(0))
        fail_next(ftl, FaultKind.READ_UNCORRECTABLE)
        ftl.submit(read(0))
        assert ftl.stats.read_retries == 1
        assert ftl.stats.read_failures == 0

    def test_exhausted_retries_surface_as_read_failure(self, ftl):
        ftl.submit(write(0))
        budget = ftl.config.read_retry_limit
        fail_next(ftl, FaultKind.READ_UNCORRECTABLE, count=budget)
        ftl.submit(read(0))  # must not raise to the host
        assert ftl.stats.read_failures == 1
        assert ftl.stats.read_retries == budget - 1

    def test_persistent_read_faults_never_raise_to_host(self, tiny_config):
        plan = FaultPlan.single(FaultKind.READ_UNCORRECTABLE, 1.0, seed=3)
        ftl = FTL_VARIANTS["baseline"](tiny_config, faults=plan)
        ftl.submit(write(7))
        for _ in range(5):
            ftl.submit(read(7))
        assert ftl.stats.read_failures == 5

    @pytest.mark.parametrize("budget", [1, 4])
    def test_gc_move_past_the_retry_budget_salvages(self, tiny_config, budget):
        config = dataclasses.replace(tiny_config, read_retry_limit=budget)
        plan = FaultPlan.single(FaultKind.READ_UNCORRECTABLE, 1.0, seed=3)
        ftl = FTL_VARIANTS["baseline"](config, faults=plan)
        span = int(config.logical_pages * 0.9)
        for request in torture_requests(config.physical_pages * 2, span, seed=2):
            if request.op is RequestOp.WRITE:
                ftl.submit(request)
        copies = ftl.stats.gc_copies
        assert copies > 0 and ftl.stats.host_reads == 0
        # every move read the page ``budget`` times, then salvaged it
        assert ftl.stats.salvage_reads == copies
        assert ftl.stats.read_failures == copies
        assert ftl.stats.read_retries == copies * (budget - 1)
        assert ftl.stats.flash_reads == copies * (budget + 1)
        for lpa in range(span):
            gppa = ftl.mapped_gppa(lpa)
            if gppa >= 0:
                chip_id, ppn = ftl.split_gppa(gppa)
                block, offset = ftl.geometry.split_ppn(ppn)
                assert ftl.chips[chip_id].blocks[block].data[offset][0] == lpa


class TestProgramFailRemap:
    def test_write_completes_past_a_program_fail(self, ftl):
        fail_next(ftl, FaultKind.PROGRAM_FAIL)
        ftl.submit(write(0))
        assert ftl.stats.program_fails == 1
        ftl.submit(read(0))
        assert ftl.stats.read_failures == 0  # remapped copy is readable

    def test_torn_page_is_dead_and_condemns_at_threshold(self, ftl):
        threshold = ftl.config.program_fail_retire_threshold
        fail_next(ftl, FaultKind.PROGRAM_FAIL, count=threshold)
        ftl.submit(write(0))
        assert ftl.stats.program_fails == threshold
        assert len(ftl._condemned) == 1

    def test_condemned_block_is_retired_by_gc(self, ftl, tiny_config):
        threshold = ftl.config.program_fail_retire_threshold
        fail_next(ftl, FaultKind.PROGRAM_FAIL, count=threshold)
        ftl.submit(write(0))
        (gb,) = ftl._condemned
        # churn until GC drains the condemned block (it is the priority
        # victim, so the first collection on its chip retires it)
        logical = tiny_config.logical_pages
        for i in range(logical * 3):
            ftl.submit(write(i % logical))
            if gb in ftl._bad_blocks:
                break
        assert gb in ftl._bad_blocks
        chip_id, local_block = divmod(
            gb, tiny_config.geometry.blocks_per_chip
        )
        block = ftl.chips[chip_id].blocks[local_block]
        assert block.state is BlockState.RETIRED
        assert local_block in ftl.alloc.retired_blocks(chip_id)
        assert ftl.stats.grown_bad_blocks == 1


class TestEraseFailRetirement:
    def test_erase_fail_scrubs_and_retires(self, ftl, tiny_config):
        # make block 0 of chip 0 fully invalid, then fail its erase
        pages = tiny_config.geometry.pages_per_block
        n_chips = len(ftl.chips)
        for _ in range(2):  # write then overwrite the same stripe
            for i in range(pages * n_chips):
                ftl.submit(write(i))
        fail_next(ftl, FaultKind.ERASE_FAIL)
        chip_id, local_block = ftl.split_gppa(0)
        local_block = 0
        assert not ftl._erase_block_now(0, local_block)
        assert ftl.stats.erase_fails == 1
        assert ftl.stats.grown_bad_blocks == 1
        assert ftl.stats.scrubs > 0  # data destroyed despite the failed erase
        assert ftl.chips[0].blocks[local_block].state is BlockState.RETIRED
        assert ftl.global_block(0, local_block) in ftl._bad_blocks

    def test_gc_skips_grown_bad_blocks(self, ftl, tiny_config):
        pages = tiny_config.geometry.pages_per_block
        n_chips = len(ftl.chips)
        for _ in range(2):
            for i in range(pages * n_chips):
                ftl.submit(write(i))
        fail_next(ftl, FaultKind.ERASE_FAIL)
        ftl._erase_block_now(0, 0)
        assert ftl._select_victim(0) != ftl.global_block(0, 0)


class TestLockFallbackChain:
    @pytest.mark.parametrize("variant", ["secSSD", "secSSD_nobLock"])
    def test_forced_plock_failure_falls_back_to_block_lock(
        self, tiny_config, variant
    ):
        plan = FaultPlan.single(FaultKind.PLOCK_FAIL, 1.0, seed=2)
        ssd = SSD(tiny_config, variant, checked=True, faults=plan)
        for request in torture_requests(160, ssd.logical_pages, seed=2):
            ssd.submit(request)
        assert ssd.stats.lock_failures > 0
        assert ssd.stats.fallback_block_locks > 0
        ssd.ftl._sanitizer.full_check()
        assert stale_secured_exposures(ssd.ftl) == []

    def test_forced_plock_and_block_lock_fall_back_to_erase(self, tiny_config):
        plan = FaultPlan.from_rates(
            {FaultKind.PLOCK_FAIL: 1.0, FaultKind.BLOCK_LOCK_FAIL: 1.0},
            seed=2,
        )
        ssd = SSD(tiny_config, "secSSD", checked=True, faults=plan)
        for request in torture_requests(160, ssd.logical_pages, seed=2):
            ssd.submit(request)
        assert ssd.stats.fallback_erases > 0
        ssd.ftl._sanitizer.full_check()
        assert stale_secured_exposures(ssd.ftl) == []

    def test_lock_retry_recovers_single_glitch(self, tiny_config):
        ftl = FTL_VARIANTS["secSSD"](tiny_config, faults=FaultPlan(seed=4))
        ftl.submit(write(0, secure=True))
        old = ftl.mapped_gppa(0)
        # op 0 of the next submit is the new copy's program; op 1 the pLock
        fail_next(ftl, FaultKind.PLOCK_FAIL, skip=1)
        ftl.submit(write(0, secure=True))  # invalidation pLocks the old copy
        chip_id, ppn = ftl.split_gppa(old)
        assert ftl.chips[chip_id].page_locked(ppn)
        assert ftl.stats.lock_retries == 1
        assert ftl.stats.lock_failures == 0
        assert ftl.stats.fallback_block_locks == 0


class TestPowerLossMidRun:
    def test_recovered_device_keeps_serving(self, tiny_config):
        plan = FaultPlan.power_loss_at(300, seed=6)
        ssd = SSD(tiny_config, "secSSD", checked=True, faults=plan)
        with pytest.raises(PowerLossInjected):
            for request in torture_requests(400, ssd.logical_pages, seed=6):
                ssd.submit(request)
        recovery = PowerLossRecovery(ssd.ftl)
        recovery.simulate_power_loss()
        recovery.recover()
        ssd.ftl._sanitizer.full_check()
        for request in torture_requests(40, ssd.logical_pages, seed=7):
            ssd.submit(request)
        ssd.ftl._sanitizer.full_check()
