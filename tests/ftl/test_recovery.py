"""Power-loss recovery: L2P rebuild from spare-area annotations.

Includes the Evanesco-specific property: lock flags live in flash cells,
so sanitized data *stays* sanitized across power cycles -- the recovery
scan cannot even read it.
"""

import random

import pytest

from repro.analysis.torture import run_power_loss_case
from repro.checkers.residue import stale_secured_leaks
from repro.checkers.sanitizer import InvariantViolation
from repro.faults import FaultKind, FaultPlan
from repro.flash.block import BlockState
from repro.flash.errors import PowerLossInjected
from repro.ftl import FTL_VARIANTS
from repro.ftl.mapping import UNMAPPED
from repro.ftl.page_status import PageStatus
from repro.ftl.recovery import PowerLossRecovery
from repro.ssd.config import scaled_config
from repro.ssd.device import SSD
from repro.ssd.request import trim, write


def churn(ftl, writes, seed=0, span=None, trims=False):
    rng = random.Random(seed)
    span = span or int(ftl.config.logical_pages * 0.8)
    for _ in range(writes):
        lpa = rng.randrange(span)
        if trims and rng.random() < 0.1:
            ftl.submit(trim(lpa))
        else:
            ftl.submit(write(lpa, secure=True))
    return ftl


def logical_snapshot(ftl):
    """Host-visible state: lpa -> payload of the live copy."""
    out = {}
    for lpa in range(ftl.config.logical_pages):
        gppa = ftl.mapped_gppa(lpa)
        if gppa == UNMAPPED:
            continue
        chip_id, ppn = ftl.split_gppa(gppa)
        out[lpa] = ftl.chips[chip_id].read_page(ppn).data
    return out


def crash_and_recover(ftl):
    recovery = PowerLossRecovery(ftl)
    recovery.simulate_power_loss()
    return recovery.recover()


class TestBasicRecovery:
    def test_live_data_recovered(self, tiny_config):
        ftl = churn(FTL_VARIANTS["baseline"](tiny_config), 200)
        before = logical_snapshot(ftl)
        report = crash_and_recover(ftl)
        after = logical_snapshot(ftl)
        assert after == before
        assert report.live_pages_recovered == len(before)

    def test_structural_invariants_hold_after_recovery(self, tiny_config):
        ftl = churn(FTL_VARIANTS["baseline"](tiny_config), 400, seed=2)
        crash_and_recover(ftl)
        live = 0
        for lpa in range(ftl.config.logical_pages):
            gppa = ftl.mapped_gppa(lpa)
            if gppa == UNMAPPED:
                continue
            live += 1
            assert ftl.l2p.reverse(gppa) == lpa
        counts = ftl.status.counts()
        assert counts[PageStatus.VALID] + counts[PageStatus.SECURED] == live
        assert sum(counts.values()) == ftl.config.physical_pages

    def test_device_still_writable_after_recovery(self, tiny_config):
        ftl = churn(FTL_VARIANTS["baseline"](tiny_config), 300, seed=3)
        crash_and_recover(ftl)
        churn(ftl, tiny_config.physical_pages, seed=4)  # includes GC cycles
        assert ftl.stats.gc_invocations > 0

    def test_newest_version_wins(self, tiny_config):
        ftl = FTL_VARIANTS["baseline"](tiny_config)
        for _ in range(5):
            ftl.submit(write(7, secure=False))
        crash_and_recover(ftl)
        gppa = ftl.mapped_gppa(7)
        chip_id, ppn = ftl.split_gppa(gppa)
        data = ftl.chips[chip_id].read_page(ppn).data
        assert data[2] == 4  # the fifth write's sequence number

    def test_open_blocks_are_padded(self, tiny_config):
        ftl = FTL_VARIANTS["baseline"](tiny_config)
        ftl.submit(write(0))  # leaves a half-open block on one chip
        report = crash_and_recover(ftl)
        assert report.blocks_padded >= 1
        assert report.pad_programs >= 1

    def test_secure_bit_restored(self, tiny_config):
        ftl = FTL_VARIANTS["secSSD"](tiny_config)
        ftl.submit(write(3, secure=True))
        ftl.submit(write(4, secure=False))
        crash_and_recover(ftl)
        assert ftl.status.get(ftl.mapped_gppa(3)) is PageStatus.SECURED
        assert ftl.status.get(ftl.mapped_gppa(4)) is PageStatus.VALID

    def test_write_seq_continues(self, tiny_config):
        ftl = FTL_VARIANTS["baseline"](tiny_config)
        for lpa in range(5):
            ftl.submit(write(lpa))
        crash_and_recover(ftl)
        ftl.submit(write(9))
        gppa = ftl.mapped_gppa(9)
        chip_id, ppn = ftl.split_gppa(gppa)
        assert ftl.chips[chip_id].read_page(ppn).data[2] >= 5


class TestCrashConsistencyOfSanitization:
    def test_baseline_resurrects_trimmed_data(self, tiny_config):
        """The insecurity, crash-flavoured: on a plain SSD a trimmed
        page's data comes back after power loss -- the FTL cannot tell a
        stale copy from a live one without its lost RAM state."""
        ftl = FTL_VARIANTS["baseline"](tiny_config)
        ftl.submit(write(5, secure=True))
        ftl.submit(trim(5))
        assert ftl.mapped_gppa(5) == UNMAPPED
        crash_and_recover(ftl)
        assert ftl.mapped_gppa(5) != UNMAPPED  # ghost returned

    def test_secssd_locks_survive_power_loss(self, tiny_config):
        """Evanesco's flags are flash cells: sanitized data stays dead."""
        ftl = FTL_VARIANTS["secSSD"](tiny_config)
        ftl.submit(write(5, secure=True))
        ftl.submit(trim(5))
        report = crash_and_recover(ftl)
        assert ftl.mapped_gppa(5) == UNMAPPED  # no resurrection
        assert report.locked_pages_skipped >= 1

    def test_secssd_stale_versions_stay_dead(self, tiny_config):
        ftl = FTL_VARIANTS["secSSD"](tiny_config)
        for _ in range(4):
            ftl.submit(write(2, secure=True))
        crash_and_recover(ftl)
        dump = ftl.raw_device_dump()
        versions = [
            v for v in dump.values() if isinstance(v, tuple) and v[0] == 2
        ]
        assert len(versions) == 1

    @pytest.mark.parametrize("variant", sorted(FTL_VARIANTS))
    def test_all_variants_recover_cleanly(self, tiny_config, variant):
        ftl = churn(FTL_VARIANTS[variant](tiny_config), 150, seed=6, trims=True)
        before = logical_snapshot(ftl)
        crash_and_recover(ftl)
        after = logical_snapshot(ftl)
        # every pre-crash live page is back with identical content;
        # (baseline may additionally resurrect trimmed ghosts)
        for lpa, payload in before.items():
            assert after.get(lpa) == payload


class TestRecoveryFaultEdges:
    """Recovery under injected damage: torn pages, bLocked and bad blocks."""

    def test_torn_page_skipped_not_fatal(self, tiny_config):
        ftl = FTL_VARIANTS["baseline"](tiny_config, faults=FaultPlan(seed=1))
        churn(ftl, 60, seed=3)
        injector = ftl.fault_injector
        # cut power at the very next chip command: the in-flight write's
        # program is interrupted mid-pulse, leaving a torn (ECC-dead) page
        injector._schedule[injector.op_index] = FaultKind.POWER_LOSS
        with pytest.raises(PowerLossInjected):
            churn(ftl, 20, seed=4)
        report = crash_and_recover(ftl)
        assert report.unreadable_pages_skipped == 1
        ftl.submit(write(0))  # the device still serves
        assert ftl.mapped_gppa(0) != UNMAPPED

    def test_fully_blocked_block_recovery(self, tiny_config):
        ftl = FTL_VARIANTS["secSSD"](tiny_config)
        pages = tiny_config.geometry.pages_per_block
        stripe = pages * len(ftl.chips)
        for lpa in range(stripe):
            ftl.submit(write(lpa, secure=True))
        ftl.submit(trim(0, stripe))  # whole blocks die in one batch
        locked = [
            (chip_id, block.index)
            for chip_id, chip in enumerate(ftl.chips)
            for block in chip.blocks
            if chip.block_locked(block.index)
        ]
        assert locked  # batching chose bLock for the fully-dead blocks
        report = crash_and_recover(ftl)
        assert report.locked_pages_skipped >= pages
        for chip_id, block_index in locked:
            for offset in range(pages):
                ppn = block_index * pages + offset
                gppa = ftl.make_gppa(chip_id, ppn)
                assert ftl.status.get(gppa) is PageStatus.INVALID
                assert ftl.l2p.reverse(gppa) == UNMAPPED

    def test_double_recovery_after_padding(self, tiny_config):
        ftl = churn(FTL_VARIANTS["secSSD"](tiny_config), 90, seed=5)
        first = crash_and_recover(ftl)
        assert first.blocks_padded > 0  # half-open blocks were closed
        churn(ftl, 90, seed=6)
        before = logical_snapshot(ftl)
        second = crash_and_recover(ftl)
        assert logical_snapshot(ftl) == before
        assert second.live_pages_recovered == len(before)

    def test_grown_bad_table_relearned(self, tiny_config):
        ftl = FTL_VARIANTS["baseline"](tiny_config, faults=FaultPlan(seed=9))
        stripe = tiny_config.geometry.pages_per_block * len(ftl.chips)
        for _ in range(2):  # fill then overwrite: block 0 fully invalid
            for lpa in range(stripe):
                ftl.submit(write(lpa))
        injector = ftl.fault_injector
        injector._schedule[injector.op_index] = FaultKind.ERASE_FAIL
        assert not ftl._erase_block_now(0, 0)  # scrubbed + retired
        gb = ftl.global_block(0, 0)
        assert gb in ftl._bad_blocks
        crash_and_recover(ftl)
        # the grown-bad table is RAM state: recovery must re-learn it
        # from the persistent RETIRED block marks
        assert gb in ftl._bad_blocks
        assert 0 in ftl.alloc.retired_blocks(0)
        assert ftl.chips[0].blocks[0].state is BlockState.RETIRED
        churn(ftl, 60, seed=7)  # and never allocate from it again
        assert ftl.chips[0].blocks[0].state is BlockState.RETIRED


class TestSecuredLosers:
    """A cut between a page copy and the sanitize of its source leaves
    two readable copies; recovery keeps one and still owes the other
    its sanitization."""

    @staticmethod
    def cut_gc_copy(ssd, lpa):
        """Copy lpa's live page the way a GC move does, then lose power
        before the source is invalidated: both copies carry one seq."""
        ftl = ssd.ftl
        chip_id, ppn = ftl.split_gppa(ftl.mapped_gppa(lpa))
        result = ftl.chips[chip_id].read_page(ppn)
        copy = ftl._program_new_page(chip_id, result.data, dict(result.spare))
        crash_and_recover(ftl)
        return copy

    @pytest.mark.parametrize(
        "variant", ["secSSD", "secSSD_nobLock", "erSSD", "scrSSD", "cryptSSD"]
    )
    def test_cut_gc_copy_leaves_no_readable_secured_version(
        self, tiny_config, variant
    ):
        ssd = SSD(tiny_config, variant, checked=True, check_interval=1)
        for lpa in range(40):
            ssd.submit(write(lpa, secure=True))
        before = logical_snapshot(ssd.ftl)
        self.cut_gc_copy(ssd, 7)
        ssd.ftl.checker.full_check()
        # the surviving copy still serves the host (cryptSSD's key is
        # shared by both copies of one version and must survive)
        assert logical_snapshot(ssd.ftl) == before
        ssd.submit(write(7, secure=True))
        assert stale_secured_leaks(ssd.ftl) == []

    @staticmethod
    def cut_host_update(ssd, lpa):
        """Program lpa's next version the way a host write does, then
        lose power before the L2P update and the old copy's sanitize:
        the old copy is a secured loser that recovery owes a sanitize."""
        ftl = ssd.ftl
        chip_id, ppn = ftl.split_gppa(ftl.mapped_gppa(lpa))
        spare = dict(ftl.chips[chip_id].read_page(ppn).spare)
        seq = spare["seq"] = ftl._write_seq
        ftl._write_seq += 1
        ftl._program_new_page(chip_id, (lpa, spare["tag"], seq), spare)
        crash_and_recover(ftl)

    @pytest.mark.parametrize("variant", ["secSSD", "erSSD", "scrSSD"])
    @pytest.mark.parametrize("mutant", [False, True])
    def test_sanitizer_sees_a_recovery_sanitize_skipped(
        self, tiny_config, variant, mutant
    ):
        # the mutant's _sanitize_host_batch skips one recovery loser; the
        # torture leak scan sees the leak, and so must the sanitizer --
        # inside recovery, before any GC could erase the leaked page
        ssd = SSD(tiny_config, variant, checked=True, check_interval=1000)
        for lpa in range(40):
            ssd.submit(write(lpa, secure=True))
        ftl = ssd.ftl
        if not mutant:
            self.cut_host_update(ssd, 7)
            assert stale_secured_leaks(ftl) == []
            ftl.checker.full_check()
            ssd.submit(write(7, secure=True))
            return
        real = ftl._sanitize_host_batch
        ftl._sanitize_host_batch = lambda events: real(events[1:])
        with pytest.raises(InvariantViolation) as exc:
            self.cut_host_update(ssd, 7)
        del ftl._sanitize_host_batch
        assert exc.value.invariant == "security"
        assert "after a state rebuild" in exc.value.detail
        assert stale_secured_leaks(ftl) != []

    def test_cut_relocation_regression(self):
        # seed 11 cuts power at op 56 inside an erSSD relocation storm:
        # the loser copy of lpa 181 used to be demoted to non-secured
        # and stayed readable once its live copy was overwritten
        case = run_power_loss_case(
            scaled_config(blocks_per_chip=12, wordlines_per_block=4),
            "erSSD", 56, 300, 11,
        )
        assert case.outcome == "PASS"
