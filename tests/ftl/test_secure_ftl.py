"""secSSD: the Evanesco-aware lock manager (Section 6)."""

import random

import pytest

from repro.ftl.mapping import UNMAPPED
from repro.ftl.page_status import PageStatus
from repro.ftl.request import trim, write
from repro.ftl.secure import SecureFtl, SecureFtlNoBlockLock


@pytest.fixture
def ftl(tiny_config):
    return SecureFtl(tiny_config)


class TestSecuredTracking:
    def test_secure_write_tracked_secured(self, ftl):
        ftl.submit(write(0, secure=True))
        assert ftl.status.get(ftl.mapped_gppa(0)) is PageStatus.SECURED

    def test_insec_write_tracked_valid(self, ftl):
        ftl.submit(write(0, secure=False))
        assert ftl.status.get(ftl.mapped_gppa(0)) is PageStatus.VALID


class TestLockOnInvalidate:
    def test_update_locks_old_copy(self, ftl):
        ftl.submit(write(0, secure=True))
        old = ftl.mapped_gppa(0)
        ftl.submit(write(0, secure=True))
        chip_id, ppn = ftl.split_gppa(old)
        assert ftl.chips[chip_id].page_locked(ppn)
        assert ftl.stats.plocks == 1

    def test_trim_locks_old_copy(self, ftl):
        ftl.submit(write(0, secure=True))
        old = ftl.mapped_gppa(0)
        ftl.submit(trim(0))
        chip_id, ppn = ftl.split_gppa(old)
        assert ftl.chips[chip_id].page_locked(ppn)

    def test_insecure_data_not_locked(self, ftl):
        ftl.submit(write(0, secure=False))
        old = ftl.mapped_gppa(0)
        ftl.submit(write(0, secure=False))
        chip_id, ppn = ftl.split_gppa(old)
        assert not ftl.chips[chip_id].page_locked(ppn)
        assert ftl.stats.plocks == 0

    def test_live_data_never_locked(self, ftl):
        for lpa in range(16):
            ftl.submit(write(lpa, secure=True))
        for lpa in range(16):
            gppa = ftl.mapped_gppa(lpa)
            chip_id, ppn = ftl.split_gppa(gppa)
            assert not ftl.chips[chip_id].page_locked(ppn)

    def test_gc_locks_moved_secured_copies(self, ftl, tiny_config):
        rng = random.Random(0)
        span = int(tiny_config.logical_pages * 0.9)
        for _ in range(tiny_config.physical_pages * 2):
            ftl.submit(write(rng.randrange(span), secure=True))
        assert ftl.stats.gc_copies > 0
        assert ftl.stats.plocks + ftl.stats.block_locks > 0


class TestBlockLockPolicy:
    def test_block_lock_for_large_dead_batch(self, ftl, tiny_config):
        """Trimming a whole dead block's worth of secured pages -> bLock."""
        ppb = tiny_config.geometry.pages_per_block
        n_chips = tiny_config.n_chips
        # fill several whole blocks on each chip with one file's pages
        total = ppb * n_chips
        for lpa in range(total):
            ftl.submit(write(lpa, secure=True))
        ftl.submit(trim(0, npages=total))
        assert ftl.stats.block_locks >= 1

    def test_no_block_lock_on_partially_live_block(self, ftl):
        """A block with remaining live pages must use pLock (Section 6)."""
        for lpa in range(8):
            ftl.submit(write(lpa, secure=True))
        ftl.submit(trim(0))  # one page only; its block still holds live data
        assert ftl.stats.block_locks == 0
        assert ftl.stats.plocks == 1

    def test_small_batches_use_plock(self, tiny_config):
        """Below the tbLock/tpLock break-even (3 pages), pLock wins."""
        ftl = SecureFtl(tiny_config)
        assert not ftl._should_block_lock(0, n_secured=3)

    def test_policy_respects_latency_breakeven(self, tiny_config):
        ftl = SecureFtl(tiny_config)
        ppb = tiny_config.geometry.pages_per_block
        # build one fully-dead block on chip 0 by hand
        chip = ftl.chips[0]
        for offset in range(ppb):
            gppa = ftl.make_gppa(0, offset)
            chip.program_page(offset, "x")
            ftl.status.set_written(gppa, True)
            ftl.status.set_invalid(gppa)
        assert ftl._should_block_lock(0, n_secured=4)
        assert not ftl._should_block_lock(0, n_secured=3)

    def test_redundant_block_lock_suppressed(self, ftl, tiny_config):
        """Invalidations into an already-bLocked block issue no new locks."""
        ppb = tiny_config.geometry.pages_per_block
        total = ppb * tiny_config.n_chips
        for lpa in range(total):
            ftl.submit(write(lpa, secure=True))
        ftl.submit(trim(0, npages=total))
        locks_after_first = ftl.stats.block_locks
        assert locks_after_first >= 1


class TestNoBlockLockVariant:
    def test_never_uses_block_lock(self, tiny_config):
        ftl = SecureFtlNoBlockLock(tiny_config)
        ppb = tiny_config.geometry.pages_per_block
        total = ppb * tiny_config.n_chips
        for lpa in range(total):
            ftl.submit(write(lpa, secure=True))
        ftl.submit(trim(0, npages=total))
        assert ftl.stats.block_locks == 0
        assert ftl.stats.plocks == total

    def test_block_lock_reduces_plocks(self, tiny_config):
        """The Fig. 14 ablation: bLock replaces trains of pLocks."""

        def run(cls):
            ftl = cls(tiny_config)
            rng = random.Random(0)
            span = int(tiny_config.logical_pages * 0.8)
            for _ in range(tiny_config.physical_pages * 2):
                ftl.submit(write(rng.randrange(span), secure=True))
            return ftl.stats

        with_b = run(SecureFtl)
        without = run(SecureFtlNoBlockLock)
        assert with_b.plocks < without.plocks
        assert with_b.block_locks > 0


class TestSanitizationGuarantee:
    def test_attacker_cannot_read_deleted_data(self, ftl):
        ftl.submit(write(0, secure=True))
        token = None
        gppa = ftl.mapped_gppa(0)
        chip_id, ppn = ftl.split_gppa(gppa)
        token = ftl.chips[chip_id].read_page(ppn).data
        ftl.submit(trim(0))
        assert token not in ftl.raw_device_dump().values()

    def test_attacker_cannot_read_stale_version(self, ftl):
        ftl.submit(write(5, secure=True))
        ftl.submit(write(5, secure=True))
        dump = ftl.raw_device_dump()
        versions = [v for v in dump.values() if isinstance(v, tuple) and v[0] == 5]
        assert len(versions) == 1  # only the live copy

    def test_c1_holds_under_churn(self, ftl, tiny_config):
        rng = random.Random(2)
        span = int(tiny_config.logical_pages * 0.8)
        for i in range(tiny_config.physical_pages * 2):
            lpa = rng.randrange(span)
            if rng.random() < 0.1 and ftl.mapped_gppa(lpa) != UNMAPPED:
                ftl.submit(trim(lpa))
            else:
                ftl.submit(write(lpa, secure=True))
        # C2: at most one readable version per LPA, and it is the live one
        dump = ftl.raw_device_dump()
        seen: dict[int, int] = {}
        for v in dump.values():
            if isinstance(v, tuple):
                seen[v[0]] = seen.get(v[0], 0) + 1
        for lpa, count in seen.items():
            assert count == 1
            assert ftl.mapped_gppa(lpa) != UNMAPPED
