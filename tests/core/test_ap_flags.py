"""pAP flag arrays: k-redundancy, majority circuit, retention behaviour."""

import pytest

from repro.core.ap_flags import PageApArray, majority_disabled
from repro.core.flag_cells import FlagCellModel, PulseSettings
from repro.flash.errors import AddressError

#: a pulse strong enough that programming never misses (for determinism).
STRONG = PulseSettings(16.0, 200.0)

#: the paper-anchor weak pulse (47 % per-cell success).
WEAK = PulseSettings(14.0, 100.0)


@pytest.fixture
def array():
    return PageApArray(pages_per_block=12, pulse=STRONG, seed=1)


class TestLocking:
    def test_initially_enabled(self, array):
        for offset in range(12):
            assert not array.is_locked(offset)
            assert not array.is_disabled(offset)

    def test_lock_disables_page(self, array):
        array.lock(3)
        assert array.is_locked(3)
        assert array.is_disabled(3)

    def test_lock_leaves_others_enabled(self, array):
        array.lock(3)
        assert not array.is_disabled(2)
        assert not array.is_disabled(4)

    def test_locked_offsets_sorted(self, array):
        array.lock(5)
        array.lock(1)
        assert array.locked_offsets() == [1, 5]

    def test_out_of_range(self, array):
        with pytest.raises(AddressError):
            array.lock(12)
        with pytest.raises(AddressError):
            array.is_disabled(-1)

    def test_erase_reenables_everything(self, array):
        array.lock(0)
        array.lock(7)
        array.erase()
        assert array.locked_offsets() == []
        assert not array.is_disabled(0)

    def test_no_unlock_short_of_erase(self, array):
        """The API offers no per-page unlock -- only erase() clears flags."""
        assert not hasattr(array, "unlock")


class TestRedundancy:
    def test_k_must_be_odd(self):
        with pytest.raises(ValueError):
            PageApArray(pages_per_block=4, k=8)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            PageApArray(pages_per_block=4, k=-3)

    def test_weak_pulse_may_program_partially(self):
        array = PageApArray(pages_per_block=64, pulse=WEAK, seed=42)
        partial = 0
        for offset in range(64):
            array.lock(offset)
            if 0 < array.programmed_cells(offset) < array.k:
                partial += 1
        assert partial > 10  # 47 % per-cell success -> mostly partial flags

    def test_relock_monotonically_programs_more_cells(self):
        array = PageApArray(pages_per_block=4, pulse=WEAK, seed=3)
        array.lock(0)
        first = array.programmed_cells(0)
        for _ in range(20):
            array.lock(0)
        assert array.programmed_cells(0) >= first
        assert array.programmed_cells(0) <= array.k


class TestMajorityCircuit:
    def test_majority_threshold(self):
        model = FlagCellModel()
        q = model.retention_flip_prob(STRONG, 0.0)
        need = 9 // 2 + 1
        # thresholds of 1.0 never flip
        assert majority_disabled(5, [1.0] * 5, need, q)
        assert not majority_disabled(4, [1.0] * 4, need, q)

    def test_unlocked_flag_reads_enabled(self):
        array = PageApArray(pages_per_block=4, pulse=STRONG)
        assert not array.is_disabled(0)
        assert array.programmed_cells(0) == 0


class TestRetentionBehaviour:
    def test_strong_lock_survives_five_years(self):
        array = PageApArray(pages_per_block=8, pulse=STRONG, seed=2)
        array.lock(0, day=0.0)
        assert array.is_disabled(0, day=1825.0)

    def test_weak_lock_can_fail_open(self):
        """A Region-II pulse eventually loses the majority (Fig. 9d)."""
        array = PageApArray(pages_per_block=256, pulse=WEAK, seed=5)
        for offset in range(256):
            array.lock(offset, day=0.0)
        failed = sum(
            not array.is_disabled(offset, day=1825.0) for offset in range(256)
        )
        assert failed > 50

    def test_queries_are_deterministic(self):
        array = PageApArray(pages_per_block=4, pulse=WEAK, seed=9)
        array.lock(0, day=0.0)
        first = [array.is_disabled(0, day=d) for d in (0, 365, 1825)]
        second = [array.is_disabled(0, day=d) for d in (0, 365, 1825)]
        assert first == second

    def test_flips_monotone_in_time(self):
        """Once a cell flips it stays flipped: disability never recovers."""
        array = PageApArray(pages_per_block=16, pulse=WEAK, seed=11)
        for offset in range(16):
            array.lock(offset, day=0.0)
        for offset in range(16):
            states = [
                array.is_disabled(offset, day=d)
                for d in (0.0, 100.0, 365.0, 1825.0, 10000.0)
            ]
            # once False (failed open), never True again
            if False in states:
                first_false = states.index(False)
                assert all(not s for s in states[first_false:])

    def test_lock_day_offsets_retention(self):
        array = PageApArray(pages_per_block=4, pulse=STRONG, seed=1)
        array.lock(0, day=1000.0)
        # elapsed time is measured from the lock, not from zero
        assert array.is_disabled(0, day=1000.0)
        assert array.is_disabled(0, day=1001.0)
