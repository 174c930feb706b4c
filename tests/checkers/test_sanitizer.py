"""Runtime invariant sanitizer: clean variants pass, broken FTLs fail."""

from __future__ import annotations

import pytest

from repro.checkers.sanitizer import (
    FtlSanitizer,
    InvariantViolation,
    default_checked,
    default_interval,
    set_default_checked,
)
from repro.ftl.recovery import PowerLossRecovery
from repro.ftl.secure import SecureFtl
from repro.ssd.device import SSD
from repro.ssd.request import read, trim, write

ALL_VARIANTS = (
    "baseline",
    "secSSD",
    "secSSD_nobLock",
    "erSSD",
    "scrSSD",
    "cryptSSD",
)


def _churn(ssd: SSD, overwrites: int = 3) -> None:
    """Fill the device, then overwrite/trim/read enough to force GC."""
    logical = ssd.logical_pages
    for lpa in range(logical):
        ssd.submit(write(lpa, secure=True))
    for round_ in range(overwrites):
        for lpa in range(0, logical, 2):
            ssd.submit(write(lpa, secure=True))
        for lpa in range(1, logical, 8):
            ssd.submit(trim(lpa))
        for lpa in range(1, logical, 8):
            ssd.submit(write(lpa, secure=(round_ % 2 == 0)))
        for lpa in range(0, logical, 5):
            ssd.submit(read(lpa))


class TestCleanVariants:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_variant_survives_churn_checked(self, single_chip_config, variant):
        ssd = SSD(single_chip_config, variant, checked=True, check_interval=1)
        _churn(ssd)
        sanitizer = ssd.ftl._sanitizer
        assert sanitizer is not None
        summary = sanitizer.summary()
        assert summary["batches"] > 0
        assert summary["full_checks"] == summary["batches"]
        # erSSD sanitizes by erasing: the erase immediately frees the
        # pages, so nothing lingers in the probe set.  Every lock/scrub/
        # key-delete variant must have been probed.
        if variant not in ("baseline", "erSSD"):
            assert summary["probes"] > 0
        if variant == "erSSD":
            assert ssd.ftl.stats.sanitize_erases > 0

    def test_checked_run_reports_identical_stats(self, single_chip_config):
        checked = SSD(single_chip_config, "secSSD", checked=True, check_interval=1)
        plain = SSD(single_chip_config, "secSSD", checked=False)
        _churn(checked, overwrites=1)
        _churn(plain, overwrites=1)
        assert checked.ftl.stats == plain.ftl.stats
        assert checked.elapsed_us == plain.elapsed_us


class TestDefaults:
    def test_conftest_enables_checking_by_default(self, single_chip_config):
        assert default_checked()
        ssd = SSD(single_chip_config, "baseline")
        assert ssd.ftl._sanitizer is not None
        assert ssd.ftl._sanitizer.interval == default_interval()

    def test_explicit_opt_out_wins(self, single_chip_config):
        ssd = SSD(single_chip_config, "baseline", checked=False)
        assert ssd.ftl._sanitizer is None

    def test_set_default_checked_round_trip(self):
        saved_enabled, saved_interval = default_checked(), default_interval()
        try:
            set_default_checked(False)
            assert not default_checked()
            set_default_checked(True, interval=5)
            assert default_checked() and default_interval() == 5
            with pytest.raises(ValueError):
                set_default_checked(True, interval=0)
        finally:
            set_default_checked(saved_enabled, interval=saved_interval)

    def test_bogus_sanitize_scope_rejected(self, single_chip_config):
        class WeirdFtl(SecureFtl):
            name = "weird"
            sanitize_scope = "sometimes"

        with pytest.raises(ValueError, match="sanitize_scope"):
            SSD(single_chip_config, ftl_class=WeirdFtl, checked=True)


class LeakyGcFtl(SecureFtl):
    """Broken on purpose: GC stale copies are never locked."""

    name = "secSSD_leakygc"

    def _finish_victim(self, chip_id, local_block, events):
        self._retire_victim(chip_id, local_block)


class LyingFtl(SecureFtl):
    """Broken on purpose: reports sanitization without issuing pLocks."""

    name = "secSSD_lying"

    def _lock_invalidated(self, events):
        for event in events:
            if event.was_secured:
                self.observer.on_sanitize(event.gppa, "plock")


class SilentLockFtl(SecureFtl):
    """Broken on purpose: locks pages but hides it from the observer."""

    name = "secSSD_silent"

    def _lock_invalidated(self, events):
        for event in events:
            if event.was_secured:
                chip_id, ppn = self.split_gppa(event.gppa)
                self.chips[chip_id].plock(ppn)
                self.timing.plock(chip_id)
                self.stats.plocks += 1


class TestBrokenFtlsRejected:
    def test_gc_that_skips_locking_is_caught(self, single_chip_config):
        ssd = SSD(
            single_chip_config,
            ftl_class=LeakyGcFtl,
            checked=True,
            check_interval=1,
        )
        with pytest.raises(InvariantViolation) as excinfo:
            _churn(ssd)
        assert excinfo.value.invariant == "security"
        assert "unsanitized" in excinfo.value.detail
        assert excinfo.value.trail  # the event trail is attached

    def test_claimed_but_not_performed_lock_is_caught(self, single_chip_config):
        ssd = SSD(
            single_chip_config,
            ftl_class=LyingFtl,
            checked=True,
            check_interval=1,
        )
        with pytest.raises(InvariantViolation) as excinfo:
            _churn(ssd)
        assert excinfo.value.invariant == "unreadable-probe"
        assert "plock" in excinfo.value.detail

    def test_lock_hidden_from_observer_is_caught(self, single_chip_config):
        ssd = SSD(
            single_chip_config,
            ftl_class=SilentLockFtl,
            checked=True,
            check_interval=1,
        )
        with pytest.raises(InvariantViolation) as excinfo:
            _churn(ssd)
        assert excinfo.value.invariant == "security"

    def test_status_mutation_bypassing_observer_is_caught(
        self, single_chip_config
    ):
        ssd = SSD(single_chip_config, "baseline", checked=True, check_interval=1)
        ssd.submit(write(0, secure=False))
        gppa = ssd.ftl.mapped_gppa(0)
        # rot the table behind the observer's back (what the retired SIM01 banned
        # statically; the runtime checker catches it dynamically)
        ssd.ftl.status.set_invalid(gppa)
        with pytest.raises(InvariantViolation) as excinfo:
            ssd.submit(read(0))
        assert excinfo.value.invariant == "status-divergence"


class TestRecoveryResync:
    def test_checked_ftl_survives_power_loss_recovery(self, single_chip_config):
        ssd = SSD(single_chip_config, "secSSD", checked=True, check_interval=1)
        logical = ssd.logical_pages
        for lpa in range(logical):
            ssd.submit(write(lpa, secure=True))
        for lpa in range(0, logical, 3):
            ssd.submit(write(lpa, secure=True))
        recovery = PowerLossRecovery(ssd.ftl)
        recovery.simulate_power_loss()
        report = recovery.recover()
        assert report.live_pages_recovered > 0
        # post-recovery traffic runs under the re-synced shadow state
        for lpa in range(0, logical, 2):
            ssd.submit(write(lpa, secure=True))

    def test_resync_without_sanitizer_is_noop(self, single_chip_config):
        ssd = SSD(single_chip_config, "baseline", checked=False)
        ssd.ftl.resync_checker()  # must not raise


class TestViolationRendering:
    def test_message_carries_invariant_batch_and_trail(self):
        exc = InvariantViolation(
            "security",
            "gppa 7 left unsanitized",
            trail=["#1 program gppa=7", "#2 invalidate gppa=7"],
            batch=2,
        )
        text = str(exc)
        assert "[security]" in text
        assert "batch 2" in text
        assert "#1 program gppa=7" in text
        assert exc.trail == ["#1 program gppa=7", "#2 invalidate gppa=7"]

    def test_direct_attach_exposes_counters(self, single_chip_config):
        ssd = SSD(single_chip_config, "secSSD", checked=False)
        sanitizer = FtlSanitizer(ssd.ftl, interval=2)
        ssd.submit(write(0, secure=True))
        ssd.submit(write(0, secure=True))
        assert sanitizer.batch == 0  # unchecked FTL never calls check_batch
        sanitizer.check_batch()
        sanitizer.check_batch()
        assert sanitizer.full_checks == 1  # interval=2: every other batch
