"""SIM12 (retired): FTL status/L2P mutations must notify the observer.

The rule's static check is gone; the runtime sanitizer guards the
property.  It replays the observer stream into a shadow status table
and, at every full check, compares that shadow with the real table.
Each violation case seeds SIM12's defect into a live FTL and requires
the sanitizer to fail on it; each satisfied case requires it to stay
quiet however the event reaches the observer.
"""

from __future__ import annotations

import random

import pytest

from repro.checkers.sanitizer import InvariantViolation
from repro.faults import FaultKind, FaultPlan
from repro.ftl import FTL_VARIANTS
from repro.ftl.base import InvalidationEvent, PageMappedFtl
from repro.ftl.page_status import PageStatus
from repro.ftl.recovery import PowerLossRecovery
from repro.ftl.secure import SecureFtl
from repro.ssd.device import SSD
from repro.ssd.request import trim, write

SUBCLASS_VARIANTS = (
    "secSSD", "secSSD_nobLock", "erSSD", "scrSSD", "cryptSSD",
)


def _churn(ssd: SSD, rounds: int = 2, seed: int = 1) -> None:
    rng = random.Random(seed)
    logical = ssd.logical_pages
    for _ in range(rounds * logical):
        lpa = rng.randrange(logical)
        ssd.submit(trim(lpa) if rng.random() < 0.1 else write(lpa, secure=True))


def _checked(config, ftl_class, faults=None) -> SSD:
    return SSD(config, ftl_class=ftl_class, checked=True, check_interval=1,
               faults=faults)


class SilentInvalidateFtl(SecureFtl):
    """Host invalidation that never reaches the observer."""

    def _invalidate(self, gppa, lpa, reason):
        prev = self.status.set_invalid(gppa)
        return InvalidationEvent(gppa, lpa, prev is PageStatus.SECURED, reason)


class WrongEventFtl(SecureFtl):
    """Host invalidation reported as a sanitize instead."""

    def _invalidate(self, gppa, lpa, reason):
        prev = self.status.set_invalid(gppa)
        self.observer.on_sanitize(gppa, "plock")
        return InvalidationEvent(gppa, lpa, prev is PageStatus.SECURED, reason)


class SilentProgramFailFtl(PageMappedFtl):
    """The base class's program-fail path, minus its invalidate event."""

    def _note_program_failure(self, gb, gppa):
        observer = self.observer
        observer.on_invalidate = lambda *args: None
        try:
            super()._note_program_failure(gb, gppa)
        finally:
            del observer.on_invalidate


class HelperNotifyFtl(SecureFtl):
    """Invalidation whose event comes from a separate self-helper."""

    def _invalidate(self, gppa, lpa, reason):
        prev = self.status.set_invalid(gppa)
        self._note(gppa, lpa, reason)
        return InvalidationEvent(gppa, lpa, prev is PageStatus.SECURED, reason)

    def _note(self, gppa, lpa, reason):
        self.observer.on_invalidate(gppa, lpa, reason)


class TestViolations:
    def test_silent_status_mutation_flagged(self, single_chip_config):
        ssd = _checked(single_chip_config, SilentInvalidateFtl)
        with pytest.raises(InvariantViolation) as excinfo:
            _churn(ssd)
        assert excinfo.value.invariant == "status-divergence"

    def test_wrong_event_does_not_satisfy(self, single_chip_config):
        ssd = _checked(single_chip_config, WrongEventFtl)
        with pytest.raises(InvariantViolation) as excinfo:
            _churn(ssd)
        assert excinfo.value.invariant == "status-divergence"

    def test_silent_mutation_in_base_class_itself(self, single_chip_config):
        plan = FaultPlan.single(FaultKind.PROGRAM_FAIL, 0.05, seed=2)
        ssd = _checked(single_chip_config, SilentProgramFailFtl, faults=plan)
        with pytest.raises(InvariantViolation) as excinfo:
            _churn(ssd)
        assert excinfo.value.invariant == "status-divergence"


class TestSatisfied:
    def test_direct_notification_ok(self, single_chip_config):
        ssd = _checked(single_chip_config, PageMappedFtl)
        _churn(ssd)
        assert ssd.ftl.checker.full_checks == ssd.ftl.checker.batch

    def test_transitive_helper_notification_ok(self, single_chip_config):
        ssd = _checked(single_chip_config, HelperNotifyFtl)
        _churn(ssd)
        assert ssd.ftl.checker.full_checks == ssd.ftl.checker.batch

    def test_inherited_helper_notification_ok(self, single_chip_config):
        # every shipped variant inherits the base's notifying helpers
        for variant in SUBCLASS_VARIANTS:
            ssd = _checked(single_chip_config, FTL_VARIANTS[variant])
            _churn(ssd, rounds=1)

    def test_non_subclass_is_exempt(self, single_chip_config):
        # power-loss recovery rebuilds the tables outside the observer
        # stream and resyncs; the checked device keeps serving clean
        ssd = _checked(single_chip_config, SecureFtl)
        _churn(ssd, rounds=1)
        recovery = PowerLossRecovery(ssd.ftl)
        recovery.simulate_power_loss()
        recovery.recover()
        ssd.ftl.checker.full_check()
        _churn(ssd, rounds=1, seed=2)
