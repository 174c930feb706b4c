"""Property-based crash-consistency tests.

Hypothesis drives random op sequences, crashes the device at an
arbitrary point, recovers, and checks that recovery is safe (every
pre-crash live page is intact) and that on sanitizing variants no
sanitized data is resurrected.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.geometry import CellType, Geometry
from repro.ftl import FTL_VARIANTS
from repro.ftl.mapping import UNMAPPED
from repro.ftl.page_status import PageStatus
from repro.ftl.recovery import PowerLossRecovery
from repro.ftl.request import trim, write
from repro.ssd.config import SSDConfig


def make_config() -> SSDConfig:
    return SSDConfig(
        n_channels=1,
        chips_per_channel=2,
        geometry=Geometry(
            blocks_per_chip=10,
            wordlines_per_block=4,
            cell_type=CellType.TLC,
            cells_per_wordline=64,
        ),
        overprovision=0.3,
    )


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "trim"]),
        st.integers(min_value=0, max_value=23),
    ),
    min_size=1,
    max_size=80,
)


def run_and_crash(variant: str, ops, crash_at: int):
    ftl = FTL_VARIANTS[variant](make_config())
    live: dict[int, tuple] = {}
    for i, (kind, lpa) in enumerate(ops):
        if i == crash_at:
            break
        if kind == "write":
            ftl.submit(write(lpa, secure=True))
            gppa = ftl.mapped_gppa(lpa)
            chip_id, ppn = ftl.split_gppa(gppa)
            live[lpa] = ftl.chips[chip_id].read_page(ppn).data
        else:
            ftl.submit(trim(lpa))
            live.pop(lpa, None)
    recovery = PowerLossRecovery(ftl)
    recovery.simulate_power_loss()
    recovery.recover()
    return ftl, live


@pytest.mark.parametrize("variant", ("baseline", "secSSD", "erSSD", "scrSSD"))
@given(ops=ops_strategy, crash_frac=st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=10, deadline=None)
def test_recovery_preserves_live_data(variant, ops, crash_frac):
    crash_at = max(1, int(len(ops) * crash_frac))
    ftl, live = run_and_crash(variant, ops, crash_at)
    for lpa, payload in live.items():
        gppa = ftl.mapped_gppa(lpa)
        assert gppa != UNMAPPED, f"live lpa {lpa} lost in recovery"
        chip_id, ppn = ftl.split_gppa(gppa)
        assert ftl.chips[chip_id].read_page(ppn).data == payload


@given(ops=ops_strategy, crash_frac=st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=10, deadline=None)
def test_secssd_never_resurrects_sanitized_data(ops, crash_frac):
    crash_at = max(1, int(len(ops) * crash_frac))
    ftl, live = run_and_crash("secSSD", ops, crash_at)
    # after recovery, the attacker view contains exactly the live set
    dump = ftl.raw_device_dump()
    by_lpa: dict[int, list] = {}
    for payload in dump.values():
        if isinstance(payload, tuple) and len(payload) == 3:
            by_lpa.setdefault(payload[0], []).append(payload)
    assert set(by_lpa) == set(live)
    for lpa, versions in by_lpa.items():
        assert versions == [live[lpa]]


@given(ops=ops_strategy)
@settings(max_examples=10, deadline=None)
def test_recovery_restores_structural_invariants(ops):
    ftl, _ = run_and_crash("secSSD", ops, len(ops))
    mapped = 0
    for lpa in range(ftl.config.logical_pages):
        gppa = ftl.mapped_gppa(lpa)
        if gppa == UNMAPPED:
            continue
        mapped += 1
        assert ftl.l2p.reverse(gppa) == lpa
    counts = ftl.status.counts()
    assert counts[PageStatus.VALID] + counts[PageStatus.SECURED] == mapped
    assert sum(counts.values()) == ftl.config.physical_pages
