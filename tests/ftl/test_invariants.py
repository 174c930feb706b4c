"""Property-based invariants across all FTL variants.

Hypothesis drives random host op sequences against every variant and
checks the structural invariants any correct FTL must keep:

* the forward and reverse maps agree;
* every mapped page is live in the status table (and vice versa);
* a read of a mapped LPA returns the newest payload written to it;
* the physical page population is conserved;
* on sanitizing variants, the attacker never sees more than the single
  live version of any LPA.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.geometry import CellType, Geometry
from repro.ftl import FTL_VARIANTS
from repro.ftl.mapping import UNMAPPED
from repro.ftl.page_status import PageStatus
from repro.ftl.request import trim, write
from repro.ssd.config import SSDConfig

SANITIZING = ("secSSD", "secSSD_nobLock", "erSSD", "scrSSD")


def make_config() -> SSDConfig:
    return SSDConfig(
        n_channels=1,
        chips_per_channel=2,
        geometry=Geometry(
            blocks_per_chip=10,
            wordlines_per_block=4,
            cell_type=CellType.TLC,
            page_size_bytes=16 * 1024,
            cells_per_wordline=64,
        ),
        overprovision=0.3,
    )


#: one op is (kind, lpa, secure) over a small hot LPA space.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "trim"]),
        st.integers(min_value=0, max_value=23),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


def replay(variant: str, ops) -> tuple:
    ftl = FTL_VARIANTS[variant](make_config())
    latest: dict[int, tuple] = {}
    for kind, lpa, secure in ops:
        if kind == "write":
            ftl.submit(write(lpa, secure=secure))
            gppa = ftl.mapped_gppa(lpa)
            chip_id, ppn = ftl.split_gppa(gppa)
            latest[lpa] = ftl.chips[chip_id].read_page(ppn).data
        else:
            ftl.submit(trim(lpa))
            latest.pop(lpa, None)
    return ftl, latest


def check_structural_invariants(ftl) -> None:
    live_pages = 0
    for lpa in range(ftl.config.logical_pages):
        gppa = ftl.mapped_gppa(lpa)
        if gppa == UNMAPPED:
            continue
        live_pages += 1
        assert ftl.l2p.reverse(gppa) == lpa
        assert ftl.status.get(gppa) in (PageStatus.VALID, PageStatus.SECURED)
    counts = ftl.status.counts()
    assert counts[PageStatus.VALID] + counts[PageStatus.SECURED] == live_pages
    assert sum(counts.values()) == ftl.config.physical_pages


@pytest.mark.parametrize("variant", sorted(FTL_VARIANTS))
@given(ops=ops_strategy)
@settings(max_examples=15, deadline=None)
def test_structural_invariants(variant, ops):
    ftl, _ = replay(variant, ops)
    check_structural_invariants(ftl)


@pytest.mark.parametrize("variant", sorted(FTL_VARIANTS))
@given(ops=ops_strategy)
@settings(max_examples=15, deadline=None)
def test_reads_return_latest_data(variant, ops):
    ftl, latest = replay(variant, ops)
    for lpa, payload in latest.items():
        gppa = ftl.mapped_gppa(lpa)
        assert gppa != UNMAPPED
        chip_id, ppn = ftl.split_gppa(gppa)
        assert ftl.chips[chip_id].read_page(ppn).data == payload


@pytest.mark.parametrize("variant", SANITIZING)
@given(ops=ops_strategy)
@settings(max_examples=15, deadline=None)
def test_sanitizers_expose_at_most_live_versions(variant, ops):
    """C1+C2 as a property: for secure traffic, the forensic dump never
    contains a version other than the live one."""
    secure_ops = [(kind, lpa, True) for kind, lpa, _ in ops]
    ftl, latest = replay(variant, secure_ops)
    dump = ftl.raw_device_dump()
    by_lpa: dict[int, list] = {}
    for payload in dump.values():
        if isinstance(payload, tuple) and len(payload) == 3:
            by_lpa.setdefault(payload[0], []).append(payload)
    for lpa, versions in by_lpa.items():
        assert len(versions) == 1, f"stale versions of lpa {lpa} recoverable"
        assert versions[0] == latest[lpa]


@given(ops=ops_strategy)
@settings(max_examples=10, deadline=None)
def test_baseline_variants_agree_on_logical_state(ops):
    """All variants expose identical host-visible state for the same ops."""
    reference, ref_latest = replay("baseline", ops)
    for variant in SANITIZING:
        ftl, latest = replay(variant, ops)
        assert latest == ref_latest
        for lpa in range(ftl.config.logical_pages):
            assert (ftl.mapped_gppa(lpa) == UNMAPPED) == (
                reference.mapped_gppa(lpa) == UNMAPPED
            )
