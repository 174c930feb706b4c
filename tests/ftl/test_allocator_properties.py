"""Property-based allocator and status-table state-machine tests."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ftl.allocator import BlockAllocator
from repro.ftl.page_status import PageStatus, StatusTable

N_CHIPS = 2
BLOCKS = 6
PPB = 4


@given(
    ops=st.lists(
        st.integers(min_value=0, max_value=N_CHIPS - 1), max_size=40
    )
)
@settings(max_examples=40, deadline=None)
def test_allocator_never_hands_out_a_page_twice(ops):
    alloc = BlockAllocator(N_CHIPS, BLOCKS, PPB)
    seen: set[tuple[int, int, int]] = set()
    for chip_id in ops:
        try:
            block, offset, _ = alloc.allocate_page(chip_id)
        except RuntimeError:
            continue  # chip exhausted: acceptable terminal state
        key = (chip_id, block, offset)
        assert key not in seen, "page handed out twice without erase"
        seen.add(key)


@given(
    ops=st.lists(
        st.integers(min_value=0, max_value=N_CHIPS - 1), max_size=60
    )
)
@settings(max_examples=40, deadline=None)
def test_allocator_offsets_sequential_within_block(ops):
    alloc = BlockAllocator(N_CHIPS, BLOCKS, PPB)
    last: dict[tuple[int, int], int] = {}
    for chip_id in ops:
        try:
            block, offset, _ = alloc.allocate_page(chip_id)
        except RuntimeError:
            continue
        key = (chip_id, block)
        expected = last.get(key, -1) + 1
        assert offset == expected
        last[key] = offset


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "invalidate", "erase"]),
            st.integers(min_value=0, max_value=BLOCKS * PPB - 1),
            st.booleans(),
        ),
        max_size=80,
    )
)
@settings(max_examples=40, deadline=None)
def test_status_table_counters_stay_consistent(ops):
    table = StatusTable(BLOCKS * PPB, PPB)
    for kind, gppa, secure in ops:
        if kind == "write" and table.get(gppa) is PageStatus.FREE:
            table.set_written(gppa, secure)
        elif kind == "invalidate" and table.get(gppa) in (
            PageStatus.VALID,
            PageStatus.SECURED,
        ):
            table.set_invalid(gppa)
        elif kind == "erase":
            table.set_erased_block(gppa // PPB)
        # counters must always equal a recount from scratch
        for blk in range(BLOCKS):
            base = blk * PPB
            statuses = [table.get(g) for g in range(base, base + PPB)]
            assert table.live_count(blk) == sum(
                s in (PageStatus.VALID, PageStatus.SECURED) for s in statuses
            )
            assert table.secured_count(blk) == sum(
                s is PageStatus.SECURED for s in statuses
            )
            assert table.invalid_count(blk) == sum(
                s is PageStatus.INVALID for s in statuses
            )
