"""Block state machine and its page columns: NAND ordering rules."""

import pytest

from repro.flash.block import PAGE_ERASED, PAGE_PROGRAMMED, Block, BlockState
from repro.flash.errors import EraseStateError, ProgramOrderError, WearOutError
from repro.flash.geometry import small_geometry


@pytest.fixture
def block():
    return Block(small_geometry(blocks=2, wordlines=4), index=0)


def page_state(block, offset):
    """A page's checkpointed state code (derived from ``next_page``)."""
    return block.state_dict()["page_state"][offset]


class TestPage:
    """One page, as the three columns of its block."""

    def test_starts_erased(self, block):
        assert page_state(block, 0) == PAGE_ERASED
        assert block.data[0] is None

    def test_program_sets_fields(self, block):
        block.program(0, "payload", {"lpa": 7}, now=42.0)
        assert page_state(block, 0) == PAGE_PROGRAMMED
        assert block.data[0] == "payload"
        assert block.spare[0] == {"lpa": 7}
        assert block.program_time[0] == 42.0

    def test_erase_resets(self, block):
        block.program(0, "x", None, 0.0)
        block.erase(0.0)
        assert page_state(block, 0) == PAGE_ERASED
        assert block.data[0] is None
        assert block.spare[0] == {}

    def test_program_with_none_spare(self, block):
        block.program(0, "x", None, 0.0)
        assert block.spare[0] == {}


class TestBlockProgramOrder:
    def test_sequential_program_ok(self, block):
        for offset in range(block.geometry.pages_per_block):
            block.program(offset, f"d{offset}", None, 0.0)
        assert block.is_full
        assert block.state is BlockState.FULL

    def test_out_of_order_rejected(self, block):
        with pytest.raises(ProgramOrderError):
            block.program(1, "x", None, 0.0)

    def test_double_program_rejected(self, block):
        block.program(0, "x", None, 0.0)
        with pytest.raises(ProgramOrderError):
            block.program(0, "y", None, 0.0)

    def test_state_transitions(self, block):
        assert block.state is BlockState.FREE
        block.program(0, "x", None, 0.0)
        assert block.state is BlockState.OPEN

    def test_erase_pending_blocks_programs(self, block):
        block.program(0, "x", None, 0.0)
        block.mark_erase_pending()
        with pytest.raises(EraseStateError):
            block.program(1, "y", None, 0.0)


class TestBlockErase:
    def test_erase_resets_everything(self, block):
        for offset in range(3):
            block.program(offset, "x", None, 0.0)
        block.erase(now=10.0)
        assert block.state is BlockState.FREE
        assert block.next_page == 0
        assert block.erase_count == 1
        assert all(
            page_state(block, offset) == PAGE_ERASED
            for offset in range(block.geometry.pages_per_block)
        )
        assert block.last_erase_time == 10.0

    def test_erase_allows_reprogramming(self, block):
        block.program(0, "x", None, 0.0)
        block.erase(0.0)
        block.program(0, "y", None, 0.0)
        assert block.data[0] == "y"

    def test_wear_out(self):
        block = Block(small_geometry(blocks=1, wordlines=1), index=0, pe_limit=2)
        block.erase(0.0)
        block.erase(0.0)
        with pytest.raises(WearOutError):
            block.erase(0.0)

    def test_erase_clears_disturb_counters(self, block):
        block.record_wl_disturb(0)
        block.erase(0.0)
        assert block.wl_disturb_pulses[0] == 0


class TestOpenInterval:
    def test_open_interval_counts_while_free(self, block):
        block.erase(now=100.0)
        assert block.open_interval_us(150.0) == pytest.approx(50.0)

    def test_open_interval_zero_once_programmed(self, block):
        block.erase(now=100.0)
        block.program(0, "x", None, 120.0)
        assert block.open_interval_us(500.0) == 0.0

    def test_open_interval_never_negative(self, block):
        block.erase(now=100.0)
        assert block.open_interval_us(50.0) == 0.0


class TestDisturbTracking:
    def test_record_wl_disturb(self, block):
        block.record_wl_disturb(2)
        block.record_wl_disturb(2)
        assert block.wl_disturb_pulses[2] == 2
        assert block.wl_disturb_pulses[0] == 0
