"""Behavioural flash chip: command set, cell state, forensic dump."""

import pytest

from repro.flash.chip import ERASED_DATA, SCRUBBED_DATA, FlashChip
from repro.flash.errors import AddressError, ProgramOrderError
from repro.flash.geometry import small_geometry
from repro.ftl.timing import TimingModel


@pytest.fixture
def chip():
    return FlashChip(small_geometry(blocks=4, wordlines=4))


class TestReadProgramErase:
    def test_read_erased_returns_all_ones_token(self, chip):
        result = chip.read_page(0)
        assert result.data == ERASED_DATA
        assert not result.blocked

    def test_program_then_read(self, chip):
        chip.program_page(0, "hello", {"lpa": 3})
        result = chip.read_page(0)
        assert result.data == "hello"
        assert result.spare == {"lpa": 3}

    def test_read_spare_is_the_callers_copy(self, chip):
        chip.program_page(0, "hello", {"lpa": 3})
        first = chip.read_page(0)
        first.spare["lpa"] = 99
        first.spare["extra"] = True
        assert chip.read_page(0).spare == {"lpa": 3}
        assert chip.blocks[0].spare[0] == {"lpa": 3}
        assert chip.state_dict()["blocks"][0]["spare"][0] == {"lpa": 3}

    def test_commands_return_none(self, chip):
        # cost is the timing model's to decide, not the chip's
        assert chip.program_page(0, "x") is None
        assert chip.scrub_wordline(0, 0) is None
        assert chip.erase_block(0) is None
        assert chip.read_page(0)._fields == ("data", "spare", "blocked")

    def test_program_returns_latency(self):
        # a program's latency is charged by the timing model: the page
        # crosses the channel, then the cells are programmed
        timing = TimingModel(n_channels=1, chips_per_channel=1)
        assert timing.program(0) == timing.t_xfer_us + timing.t_prog_us

    def test_read_returns_latency(self):
        # a read's latency is charged by the timing model: the cells are
        # sensed, then the page crosses the channel
        timing = TimingModel(n_channels=1, chips_per_channel=1)
        assert timing.read(0) == timing.t_read_us + timing.t_xfer_us

    def test_erase_destroys_data(self, chip):
        chip.program_page(0, "x")
        chip.erase_block(0)
        assert chip.read_page(0).data == ERASED_DATA

    def test_program_order_enforced_through_chip(self, chip):
        with pytest.raises(ProgramOrderError):
            chip.program_page(5, "x")

    def test_address_bounds(self, chip):
        with pytest.raises(AddressError):
            chip.read_page(chip.geometry.pages_per_chip)
        with pytest.raises(AddressError):
            chip.erase_block(99)


class TestStats:
    def test_counts(self, chip):
        # the chip's own record of its work is cell state: a program
        # consumes a page, an erase adds a P/E cycle, a read changes
        # nothing; command counts live in the FTL's DeviceStats
        chip.program_page(0, "x")
        chip.read_page(0)
        chip.read_page(1)
        assert chip.blocks[0].next_page == 1
        chip.erase_block(0)
        assert chip.blocks[0].erase_count == 1
        assert chip.blocks[0].next_page == 0
        assert not hasattr(chip, "stats")


class TestHelpers:
    def test_next_programmable_page(self, chip):
        assert chip.next_programmable_page(0) == 0
        chip.program_page(0, "x")
        assert chip.next_programmable_page(0) == 1

    def test_next_programmable_none_when_full(self, chip):
        for offset in range(chip.geometry.pages_per_block):
            chip.program_page(offset, "x")
        assert chip.next_programmable_page(0) is None

    def test_free_blocks(self, chip):
        assert chip.free_blocks() == [0, 1, 2, 3]
        chip.program_page(0, "x")
        assert chip.free_blocks() == [1, 2, 3]


class TestRawDump:
    def test_dump_contains_programmed_pages(self, chip):
        chip.program_page(0, "a")
        chip.program_page(1, "b")
        dump = chip.raw_dump()
        assert dump == {0: "a", 1: "b"}

    def test_dump_excludes_erased(self, chip):
        chip.program_page(0, "a")
        chip.erase_block(0)
        assert chip.raw_dump() == {}

    def test_dump_exposes_stale_data(self, chip):
        """The core vulnerability: logically-dead data is readable raw."""
        chip.program_page(0, "secret-v1")
        chip.program_page(1, "secret-v2")
        # no FTL-level notion here: both versions visible to the attacker
        assert set(chip.raw_dump().values()) == {"secret-v1", "secret-v2"}


class TestScrub:
    def test_scrub_destroys_wordline(self, chip):
        for offset in range(3):
            chip.program_page(offset, f"d{offset}")
        chip.scrub_wordline(0, 0)
        for offset in range(3):
            assert chip.read_page(offset).data == SCRUBBED_DATA

    def test_scrub_leaves_other_wordlines(self, chip):
        for offset in range(6):
            chip.program_page(offset, f"d{offset}")
        chip.scrub_wordline(0, 0)
        assert chip.read_page(3).data == "d3"

    def test_scrub_skips_erased_pages(self, chip):
        chip.program_page(0, "x")
        chip.scrub_wordline(0, 1)  # untouched WL
        assert chip.read_page(3).data == ERASED_DATA

    def test_scrub_bad_wordline(self, chip):
        with pytest.raises(AddressError):
            chip.scrub_wordline(0, 99)

    def test_scrubbed_page_gone_from_dump(self, chip):
        chip.program_page(0, "secret")
        chip.scrub_wordline(0, 0)
        assert "secret" not in chip.raw_dump().values()
