"""Resource-occupancy timing model."""

import pytest

from repro.ftl.timing import TimingModel


@pytest.fixture
def timing():
    return TimingModel(n_channels=2, chips_per_channel=2)


class TestTopology:
    def test_chip_count(self, timing):
        assert timing.n_chips == 4

    def test_channel_mapping(self, timing):
        assert timing.channel_of(0) == 0
        assert timing.channel_of(1) == 0
        assert timing.channel_of(2) == 1
        assert timing.channel_of(3) == 1

    def test_rejects_bad_chip(self, timing):
        with pytest.raises(ValueError):
            timing.read(4)

    def test_rejects_bad_topology(self):
        with pytest.raises(ValueError):
            TimingModel(n_channels=0, chips_per_channel=1)


class TestOperations:
    def test_read_occupies_chip_then_channel(self, timing):
        end = timing.read(0)
        assert timing.chip_busy[0] == timing.t_read_us
        assert end == timing.t_read_us + timing.t_xfer_us

    def test_program_transfers_then_programs(self, timing):
        end = timing.program(0)
        assert timing.channel_busy[0] == timing.t_xfer_us
        assert end == timing.t_xfer_us + timing.t_prog_us

    def test_erase_has_no_transfer(self, timing):
        timing.erase(0)
        assert timing.channel_busy[0] == 0.0
        assert timing.chip_busy[0] == timing.t_erase_us

    def test_lock_latencies(self, timing):
        timing.plock(0)
        timing.block_lock(1)
        assert timing.chip_busy[0] == timing.t_plock_us
        assert timing.chip_busy[1] == timing.t_block_lock_us

    def test_scrub(self, timing):
        timing.scrub(0)
        assert timing.chip_busy[0] == timing.t_scrub_us

    def test_copy_combines_read_and_program(self, timing):
        timing.copy(0, 1)
        assert timing.chip_busy[0] == timing.t_read_us
        assert timing.chip_busy[1] > 0


class TestParallelism:
    def test_chips_overlap(self, timing):
        """Programs on different chips of the same channel pipeline."""
        timing.program(0)
        timing.program(1)
        # both chips busy; channel serialized the two transfers
        assert timing.channel_busy[0] == 2 * timing.t_xfer_us
        overlap = min(timing.chip_busy[0], timing.chip_busy[1])
        assert overlap > 0

    def test_channels_independent(self, timing):
        timing.program(0)
        timing.program(2)
        assert timing.chip_busy[0] == timing.chip_busy[2]

    def test_serialization_on_one_chip(self, timing):
        timing.program(0)
        first = timing.chip_busy[0]
        timing.program(0)
        assert timing.chip_busy[0] > first + timing.t_prog_us - 1e-9

    def test_channel_contention_delays_transfer(self, timing):
        for _ in range(10):
            timing.read(0)
        # the channel, not the chip, is the bottleneck at some point
        assert timing.channel_busy[0] >= timing.chip_busy[0]


class TestElapsed:
    def test_elapsed_is_max(self, timing):
        timing.erase(0)
        timing.read(2)
        assert timing.elapsed_us == timing.t_erase_us

    def test_utilization_fractions(self, timing):
        timing.erase(0)
        util = timing.utilization()
        assert util[0] == pytest.approx(1.0)
        assert util[1] == 0.0

    def test_empty_model(self, timing):
        assert timing.elapsed_us == 0.0
        assert timing.utilization() == [0.0] * 4
