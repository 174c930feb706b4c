"""TimingModel accounting contract and instrumentation seam.

The closed-loop engine cross-checks against ``elapsed_us`` and splits
work into chip vs channel occupancy, so the accounting identity
``total_work_us == cell_work_us + xfer_work_us`` and the per-field
validation are normative (see the module docstring of
:mod:`repro.ssd.timing`).  The capturing subclass the engine swaps in
must charge exactly what the plain model charges; a differential
property replays random op streams on both and compares bit for bit.
"""

from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.ops import SANITIZE_KINDS, FlashOp, OpKind, RecordingTiming
from repro.ssd.config import SSDConfig, scaled_config
from repro.ssd.device import SSD
from repro.ssd.request import IoRequest, RequestOp
from repro.ssd.timing import TimingModel


def _model(**overrides) -> TimingModel:
    kwargs = dict(n_channels=2, chips_per_channel=2)
    kwargs.update(overrides)
    return TimingModel(**kwargs)


class TestWorkAccounting:
    def test_split_identity_over_mixed_ops(self):
        timing = _model()
        timing.read(0)
        timing.program(1)
        timing.copy(2, 3)
        timing.erase(0)
        timing.plock(1)
        timing.block_lock(2)
        timing.scrub(3)
        assert timing.total_work_us == pytest.approx(
            timing.cell_work_us + timing.xfer_work_us
        )

    def test_read_splits_sense_and_transfer(self):
        timing = _model()
        timing.read(0)
        assert timing.cell_work_us == timing.t_read_us
        assert timing.xfer_work_us == timing.t_xfer_us

    def test_program_splits_transfer_and_cell(self):
        timing = _model()
        timing.program(0)
        assert timing.cell_work_us == timing.t_prog_us
        assert timing.xfer_work_us == timing.t_xfer_us

    def test_chip_only_ops_add_no_transfer(self):
        timing = _model()
        timing.erase(0)
        timing.plock(0)
        timing.block_lock(0)
        timing.scrub(0)
        assert timing.xfer_work_us == 0.0
        assert timing.cell_work_us == (
            timing.t_erase_us + timing.t_plock_us
            + timing.t_block_lock_us + timing.t_scrub_us
        )

    def test_starts_from_zero(self):
        timing = _model()
        assert timing.total_work_us == 0.0
        assert timing.cell_work_us == 0.0
        assert timing.xfer_work_us == 0.0


class TestValidation:
    @pytest.mark.parametrize("field", TimingModel.TIMING_FIELDS)
    def test_every_timing_field_must_be_positive(self, field):
        with pytest.raises(ValueError, match=field):
            _model(**{field: 0.0})
        with pytest.raises(ValueError, match=field):
            _model(**{field: -1.0})

    def test_topology_must_be_positive(self):
        with pytest.raises(ValueError, match="topology"):
            TimingModel(n_channels=0, chips_per_channel=2)

    def test_config_validates_t_scrub_us(self, small_geometry):
        with pytest.raises(ValueError, match="t_scrub_us"):
            SSDConfig(
                n_channels=1, chips_per_channel=1,
                geometry=small_geometry, t_scrub_us=0.0,
            )


class TestScrubPulse:
    def test_defaults_to_plock_duration(self):
        timing = _model()
        assert timing.t_scrub_us == timing.t_plock_us

    def test_scrub_occupies_the_chip(self):
        timing = _model(t_scrub_us=250.0)
        end = timing.scrub(1)
        assert end == 250.0
        assert timing.chip_busy[1] == 250.0

    def test_config_value_reaches_the_ftl(self, small_geometry):
        config = SSDConfig(
            n_channels=1, chips_per_channel=2,
            geometry=small_geometry, t_scrub_us=123.0,
        )
        ssd = SSD(config, "scrSSD", checked=False)
        assert ssd.ftl.timing.t_scrub_us == 123.0


class TestInstrumentTiming:
    def test_swap_before_traffic(self):
        config = scaled_config(blocks_per_chip=16, wordlines_per_block=8)
        ssd = SSD(config, "baseline", checked=False)
        replacement = TimingModel(
            n_channels=config.n_channels,
            chips_per_channel=config.chips_per_channel,
        )
        ssd.instrument_timing(replacement)
        assert ssd.ftl.timing is replacement

    def test_rejected_after_traffic(self):
        config = scaled_config(blocks_per_chip=16, wordlines_per_block=8)
        ssd = SSD(config, "baseline", checked=False)
        ssd.submit(IoRequest(RequestOp.WRITE, lpa=0))
        with pytest.raises(RuntimeError, match="after requests"):
            ssd.instrument_timing(
                TimingModel(
                    n_channels=config.n_channels,
                    chips_per_channel=config.chips_per_channel,
                )
            )

    def test_rejected_on_topology_mismatch(self):
        config = scaled_config(blocks_per_chip=16, wordlines_per_block=8)
        ssd = SSD(config, "baseline", checked=False)
        with pytest.raises(ValueError, match="topology"):
            ssd.instrument_timing(
                TimingModel(n_channels=1, chips_per_channel=1)
            )


#: the scheduling methods both models expose, by captured op kind.
_OP_KINDS = {
    "read": OpKind.READ,
    "program": OpKind.PROGRAM,
    "erase": OpKind.ERASE,
    "plock": OpKind.PLOCK,
    "block_lock": OpKind.BLOCK_LOCK,
    "scrub": OpKind.SCRUB,
}

_durations = st.floats(
    min_value=0.1, max_value=5000.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _scenarios(draw):
    """A topology, odd per-op durations, and an op stream on it.

    Each step is (method, chip, sanitize nesting depth).  Arbitrary
    float durations make the work totals sensitive to summation order.
    """
    n_channels = draw(st.integers(1, 3))
    chips_per_channel = draw(st.integers(1, 3))
    timings = {
        name: draw(_durations) for name in TimingModel.TIMING_FIELDS
    }
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(sorted(_OP_KINDS)),
            st.integers(0, n_channels * chips_per_channel - 1),
            st.integers(0, 2),
        ),
        max_size=60,
    ))
    return n_channels, chips_per_channel, timings, steps


def _run(model: TimingModel, method: str, chip_id: int, depth: int) -> float:
    with ExitStack() as stack:
        for _ in range(depth):
            stack.enter_context(model.sanitize_region())
        return getattr(model, method)(chip_id)


def _bits(state: dict) -> str:
    """repr is the shortest round-trip form, so equal reprs mean equal
    float bits (it also tells -0.0 from 0.0, which ``==`` does not)."""
    return repr(state)


class TestRecordingTimingMatchesTimingModel:
    @settings(max_examples=80, deadline=None)
    @given(_scenarios())
    def test_same_accounting_and_captured_ops(self, scenario):
        n_channels, chips_per_channel, timings, steps = scenario
        plain = TimingModel(n_channels, chips_per_channel, **timings)
        recording = RecordingTiming(n_channels, chips_per_channel, **timings)
        recording.begin_capture()
        for method, chip_id, depth in steps:
            expected_end = _run(plain, method, chip_id, depth)
            assert _run(recording, method, chip_id, depth) == expected_end
        assert _bits(recording.state_dict()) == _bits(plain.state_dict())
        assert recording.elapsed_us == plain.elapsed_us
        assert recording.end_capture() == [
            FlashOp(
                _OP_KINDS[method],
                chip_id,
                _OP_KINDS[method] in SANITIZE_KINDS or depth > 0,
            )
            for method, chip_id, depth in steps
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(_OP_KINDS)),
        st.integers(1, 3),
        st.integers(1, 3),
        st.one_of(st.integers(-5, -1), st.integers(0, 4)),
    )
    def test_out_of_range_chip_rejected_by_both(
        self, method, n_channels, chips_per_channel, offset
    ):
        n_chips = n_channels * chips_per_channel
        chip_id = offset if offset < 0 else n_chips + offset
        plain = TimingModel(n_channels, chips_per_channel)
        recording = RecordingTiming(n_channels, chips_per_channel)
        recording.begin_capture()
        for model in (plain, recording):
            before = _bits(model.state_dict())
            with pytest.raises(ValueError, match="out of range"):
                getattr(model, method)(chip_id)
            assert _bits(model.state_dict()) == before
        assert recording.end_capture() == []
