"""Vth distribution engine: stress responses and RBER computation."""

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flash import vth
from repro.flash.geometry import CellType, PageRole
from repro.flash.vth import (
    StressState,
    VthParams,
    default_params,
    model_for,
)


@pytest.fixture(scope="module")
def tlc():
    return model_for(CellType.TLC)


@pytest.fixture(scope="module")
def mlc():
    return model_for(CellType.MLC)


class TestParams:
    @pytest.mark.parametrize(
        "cell_type", [CellType.SLC, CellType.MLC, CellType.TLC, CellType.QLC]
    )
    def test_defaults_valid(self, cell_type):
        p = default_params(cell_type)
        assert len(p.means) == cell_type.states
        assert len(p.read_refs) == cell_type.states - 1

    def test_means_strictly_increasing(self):
        p = default_params(CellType.TLC)
        assert all(a < b for a, b in zip(p.means, p.means[1:]))

    def test_refs_between_means(self):
        p = default_params(CellType.TLC)
        for i, ref in enumerate(p.read_refs):
            assert p.means[i] < ref < p.means[i + 1]

    def test_rejects_mismatched_sizes(self):
        good = default_params(CellType.MLC)
        with pytest.raises(ValueError):
            VthParams(
                cell_type=CellType.MLC,
                means=good.means[:-1] + (99.0,) * 2,  # wrong count
                sigmas=good.sigmas,
                read_refs=good.read_refs,
                pe_sigma_per_k=0.1,
                pe_erase_lift_per_k=0.1,
                retention_coef=0.1,
                retention_sigma_coef=0.1,
                disturb_lift_per_pulse=0.1,
                disturb_sigma_per_pulse=0.1,
                open_interval_lift_max=0.1,
                open_interval_tau_days=1.0,
                read_disturb_lift_per_10k=0.1,
            )

    def test_rejects_decreasing_means(self):
        good = default_params(CellType.MLC)
        with pytest.raises(ValueError):
            VthParams(
                cell_type=CellType.MLC,
                means=tuple(reversed(good.means)),
                sigmas=good.sigmas,
                read_refs=good.read_refs,
                pe_sigma_per_k=0.1,
                pe_erase_lift_per_k=0.1,
                retention_coef=0.1,
                retention_sigma_coef=0.1,
                disturb_lift_per_pulse=0.1,
                disturb_sigma_per_pulse=0.1,
                open_interval_lift_max=0.1,
                open_interval_tau_days=1.0,
                read_disturb_lift_per_10k=0.1,
            )


class TestStressState:
    def test_builders(self):
        s = StressState().with_pe(1000).with_retention(365.0).with_disturb(3)
        assert s.pe_cycles == 1000
        assert s.retention_days == 365.0
        assert s.disturb_pulses == 3

    def test_frozen(self):
        with pytest.raises(AttributeError):
            StressState().pe_cycles = 5


class TestStressResponses:
    def test_pe_cycling_widens_sigmas(self, tlc):
        _, fresh = tlc.state_distributions(StressState())
        _, cycled = tlc.state_distributions(StressState(pe_cycles=1000))
        assert np.all(cycled > fresh)

    def test_pe_cycling_lifts_erase_state(self, tlc):
        fresh, _ = tlc.state_distributions(StressState())
        cycled, _ = tlc.state_distributions(StressState(pe_cycles=1000))
        assert cycled[0] > fresh[0]

    def test_retention_lowers_high_states(self, tlc):
        fresh, _ = tlc.state_distributions(StressState(pe_cycles=1000))
        aged, _ = tlc.state_distributions(
            StressState(pe_cycles=1000, retention_days=365)
        )
        assert aged[-1] < fresh[-1]

    def test_retention_hits_high_states_harder(self, tlc):
        fresh, _ = tlc.state_distributions(StressState())
        aged, _ = tlc.state_distributions(StressState(retention_days=365))
        drops = fresh - aged
        assert drops[-1] > drops[1] >= drops[0]

    def test_disturb_lifts_low_states(self, tlc):
        fresh, _ = tlc.state_distributions(StressState())
        disturbed, _ = tlc.state_distributions(StressState(disturb_pulses=4))
        lifts = disturbed - fresh
        assert lifts[0] > lifts[-1]
        assert lifts[0] > 0

    def test_open_interval_widens_relative(self, tlc):
        _, fresh = tlc.state_distributions(StressState())
        _, opened = tlc.state_distributions(StressState(open_interval_days=16.0))
        assert np.all(opened > fresh)

    def test_open_interval_saturates(self, tlc):
        _, s16 = tlc.state_distributions(StressState(open_interval_days=16.0))
        _, s160 = tlc.state_distributions(StressState(open_interval_days=160.0))
        assert np.allclose(s16, s160, rtol=0.02)

    def test_read_disturb_lifts_erase(self, tlc):
        fresh, _ = tlc.state_distributions(StressState())
        read, _ = tlc.state_distributions(StressState(read_disturb_count=50_000))
        assert read[0] > fresh[0]


class TestRegionProbabilities:
    def test_rows_sum_to_one(self, tlc):
        probs = tlc.region_probabilities(StressState(pe_cycles=1000))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_diagonal_dominates_when_fresh(self, tlc):
        probs = tlc.region_probabilities(StressState())
        assert np.all(np.diag(probs) > 0.99)

    def test_errors_grow_with_stress(self, tlc):
        fresh = tlc.region_probabilities(StressState())
        aged = tlc.region_probabilities(
            StressState(pe_cycles=1000, retention_days=1825)
        )
        assert np.trace(aged) < np.trace(fresh)


class TestExpectedRber:
    def test_fresh_tlc_below_ecc_limit(self, tlc):
        for role in PageRole.for_cell_type(CellType.TLC):
            assert tlc.expected_rber(StressState(pe_cycles=1000), role) < 0.01

    def test_rber_monotone_in_pe(self, tlc):
        vals = [
            tlc.expected_rber(StressState(pe_cycles=c), PageRole.MSB)
            for c in (0, 500, 1000, 2000)
        ]
        assert vals == sorted(vals)

    def test_rber_monotone_in_retention(self, tlc):
        vals = [
            tlc.expected_rber(
                StressState(pe_cycles=1000, retention_days=d), PageRole.MSB
            )
            for d in (0, 30, 365, 1825)
        ]
        assert vals == sorted(vals)

    def test_csb_is_worst_tlc_role(self, tlc):
        """CSB senses 3 read levels (vs 2), so it collects the most errors."""
        rbers = tlc.expected_rber_all_roles(StressState(pe_cycles=1000))
        assert rbers[PageRole.CSB] == max(rbers.values())

    def test_custom_population_weighting(self, tlc):
        # all cells erased: no read level borders two states with equal
        # bits, but the E state sits far from every reference -> near zero
        pop = np.zeros(8)
        pop[0] = 1.0
        rber = tlc.expected_rber(StressState(), PageRole.LSB, state_population=pop)
        assert rber < 1e-6

    def test_rejects_empty_population(self, tlc):
        with pytest.raises(ValueError):
            tlc.expected_rber(
                StressState(), PageRole.LSB, state_population=np.zeros(8)
            )

    def test_mlc_fresh_cleaner_than_tlc(self, mlc, tlc):
        m = max(mlc.expected_rber_all_roles(StressState(pe_cycles=1000)).values())
        t = max(tlc.expected_rber_all_roles(StressState(pe_cycles=1000)).values())
        assert m < t


class TestSampledRber:
    def test_sampled_matches_expected(self, tlc, rng):
        stress = StressState(pe_cycles=1000, retention_days=365)
        states = rng.integers(0, 8, size=200_000)
        sampled = tlc.sampled_rber(states, stress, PageRole.CSB, rng)
        expected = tlc.expected_rber(stress, PageRole.CSB)
        assert sampled == pytest.approx(expected, rel=0.15)

    def test_read_states_digitizes(self, tlc):
        refs = tlc.params.read_refs
        vths = np.array([refs[0] - 1.0, refs[0] + 0.01, refs[-1] + 1.0])
        states = tlc.read_states(vths)
        assert states[0] == 0
        assert states[1] == 1
        assert states[2] == 7

    def test_sample_cells_centred_on_means(self, tlc, rng):
        means, _ = tlc.state_distributions(StressState())
        states = np.full(50_000, 3)
        vths = tlc.sample_cells(states, StressState(), rng)
        assert np.mean(vths) == pytest.approx(means[3], abs=0.01)


class TestHypothesisInvariants:
    @given(
        pe=st.integers(min_value=0, max_value=3000),
        days=st.floats(min_value=0, max_value=3650, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_rber_always_a_probability(self, pe, days):
        model = model_for(CellType.TLC)
        stress = StressState(pe_cycles=pe, retention_days=days)
        for role in PageRole.for_cell_type(CellType.TLC):
            rber = model.expected_rber(stress, role)
            assert 0.0 <= rber <= 1.0

    @given(days=st.floats(min_value=0.1, max_value=30, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_open_interval_never_helps(self, days):
        model = model_for(CellType.TLC)
        base = model.expected_rber(StressState(pe_cycles=1000), PageRole.CSB)
        opened = model.expected_rber(
            StressState(pe_cycles=1000, open_interval_days=days), PageRole.CSB
        )
        assert opened >= base



@contextlib.contextmanager
def scipy_blocked():
    """Resolve the Vth CDF as if scipy were not installed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "scipy", None)
        patch.setitem(sys.modules, "scipy.special", None)
        vth._ndtr.cache_clear()
        try:
            yield
        finally:
            vth._ndtr.cache_clear()


class TestNormCdfFallback:
    def test_fallback_matches_ndtr_across_both_tails(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        xs = np.linspace(-37.5, 37.5, 3001)
        expected = ndtr(xs)
        with scipy_blocked():
            assert vth._ndtr() is vth._math_ndtr
            got = vth._norm_cdf(xs)
        # the lower tail is where 1 + erf(x/sqrt 2) cancels to 0.0
        assert expected[0] > 0.0
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_fallback_keeps_scalars_and_shapes(self):
        with scipy_blocked():
            assert isinstance(vth._norm_cdf(0.5), float)
            assert vth._norm_cdf(0.0) == 0.5
            assert vth._norm_cdf(np.zeros((2, 3))).shape == (2, 3)
