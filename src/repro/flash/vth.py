"""Threshold-voltage (Vth) distribution engine.

This module is the chip-physics substrate used by every chip-level
experiment in the paper (Figures 6 and 9--12).  Each Vth state of a
multi-level cell is modelled as a Gaussian whose mean and standard
deviation respond to the stressors the paper characterizes:

* **P/E cycling** widens every state and lifts the erased state
  (oxide damage / trapped charge).
* **Retention** shifts programmed states *down* proportionally to
  ``log(1 + t)`` -- the classic charge-detrapping law -- with higher
  states losing more charge, and widens distributions.
* **Program disturb** lifts the erased state slightly each time a
  sibling wordline (or an inhibited cell on the same wordline) sees a
  program pulse.
* **Open-interval effect** (Section 5.4): data programmed long after the
  block was erased starts from a degraded, partially-recovered erase
  distribution, raising RBER by up to ~30 %.

The engine offers two evaluation modes that share the same parameters:

* :func:`sample_wordline` draws per-cell Vth samples (Monte-Carlo), used
  by the behavioural chip when bit-accurate reads are requested;
* :meth:`VthModel.expected_rber` integrates the Gaussian overlap
  analytically, used by the design-space and reliability figures where
  millions of cells would be slow to sample.

All parameters are *calibrated to reproduce the shape* of the paper's
figures, not any specific vendor's silicon (see DESIGN.md section 2).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from repro.flash.encoding import Encoding, encoding_for
from repro.flash.geometry import CellType, PageRole

_SQRT2 = float(np.sqrt(2.0))


def _math_ndtr(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal CDF from :func:`math.erfc`.

    ``erfc(-x/sqrt 2)`` keeps full relative precision in the lower tail,
    where ``1 + erf(x/sqrt 2)`` cancels (1.8 % off at x = -8, 0.0 below
    about -8.5); it agrees with ``scipy.special.ndtr`` to within 4.3e-13
    relative over [-37.5, 37.5].
    """
    if np.isscalar(x):
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    arr = np.asarray(x, dtype=np.float64)
    return np.asarray(
        [0.5 * math.erfc(-v / _SQRT2) for v in arr.ravel()]
    ).reshape(arr.shape)


@cache
def _ndtr() -> Callable[..., np.ndarray | float]:
    """The CDF implementation, chosen on the first evaluation.

    scipy's vectorized ``ndtr`` is an optional accelerator.  Importing it
    costs a process ~18 MB of RSS and ~0.3 s, and only the Vth figure
    studies and the wear gate evaluate the CDF, so it is imported here
    rather than with the module: the simulation path never loads scipy.
    """
    try:
        from scipy.special import ndtr
    except ImportError:
        return _math_ndtr
    return ndtr


def _norm_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal CDF (vectorized)."""
    return _ndtr()(x)


@dataclass(frozen=True)
class StressState:
    """Stress history applied to a wordline or block.

    Attributes
    ----------
    pe_cycles:
        Program/erase cycles endured so far.
    retention_days:
        Time since the data was programmed.
    disturb_pulses:
        Count of program pulses applied to the wordline while the cells
        were inhibited (SBPI) -- e.g. pLock flag programming (Fig. 9b) or
        sibling-page programming.
    open_interval_days:
        Time the block stayed erased before this data was programmed
        (Section 5.4); ``0`` means program-immediately-after-erase.
    read_disturb_count:
        Number of reads since program (small Vth lift on the E state).
    """

    pe_cycles: int = 0
    retention_days: float = 0.0
    disturb_pulses: int = 0
    open_interval_days: float = 0.0
    read_disturb_count: int = 0

    def with_retention(self, days: float) -> "StressState":
        return replace(self, retention_days=days)

    def with_pe(self, cycles: int) -> "StressState":
        return replace(self, pe_cycles=cycles)

    def with_disturb(self, pulses: int) -> "StressState":
        return replace(self, disturb_pulses=pulses)


@dataclass(frozen=True)
class VthParams:
    """Calibration constants for one cell type."""

    cell_type: CellType
    #: nominal state means (V), erased first.
    means: tuple[float, ...]
    #: nominal state standard deviations (V).
    sigmas: tuple[float, ...]
    #: read reference voltages between adjacent states.
    read_refs: tuple[float, ...]
    #: sigma widening per 1K P/E cycles (V).
    pe_sigma_per_k: float
    #: erased-state mean lift per 1K P/E cycles (V).
    pe_erase_lift_per_k: float
    #: retention loss coefficient: dV = -coef * state_frac * log1p(days).
    retention_coef: float
    #: retention sigma widening coefficient (V per log1p(day)).
    retention_sigma_coef: float
    #: E-state lift per inhibited program pulse (V).
    disturb_lift_per_pulse: float
    #: sigma widening per inhibited program pulse (V).
    disturb_sigma_per_pulse: float
    #: E-state mean lift at "very long" open interval (V), saturating.
    open_interval_lift_max: float
    #: open-interval saturation constant (days).
    open_interval_tau_days: float
    #: read-disturb lift per 10K reads (V).
    read_disturb_lift_per_10k: float
    #: relative sigma widening at a saturated open interval (Fig. 10:
    #: ~30 % RBER penalty at the longest interval tracked).
    open_sigma_rel_max: float = 0.045

    def __post_init__(self) -> None:
        n = self.cell_type.states
        if len(self.means) != n or len(self.sigmas) != n:
            raise ValueError(f"need {n} means and sigmas for {self.cell_type.name}")
        if len(self.read_refs) != n - 1:
            raise ValueError(f"need {n - 1} read references")
        if any(a >= b for a, b in zip(self.means, self.means[1:])):
            raise ValueError("state means must be strictly increasing")


def _evenly_spaced_params(
    cell_type: CellType,
    erase_mean: float,
    first_prog_mean: float,
    last_prog_mean: float,
    sigma: float,
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    n_prog = cell_type.states - 1
    if n_prog == 1:
        prog_means = [first_prog_mean]
    else:
        step = (last_prog_mean - first_prog_mean) / (n_prog - 1)
        prog_means = [first_prog_mean + i * step for i in range(n_prog)]
    means = (erase_mean, *prog_means)
    sigmas = tuple([sigma] * cell_type.states)
    refs = tuple(
        (means[i] + means[i + 1]) / 2.0 for i in range(cell_type.states - 1)
    )
    return means, sigmas, refs


def default_params(cell_type: CellType) -> VthParams:
    """Calibrated default parameters per cell type.

    The Vth windows follow the paper's Figure 2: the same design limit
    (~6 V usable window) must fit 4 states for MLC and 8 for TLC, so TLC
    states are packed with roughly half the margin -- which is exactly why
    OSR over-programming destroys TLC MSB pages but only ~7 % of MLC ones
    (Figure 6).
    """
    if cell_type is CellType.SLC:
        means, sigmas, refs = _evenly_spaced_params(cell_type, -2.5, 2.5, 2.5, 0.30)
        return VthParams(
            cell_type=cell_type,
            means=means,
            sigmas=sigmas,
            read_refs=refs,
            pe_sigma_per_k=0.03,
            pe_erase_lift_per_k=0.10,
            retention_coef=0.050,
            retention_sigma_coef=0.008,
            disturb_lift_per_pulse=0.012,
            disturb_sigma_per_pulse=0.002,
            open_interval_lift_max=0.25,
            open_interval_tau_days=2.0,
            read_disturb_lift_per_10k=0.05,
        )
    if cell_type is CellType.MLC:
        means, sigmas, refs = _evenly_spaced_params(cell_type, -2.5, 1.2, 4.6, 0.22)
        return VthParams(
            cell_type=cell_type,
            means=means,
            sigmas=sigmas,
            read_refs=refs,
            pe_sigma_per_k=0.040,
            pe_erase_lift_per_k=0.12,
            retention_coef=0.0040,
            retention_sigma_coef=0.0023,
            disturb_lift_per_pulse=0.012,
            disturb_sigma_per_pulse=0.002,
            open_interval_lift_max=0.022,
            open_interval_tau_days=2.0,
            read_disturb_lift_per_10k=0.06,
        )
    if cell_type is CellType.TLC:
        means, sigmas, refs = _evenly_spaced_params(cell_type, -2.5, 0.8, 5.0, 0.12)
        return VthParams(
            cell_type=cell_type,
            means=means,
            sigmas=sigmas,
            read_refs=refs,
            pe_sigma_per_k=0.030,
            pe_erase_lift_per_k=0.15,
            retention_coef=0.0022,
            retention_sigma_coef=0.0006,
            disturb_lift_per_pulse=0.014,
            disturb_sigma_per_pulse=0.0025,
            open_interval_lift_max=0.022,
            open_interval_tau_days=2.0,
            read_disturb_lift_per_10k=0.07,
        )
    if cell_type is CellType.QLC:
        means, sigmas, refs = _evenly_spaced_params(cell_type, -2.5, 0.6, 5.2, 0.055)
        return VthParams(
            cell_type=cell_type,
            means=means,
            sigmas=sigmas,
            read_refs=refs,
            pe_sigma_per_k=0.010,
            pe_erase_lift_per_k=0.18,
            retention_coef=0.0015,
            retention_sigma_coef=0.0004,
            disturb_lift_per_pulse=0.016,
            disturb_sigma_per_pulse=0.003,
            open_interval_lift_max=0.020,
            open_interval_tau_days=2.0,
            read_disturb_lift_per_10k=0.08,
        )
    raise ValueError(f"unsupported cell type: {cell_type!r}")


@dataclass(frozen=True)
class VthModel:
    """Vth distribution model for one cell type under stress.

    The model exposes per-state effective (mean, sigma) after applying a
    :class:`StressState`, plus helpers to compute bit-error rates per page
    role either analytically or by sampling.
    """

    params: VthParams
    encoding: Encoding = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "encoding", encoding_for(self.params.cell_type))

    # ------------------------------------------------------------------
    def state_distributions(
        self, stress: StressState
    ) -> tuple[np.ndarray, np.ndarray]:
        """Effective per-state (means, sigmas) under ``stress``."""
        p = self.params
        n = p.cell_type.states
        means = np.asarray(p.means, dtype=np.float64).copy()
        sigmas = np.asarray(p.sigmas, dtype=np.float64).copy()

        kcycles = stress.pe_cycles / 1000.0
        sigmas += p.pe_sigma_per_k * kcycles
        means[0] += p.pe_erase_lift_per_k * kcycles

        if stress.retention_days > 0.0:
            log_t = float(np.log1p(stress.retention_days))
            # higher states hold more charge and leak more
            state_frac = np.arange(n, dtype=np.float64) / max(n - 1, 1)
            # cycling accelerates detrapping (paper Fig. 6 right-most boxes)
            accel = 1.0 + 0.8 * kcycles
            means -= p.retention_coef * accel * state_frac * log_t
            sigmas += p.retention_sigma_coef * accel * log_t

        if stress.disturb_pulses > 0:
            # disturb mainly lifts the lowest states
            lift = p.disturb_lift_per_pulse * stress.disturb_pulses
            weight = 1.0 - np.arange(n, dtype=np.float64) / max(n - 1, 1)
            means += lift * weight
            sigmas += p.disturb_sigma_per_pulse * stress.disturb_pulses * weight

        if stress.open_interval_days > 0.0:
            # a long-open (erased) block partially recovers: its erase
            # distribution creeps up, and data programmed into it forms
            # proportionally wider states (array background pattern drift)
            frac = 1.0 - float(
                np.exp(-stress.open_interval_days / p.open_interval_tau_days)
            )
            means[0] += p.open_interval_lift_max * frac
            sigmas *= 1.0 + p.open_sigma_rel_max * frac

        if stress.read_disturb_count > 0:
            lift = p.read_disturb_lift_per_10k * stress.read_disturb_count / 10_000.0
            weight = 1.0 - np.arange(n, dtype=np.float64) / max(n - 1, 1)
            means += lift * weight

        return means, sigmas

    # ------------------------------------------------------------------
    def region_probabilities(self, stress: StressState) -> np.ndarray:
        """P[read region r | programmed state s] matrix of shape (s, r).

        Region *r* is the interval between read references r-1 and r; a
        read assigns each cell the state of the region its Vth falls in.
        """
        means, sigmas = self.state_distributions(stress)
        refs = np.asarray(self.params.read_refs, dtype=np.float64)
        n = len(means)
        # CDF at each reference per state
        z = (refs[None, :] - means[:, None]) / sigmas[:, None]
        cdf = _norm_cdf(z)
        probs = np.empty((n, n), dtype=np.float64)
        probs[:, 0] = cdf[:, 0]
        for r in range(1, n - 1):
            probs[:, r] = cdf[:, r] - cdf[:, r - 1]
        probs[:, n - 1] = 1.0 - cdf[:, n - 2]
        return np.clip(probs, 0.0, 1.0)

    def expected_rber(
        self,
        stress: StressState,
        role: PageRole,
        state_population: np.ndarray | None = None,
    ) -> float:
        """Expected raw bit-error rate for one page role.

        Parameters
        ----------
        stress:
            Stress history of the wordline.
        role:
            Which page of the wordline is read.
        state_population:
            Fraction of cells programmed in each state.  Defaults to
            uniform (random data).
        """
        return self._rber_from_probs(
            self.region_probabilities(stress), role, state_population
        )

    def _rber_from_probs(
        self,
        probs: np.ndarray,
        role: PageRole,
        state_population: np.ndarray | None,
    ) -> float:
        """RBER of one role given a precomputed region-probability matrix.

        Split out so multi-role queries evaluate the (expensive) Vth
        mixture once and reuse it for every page role of the wordline.
        """
        n = self.params.cell_type.states
        if state_population is None:
            state_population = np.full(n, 1.0 / n)
        else:
            state_population = np.asarray(state_population, dtype=np.float64)
            total = state_population.sum()
            if total <= 0:
                raise ValueError("state_population must have positive mass")
            state_population = state_population / total

        bits = self.encoding.bits_table()  # (states, roles)
        role_bits = bits[:, int(role)].astype(np.int64)
        # error iff the region's bit differs from the true state's bit
        mismatch = (role_bits[:, None] != role_bits[None, :]).astype(np.float64)
        per_state_err = (probs * mismatch).sum(axis=1)
        return float((state_population * per_state_err).sum())

    def expected_rber_all_roles(self, stress: StressState) -> dict[PageRole, float]:
        # one mixture evaluation shared by every role of the wordline
        probs = self.region_probabilities(stress)
        return {
            role: self._rber_from_probs(probs, role, None)
            for role in PageRole.for_cell_type(self.params.cell_type)
        }

    # ------------------------------------------------------------------
    def sample_cells(
        self,
        states: np.ndarray,
        stress: StressState,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw per-cell Vth samples for cells programmed in ``states``."""
        means, sigmas = self.state_distributions(stress)
        states = np.asarray(states, dtype=np.int64)
        return rng.normal(means[states], sigmas[states])

    def read_states(self, vths: np.ndarray) -> np.ndarray:
        """Digitize Vth samples into read regions (state indices)."""
        refs = np.asarray(self.params.read_refs, dtype=np.float64)
        return np.searchsorted(refs, vths, side="left")

    def sampled_rber(
        self,
        states: np.ndarray,
        stress: StressState,
        role: PageRole,
        rng: np.random.Generator,
    ) -> float:
        """Monte-Carlo RBER: sample Vth, digitize, compare page bits."""
        vths = self.sample_cells(states, stress, rng)
        read = self.read_states(vths)
        bits = self.encoding.bits_table()[:, int(role)]
        errors = bits[np.asarray(states, dtype=np.int64)] != bits[read]
        return float(np.mean(errors))


def model_for(cell_type: CellType) -> VthModel:
    """Convenience constructor with default calibrated parameters."""
    return VthModel(default_params(cell_type))


def sample_wordline(
    model: VthModel,
    states: np.ndarray,
    stress: StressState,
    rng: np.random.Generator,
) -> np.ndarray:
    """Module-level alias of :meth:`VthModel.sample_cells` (public API)."""
    return model.sample_cells(states, stress, rng)
