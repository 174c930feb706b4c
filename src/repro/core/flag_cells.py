"""Empirical model of pAP flag cells -- Section 5.3.

Evanesco stores each page's access-permission (pAP) flag in ``k`` spare
SLC-mode flash cells on the page's wordline, programmed with a single
low-voltage one-shot pulse under SBPI inhibition of every other cell.
Three physical responses govern the design space of Figure 9:

* **Data disturb** (Fig. 9b): the pulse disturbs the inhibited data cells;
  too high a program voltage or too long a pulse measurably raises the
  wordline's RBER.
* **Program success** (Fig. 9c): too weak a pulse fails to program the
  flag cells -- the paper measures 47.3 % success at (Vp1, 100 us).
* **Retention flips** (Fig. 9d): a weakly-programmed flag cell can lose
  its charge and read back as *enabled* again, which would unlock
  sanitized data; k-modular redundancy with a majority vote must absorb
  the flips over the retention requirement.

This module is calibrated (see DESIGN.md) so the three responses
reproduce the anchor points the paper reports:

* per-cell program success at (Vp1, 100 us) is ~47.3 %;
* at the 5-year requirement, combination (vi) = (Vp2, 200 us) loses ~5 of
  9 flag cells while (i) = (Vp4, 150 us) loses at most ~2;
* Region I = {(Vp4, 200 us)} + all of Vp5 raises data RBER by up to ~20 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erf, exp, log1p, log2, sqrt

import numpy as np

from repro.flash import constants

_SQRT2 = sqrt(2.0)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + erf(z / _SQRT2))


@dataclass(frozen=True)
class PulseSettings:
    """One (program voltage, program latency) point of the design space."""

    vpgm: float
    latency_us: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.vpgm:.1f} V, {self.latency_us:.0f} us)"


def plock_design_space() -> list[PulseSettings]:
    """The paper's initial pLock space: Psi x T = 5 voltages x 3 latencies."""
    voltages = [
        constants.PLOCK_VPGM_BASE + i * constants.PLOCK_VPGM_STEP
        for i in range(constants.PLOCK_VPGM_COUNT)
    ]
    return [
        PulseSettings(v, t)
        for t in constants.PLOCK_LATENCIES_US
        for v in voltages
    ]


@dataclass(frozen=True)
class FlagCellModel:
    """Calibrated responses of a flag cell to a one-shot program pulse.

    The internal "program energy" ``E`` summarizes a pulse: roughly linear
    in voltage and logarithmic in duration, the standard first-order model
    of FN-tunnelling charge transfer.
    """

    #: voltage coefficient of the program energy.
    volt_coef: float = 1.1
    #: per-octave latency coefficient of the program energy.
    time_coef: float = 0.5
    #: success-curve location/scale: success = Phi((E - loc) / scale).
    success_loc: float = 0.017
    success_scale: float = 0.28
    #: minimum per-cell success rate considered manufacturable (Region II).
    success_floor: float = 0.999
    #: retention model: flip prob = Phi((ret_coef*log1p(days) - ret_base
    #: - ret_margin*E) / ret_scale).
    ret_coef: float = 0.22
    ret_base: float = 1.258
    ret_margin: float = 0.46
    ret_scale: float = 0.35
    #: data-disturb model: factor = 1 + amp / (1 + exp(-(D - loc)/scale))
    #: with D = dist_volt*(V - base) + dist_time*log2(t/100us).
    dist_volt: float = 1.4
    dist_time: float = 0.5
    dist_amp: float = 0.20
    dist_loc: float = 2.75
    dist_scale: float = 0.12
    #: data-RBER increase considered unacceptable (Region I), relative.
    disturb_ceiling: float = 1.02

    # ------------------------------------------------------------------
    def program_energy(self, pulse: PulseSettings) -> float:
        return self.volt_coef * (
            pulse.vpgm - constants.PLOCK_VPGM_BASE
        ) + self.time_coef * log2(pulse.latency_us / 100.0)

    def program_success_prob(self, pulse: PulseSettings) -> float:
        """Per-cell probability that the pulse programs the flag cell."""
        e = self.program_energy(pulse)
        return _phi((e - self.success_loc) / self.success_scale)

    def programs_reliably(self, pulse: PulseSettings) -> bool:
        """Region II predicate: can this pulse be trusted to set flags?"""
        return self.program_success_prob(pulse) >= self.success_floor

    # ------------------------------------------------------------------
    def retention_flip_prob(self, pulse: PulseSettings, days: float) -> float:
        """Per-cell probability a programmed flag cell reads enabled again."""
        return self.flip_prob_from_margin(self.retention_margin(pulse), days)

    def retention_margin(self, pulse: PulseSettings) -> float:
        """The pulse's term of the retention model (``ret_margin * E``)."""
        return self.ret_margin * self.program_energy(pulse)

    def flip_prob_from_margin(self, margin: float, days: float) -> float:
        """:meth:`retention_flip_prob` given the pulse's precomputed
        :meth:`retention_margin`."""
        if days <= 0.0:
            return 0.0
        z = (self.ret_coef * log1p(days) - self.ret_base - margin) / self.ret_scale
        return _phi(z)

    def expected_retention_errors(
        self, pulse: PulseSettings, days: float, k: int = constants.PAP_REDUNDANCY_K
    ) -> float:
        """Expected flipped cells among ``k`` after ``days`` of retention."""
        return k * self.retention_flip_prob(pulse, days)

    def flag_failure_prob(
        self, pulse: PulseSettings, days: float, k: int = constants.PAP_REDUNDANCY_K
    ) -> float:
        """Probability the k-cell majority reads *enabled* after retention.

        A locked flag fails open when at least ``(k + 1) // 2`` of its
        cells flip back below the flag read level.
        """
        q = self.retention_flip_prob(pulse, days)
        need = (k + 1) // 2
        # exact binomial tail
        prob = 0.0
        for j in range(need, k + 1):
            prob += _binom(k, j) * q**j * (1.0 - q) ** (k - j)
        return prob

    # ------------------------------------------------------------------
    def data_rber_factor(self, pulse: PulseSettings) -> float:
        """Multiplicative RBER penalty on inhibited data cells (Fig. 9b)."""
        d = self.dist_volt * (
            pulse.vpgm - constants.PLOCK_VPGM_BASE
        ) + self.dist_time * log2(pulse.latency_us / 100.0)
        return 1.0 + self.dist_amp / (1.0 + exp(-(d - self.dist_loc) / self.dist_scale))

    def disturbs_data(self, pulse: PulseSettings) -> bool:
        """Region I predicate: does the pulse measurably raise data RBER?"""
        return self.data_rber_factor(pulse) > self.disturb_ceiling

    # ------------------------------------------------------------------
    def sample_programmed_cells(
        self, pulse: PulseSettings, k: int, rng: np.random.Generator
    ) -> int:
        """Number of cells (out of ``k``) actually programmed by the pulse."""
        return int(rng.binomial(k, self.program_success_prob(pulse)))

    def sample_retention_errors(
        self,
        pulse: PulseSettings,
        days: float,
        programmed_cells: int,
        rng: np.random.Generator,
    ) -> int:
        """Number of programmed cells flipped back after ``days``."""
        return int(rng.binomial(programmed_cells, self.retention_flip_prob(pulse, days)))


def _binom(n: int, k: int) -> float:
    from math import comb

    return float(comb(n, k))


def default_plock_pulse() -> PulseSettings:
    """The paper's final pLock choice: combination (ii) = (Vp4, 100 us)."""
    return PulseSettings(
        constants.PLOCK_VPGM_BASE + 3 * constants.PLOCK_VPGM_STEP,
        constants.T_PLOCK_US,
    )
