"""Reproduction of *Evanesco: Architectural Support for Efficient Data
Sanitization in Modern Flash-Based Storage Systems* (ASPLOS 2020).

The library is organized bottom-up:

* :mod:`repro.flash` -- NAND substrate: geometry, Vth/RBER physics, ECC,
  behavioural chips, and the reprogram-based sanitization baselines;
* :mod:`repro.core` -- Evanesco itself: pLock/bLock, pAP/bAP flag
  physics, the Evanesco chip, and the Figure 9/12 design exploration;
* :mod:`repro.ftl` -- the baseline FTL and the evaluated variants
  (secSSD, secSSD_nobLock, erSSD, scrSSD, cryptSSD), with the host
  requests, the occupancy timing model and the run counters they use;
* :mod:`repro.ssd` -- the device: configuration, FTL, telemetry;
* :mod:`repro.host` -- file system, trace replay, VerTrace profiler;
* :mod:`repro.workloads` -- the four Table 2 benchmark generators;
* :mod:`repro.security` -- the Section 5.1 attacker and C1/C2 auditing;
* :mod:`repro.analysis` -- experiment runners for every table/figure.

Quickstart::

    from repro import SSD, scaled_config, write, trim
    from repro.security import RawChipAttacker

    ssd = SSD(scaled_config(), variant="secSSD")
    ssd.submit(write(lpa=0, secure=True))
    ssd.submit(trim(lpa=0))                      # secure delete
    assert not RawChipAttacker(ssd).stale_versions_of(0)
"""

from repro.core import EvanescoChip
from repro.ssd import (
    SSD,
    SSDConfig,
    paper_config,
    read,
    scaled_config,
    trim,
    write,
)

__version__ = "1.0.0"

__all__ = [
    "EvanescoChip",
    "SSD",
    "SSDConfig",
    "__version__",
    "paper_config",
    "read",
    "scaled_config",
    "trim",
    "write",
]
