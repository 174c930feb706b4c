"""Evanesco: lock-based data sanitization (the paper's contribution).

* :class:`~repro.core.evanesco_chip.EvanescoChip` -- flash chip extended
  with the ``pLock``/``bLock`` commands and AP-gated reads;
* :class:`~repro.core.ap_flags.PageApArray` -- k-redundant pAP flag cells
  with the majority circuit;
* :class:`~repro.core.ssl_lock.SslLockModel` -- bLock's SSL-cell physics;
* :mod:`~repro.core.design_space` -- the Figure 9 / Figure 12 design-space
  exploration that selects (Vp4, 100 us) and (Vb6, 300 us).
"""

from repro.core.ap_flags import PageApArray
from repro.core.design_space import (
    BlockDesignResult,
    PlockDesignResult,
    explore_block_design,
    explore_plock_design,
)
from repro.core.evanesco_chip import EvanescoChip
from repro.core.flag_cells import (
    FlagCellModel,
    PulseSettings,
    default_plock_pulse,
    plock_design_space,
)
from repro.core.qualification import (
    FlagQualification,
    qualify_candidates,
    qualify_pulse,
)
from repro.core.ssl_lock import (
    BlockApFlag,
    SslLockModel,
    block_design_space,
    default_block_pulse,
    read_rber_vs_ssl_vth,
)

__all__ = [
    "BlockApFlag",
    "BlockDesignResult",
    "EvanescoChip",
    "FlagCellModel",
    "FlagQualification",
    "PageApArray",
    "PlockDesignResult",
    "PulseSettings",
    "SslLockModel",
    "block_design_space",
    "default_block_pulse",
    "default_plock_pulse",
    "explore_block_design",
    "explore_plock_design",
    "plock_design_space",
    "qualify_candidates",
    "qualify_pulse",
    "read_rber_vs_ssl_vth",
]
