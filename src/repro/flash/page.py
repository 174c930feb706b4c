"""Behavioural model of one flash page.

At system scale (Table 1, Figure 14) we do not simulate cell physics per
page -- we track page *state* and an opaque data payload, which is all the
FTL, the VerTrace profiler, and the forensic attacker need.  The payload
is any Python object (the host layer stores small tokens identifying file
and version), mirroring how the paper's VerTrace annotates physical pages
with file metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class PageState(Enum):
    """Physical condition of a page (not the FTL's logical status)."""

    ERASED = "erased"
    PROGRAMMED = "programmed"


@dataclass
class Page:
    """One physical page: payload plus spare-area metadata.

    Attributes
    ----------
    state:
        Whether the page holds programmed data.
    data:
        Opaque payload written by the host (None when erased).
    spare:
        Spare-area (OOB) metadata dictionary -- the FTL stores the logical
        page address here, exactly like real FTLs do for power-loss
        recovery; VerTrace stores file annotations.
    program_time:
        Simulation time (us) at which the page was programmed.
    """

    state: PageState = PageState.ERASED
    data: Any = None
    spare: dict[str, Any] = field(default_factory=dict)
    program_time: float | None = None

    @property
    def is_erased(self) -> bool:
        return self.state is PageState.ERASED

    def program(self, data: Any, spare: dict[str, Any] | None, now: float) -> None:
        """Transition ERASED -> PROGRAMMED; caller validates ordering."""
        self.state = PageState.PROGRAMMED
        self.data = data
        self.spare = dict(spare or {})
        self.program_time = now

    def erase(self) -> None:
        """Reset to the erased state, destroying payload and spare data."""
        self.state = PageState.ERASED
        self.data = None
        self.spare = {}
        self.program_time = None
