"""Correctness tooling for the Evanesco reproduction.

Two complementary layers guard the simulator's core invariants as the
codebase grows:

* :mod:`repro.checkers.sanitizer` -- an opt-in **runtime** shadow checker
  (think TSan for the FTL) that re-verifies the page-status state
  machine, L2P bijection, per-block counters, and the paper's security
  invariant -- a stale secured copy must be unreadable -- after every
  host/GC batch.  Enable it with ``checked=True`` on
  :class:`~repro.ssd.device.SSD` or ``repro check``.
* :mod:`repro.checkers.lint` -- a rule-driven **static** AST lint engine
  whose domain rules (:mod:`repro.checkers.rules`) ban the constructs
  no runtime check sees at a new call site: unseeded randomness, wall
  clocks, upward imports, ad-hoc serialization.  Run it with
  ``repro lint``; simulator code never imports it.
"""

from repro.checkers.sanitizer import (
    FtlSanitizer,
    InvariantViolation,
    default_checked,
    set_default_checked,
)

__all__ = [
    "FtlSanitizer",
    "InvariantViolation",
    "default_checked",
    "set_default_checked",
]
