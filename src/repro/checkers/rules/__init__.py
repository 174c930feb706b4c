"""The domain rule catalogue.

Each rule lives in its own module and bans one construct that no
runtime check can see at a new call site (DESIGN.md 3c records, per
rule id, the seeded defect and the check that fails on it; SIM01,
SIM02, SIM05, SIM11 and SIM12 are retired in favour of runtime
checks, and their ids are not reused):

* ``SIM03`` (:mod:`.determinism`) -- no unseeded module-level
  randomness anywhere in the simulator;
* ``SIM04`` (:mod:`.float_eq`) -- no float-literal ``==``/``!=`` in the
  ``flash/`` reliability math;
* ``SIM06`` (:mod:`.fault_handling`) -- no flash error is caught and
  swallowed without accounting (raise, stats, or exception use);
* ``SIM07`` (:mod:`.sim_clock`) -- no wall clock (``time``/``datetime``)
  or module-level ``random.*`` inside the ``sim/`` event engine;
* ``SIM08`` (:mod:`.no_print`) -- no ``print()`` calls in library code
  (``cli.py`` is the one module that talks to stdout);
* ``SIM09`` (:mod:`.parallel_only`) -- no ``multiprocessing`` /
  ``concurrent.futures`` imports outside ``analysis/parallel.py``
  (process fan-out goes through ``run_grid``'s determinism contract);
* ``SIM10`` (:mod:`.taint`) -- determinism taint: wall clock, entropy,
  process identity, and set iteration order must not flow into
  ``RunResult``, telemetry events, or JSON artifacts;
* ``SIM13`` (:mod:`.units`) -- ``_ns``/``_us``/``_ms``/``_s`` suffix
  dimensional analysis over arithmetic, comparisons, and bindings;
* ``SIM14`` (:mod:`.layering`) -- the import-layer stack
  ``flash < ftl < ssd < sim < telemetry < analysis`` admits no upward
  (and therefore no cyclic) imports;
* ``SIM15`` (:mod:`.serialization`) -- no ``pickle``/``marshal``/
  ``shelve`` imports outside ``checkpoint/`` (durable state goes
  through the versioned, checksummed checkpoint codec);
* ``SIM16`` (:mod:`.artifacts`) -- no ad-hoc ``json.dump``/``dumps``
  outside the telemetry exporters and the checkpoint codec (run
  evidence must stay canonical and re-verifiable; existing report
  emitters are baselined).

Suppress a rule on one line with ``# lint: disable=SIM0x`` or for a
whole file with ``# lint: disable-file=SIM0x`` (add a justification
after ``--``).
"""

from repro.checkers.rules.artifacts import ArtifactSerializationRule
from repro.checkers.rules.determinism import UnseededRandomnessRule
from repro.checkers.rules.fault_handling import SwallowedFlashErrorRule
from repro.checkers.rules.float_eq import FloatEqualityRule
from repro.checkers.rules.layering import ImportLayeringRule
from repro.checkers.rules.no_print import NoPrintRule
from repro.checkers.rules.parallel_only import ParallelOnlyRule
from repro.checkers.rules.serialization import SerializationBoundaryRule
from repro.checkers.rules.sim_clock import SimWallClockRule
from repro.checkers.rules.taint import DeterminismTaintRule
from repro.checkers.rules.units import TimeUnitConsistencyRule

#: registration order == report order for same-location findings.
ALL_RULES = (
    UnseededRandomnessRule,
    FloatEqualityRule,
    SwallowedFlashErrorRule,
    SimWallClockRule,
    NoPrintRule,
    ParallelOnlyRule,
    DeterminismTaintRule,
    TimeUnitConsistencyRule,
    ImportLayeringRule,
    SerializationBoundaryRule,
    ArtifactSerializationRule,
)

__all__ = [
    "ALL_RULES",
    "ArtifactSerializationRule",
    "DeterminismTaintRule",
    "FloatEqualityRule",
    "ImportLayeringRule",
    "NoPrintRule",
    "ParallelOnlyRule",
    "SerializationBoundaryRule",
    "SimWallClockRule",
    "SwallowedFlashErrorRule",
    "TimeUnitConsistencyRule",
    "UnseededRandomnessRule",
]
