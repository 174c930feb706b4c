"""scipy stays off the simulation path.

scipy's ``ndtr`` accelerates only the Vth CDF (``flash/vth.py``), which
the figure studies and the wear gate evaluate.  A simulator process
that never evaluates it must never pay scipy's import (~18 MB RSS and
~0.3 s).  The check runs in a fresh interpreter, without the test
suite's conftest, so nothing else has imported scipy first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SCALE = ["--blocks", "8", "--wordlines", "4"]
MAIL = ["--workload", "MailServer", "--multiplier", "0.5", "--qd", "8"]

#: a simulation, an audit and a checkpointed campaign
RUNS = [
    ["simulate", *MAIL, "--variants", "erSSD", "secSSD", *SCALE],
    ["audit", "--variant", "secSSD", "--multiplier", "0.5", *SCALE],
    [
        "simulate", *MAIL, "--variants", "secSSD",
        "--checkpoint-every", "200", "--checkpoint-dir", "ck", *SCALE,
    ],
]

CHILD = f"""
import contextlib, io, sys
from repro.cli import main

for argv in {RUNS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
assert 'scipy' not in sys.modules, 'the simulation path imported scipy'

from repro.flash.geometry import CellType, PageRole
from repro.flash.vth import StressState, model_for
model_for(CellType.TLC).expected_rber(StressState(pe_cycles=1000), PageRole.CSB)
assert 'scipy' in sys.modules, 'the Vth CDF did not load its accelerator'
"""


def test_simulation_path_never_imports_scipy(tmp_path):
    pytest.importorskip("scipy.special")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_CHECK")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
