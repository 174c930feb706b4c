"""Golden pin on the simulated outputs of one closed-loop config.

MailServer on a 12x8 device, half a capacity of steady-state writes,
closed loop at queue depth 16 under ``fifo``, seed 1.  Each variant's
IOPS and read/all p99 are pinned exactly, and a sha256 over the device
counters, the latency table, IOPS and the open-loop agreement pins
everything else the run simulated.  The simulator is deterministic, so
any drift is a model change: fix it, or re-pin with the reason stated.

The engine's own work counters (``events``, ``queued_segments_peak``)
are left out on purpose: they measure the simulator, not the device,
and an engine rewrite may change them without changing the results.
Host wall-clock speed is measured by ``benchmarks/perf/``, not here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.checkpoint.codec import canonical_dumps
from repro.sim.arrivals import ClosedLoopArrivals
from repro.sim.policies import policy_by_name
from repro.sim.runner import SimResult, simulate_workload
from repro.ssd import scaled_config

#: variant -> (iops, read p99 us, all p99 us, sha256 of simulated_digest)
GOLDENS = {
    "baseline": (
        554.7499260136135,
        190020.0,
        207960.0,
        "ccf4e71a61c16736f38d7d3277009824e893dfa664ab04e259d66162a28b7db2",
    ),
    "secSSD": (
        549.6164852692813,
        185560.0,
        208400.0,
        "a245bd9f8824dff25cc714dc1becb2805e398c8b052d2bf9017f0c3d15822b24",
    ),
}


def simulated_digest(sim: SimResult) -> str:
    """sha256 over what the run simulated (not how the engine ran it)."""
    report = sim.report
    payload = {
        "stats": sim.run.stats.to_dict(),
        "latency": report.latency,
        "iops": report.iops,
        "open_loop_agreement": report.open_loop_agreement,
    }
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDENS))
def run(request) -> tuple[str, SimResult]:
    variant = request.param
    sim = simulate_workload(
        scaled_config(blocks_per_chip=12, wordlines_per_block=8),
        "MailServer",
        variant,
        seed=1,
        write_multiplier=0.5,
        policy=policy_by_name("fifo"),
        arrivals=ClosedLoopArrivals(16),
        checked=False,
    )
    return variant, sim


def test_iops_and_p99_exact(run):
    variant, sim = run
    iops, read_p99, all_p99, _ = GOLDENS[variant]
    assert sim.report.iops == iops
    assert sim.report.latency["read"]["p99_us"] == read_p99
    assert sim.report.latency["all"]["p99_us"] == all_p99


def test_simulated_outputs_digest(run):
    variant, sim = run
    assert simulated_digest(sim) == GOLDENS[variant][3]
