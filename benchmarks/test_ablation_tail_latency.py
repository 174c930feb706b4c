"""Ablation -- per-request sanitization tails.

Average IOPS (Fig. 14a) understates the user-visible difference between
the techniques: a single secured overwrite on erSSD triggers a whole-
block relocation storm *inside that request*, while on secSSD it adds
one 100-us pLock.  This benchmark reports per-request device-work
percentiles for the same DBServer trace.
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis.latency import request_work
from repro.analysis.tables import render_table
from repro.ftl.request import RequestOp
from repro.sim.runner import capture_generator_trace
from repro.ssd.device import SSD
from repro.workloads import WORKLOADS

VARIANTS = ("baseline", "secSSD", "scrSSD", "erSSD")


def test_ablation_write_tails(benchmark, versioning_config):
    # one DBServer trace (setup + one capacity of steady writes) for all
    generator = WORKLOADS["DBServer"](
        capacity_pages=versioning_config.logical_pages, seed=4
    )
    requests, _ = capture_generator_trace(
        versioning_config, generator, versioning_config.logical_pages
    )
    runs = run_once(
        benchmark,
        lambda: {
            v: request_work(SSD(versioning_config, v), requests)
            for v in VARIANTS
        },
    )

    rows = []
    p99 = {}
    for variant, work in runs.items():
        summary = work.summary_for(RequestOp.WRITE)
        p99[variant] = summary["p99_us"]
        rows.append(
            [
                variant,
                f"{summary['mean_us']:.0f}",
                f"{summary['p50_us']:.0f}",
                f"{summary['p99_us']:.0f}",
                f"{summary['max_us'] / 1000:.1f} ms",
            ]
        )
    print()
    print(
        render_table(
            ["variant", "mean (us)", "p50 (us)", "p99 (us)", "max"],
            rows,
            title="Per-write-request device work (DBServer)",
        )
    )

    # tails order exactly like the techniques' sanitization costs
    assert p99["secSSD"] < p99["scrSSD"] < p99["erSSD"]
    # secSSD's p99 stays within ~2x of the baseline's (both are bounded
    # by GC bursts, not by sanitization)
    assert p99["secSSD"] <= 2.0 * p99["baseline"] + 1.0
    # erSSD's tail requests relocate whole blocks: an order of magnitude
    # beyond secSSD's
    assert p99["erSSD"] > 10 * p99["secSSD"]
