"""The perf benchmark's workloads and one timed repeat of each.

Every workload is a closed loop of ``QUEUE_DEPTH`` outstanding simulated
requests under the ``fifo`` policy with the runtime sanitizer off
(``checked=False``).  A repeat has two timed phases, both measured in
host seconds with ``perf_counter``:

* **setup** -- ``capture_block_trace`` plus device construction;
* **run** -- ``QueueingEngine.run`` until it drains, or, for the audited
  workload, the whole checkpointed campaign call followed by the audit.

Cyclic GC stays on in both phases, as in every ``repro`` command, with a
``gc.collect()`` just before each.  The simulator is reached only through
public entry points, looked up as module attributes at call time, so the
outside-in tracer in ``layers.py`` sees every call without any change to
``src/``.

Run as a script, this module executes one repeat in its own process and
prints the repeat's record as one JSON line (``run.py`` spawns it)::

    PYTHONPATH=src python benchmarks/perf/workloads.py --workload mail-sec \\
        --seed 1 --work-dir .perf-work [--traced] [--trace-out DIR]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import repro.audit.run as audit_run
import repro.checkpoint.campaign as campaign
from repro.sim import runner
from repro.sim.arrivals import ClosedLoopArrivals
from repro.sim.engine import QueueingEngine
from repro.sim.ops import RecordingTiming
from repro.sim.policies import policy_by_name
from repro.ssd.config import SSDConfig, scaled_config
from repro.ssd.device import SSD

from layers import LayerTracer

QUEUE_DEPTH = 16
POLICY = "fifo"


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a trace family, a variant and a device size."""

    name: str
    trace: str
    variant: str
    blocks: int
    wordlines: int
    write_multiplier: float
    #: checkpoint cadence in requests; set only for the audited campaign.
    checkpoint_every: int | None = None

    @property
    def audited(self) -> bool:
        return self.checkpoint_every is not None

    def config(self) -> SSDConfig:
        return scaled_config(self.blocks, self.wordlines)


# Why each workload exists is recorded in BENCHMARK.json and the README.
# Sizes are chosen so one repeat takes 2-4 s of host time on a 2-core
# machine: several repeats then fit in one bounded benchmark run, and the
# medians stay steady across seeds.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mail-sec", "MailServer", "secSSD", 28, 24, 1.5),
        Workload("mobile-sec", "Mobile", "secSSD", 56, 32, 2.0),
        Workload("mail-er", "MailServer", "erSSD", 28, 24, 0.25),
        Workload(
            "mail-sec-audited", "MailServer", "secSSD", 28, 24, 0.5,
            checkpoint_every=14_000,
        ),
    )
}


def digest(payload: object) -> str:
    """sha256 of the canonical (sorted, compact) JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_repeat(workload: Workload, seed: int, work_dir: Path) -> dict:
    """Set up and run ``workload`` once; returns the repeat's record.

    The record holds the two host timings, the simulated outputs with
    their digest, and the device counters the tracer's oracles compare
    layer call counts against.  Campaign checkpoints go under
    ``work_dir``, which the caller owns.
    """
    config = workload.config()
    telemetry = audit_run.audit_telemetry() if workload.audited else None
    gc.collect()
    start = perf_counter()
    requests, steady_start = runner.capture_block_trace(
        config,
        workload.trace,
        seed=seed,
        write_multiplier=workload.write_multiplier,
    )
    ssd = SSD(
        config,
        workload.variant,
        seed=seed,
        checked=False,
        # the campaign builds its own device on this session; the setup
        # device gets a private one so it publishes nothing into it
        telemetry=audit_run.audit_telemetry() if workload.audited else None,
    )
    ssd.instrument_timing(RecordingTiming.from_config(config))
    engine = QueueingEngine(
        ssd,
        requests,
        ClosedLoopArrivals(QUEUE_DEPTH),
        policy_by_name(POLICY),
        steady_start=steady_start,
    )
    setup_s = perf_counter() - start

    audit = None
    checkpoint_dir = work_dir / "checkpoints"
    gc.collect()
    start = perf_counter()
    if workload.audited:
        sim = campaign.run_chunked_simulation(
            config,
            workload.trace,
            workload.variant,
            checkpoint_dir,
            workload.checkpoint_every,
            seed=seed,
            write_multiplier=workload.write_multiplier,
            policy=POLICY,
            arrivals=ClosedLoopArrivals(QUEUE_DEPTH),
            checked=False,
            telemetry=telemetry,
        )
        audit = audit_run.audit_sim_result(sim, telemetry, config, seed=seed)
    else:
        report = engine.run()
    run_s = perf_counter() - start

    if workload.audited:
        report, stats = sim.report, sim.run.stats
        if sim.requests != len(requests):
            raise RuntimeError(
                f"campaign rendered {sim.requests} requests, setup {len(requests)}"
            )
    else:
        stats = ssd.ftl.stats
    outputs = {
        "sim_iops": report.iops,
        "sim_read_p99_us": report.latency["read"]["p99_us"],
        "sim_waf": stats.waf,
    }
    counters = {
        "requests": len(requests),
        "events": report.events,
        "queued_segments_peak": report.queued_segments_peak,
        **stats.to_dict(),
    }
    if audit is not None:
        outputs["sim_exposure_p99_us"] = audit.certificate["sections"][
            "exposure"
        ]["p99_us"]
        bus = telemetry.bus
        generations = sorted(checkpoint_dir.glob("gen-*"))
        counters.update(
            telemetry_published=sum(bus.category_counts.values()),
            events_replayed=len(bus),
            checkpoint_generations=len(generations),
            checkpoint_bytes=sum(
                f.stat().st_size for g in generations for f in g.rglob("*")
            ),
        )
    sim_digest = digest(
        {
            "stats": stats.to_dict(),
            "latency": report.latency,
            "outputs": outputs,
            "certificate": None if audit is None else audit.certificate,
        }
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "outputs": outputs,
        "digest": sim_digest,
        "audit_ok": None if audit is None else audit.ok,
        "counters": counters,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="repeat-", dir=args.work_dir))
    try:
        if args.traced:
            with LayerTracer() as tracer:
                record = run_repeat(workload, args.seed, work_dir)
            record["layers"] = tracer.layer_metrics(record)
            record["oracle_errors"] = tracer.oracle_errors(record)
            if args.trace_out is not None:
                tracer.write_chrome_trace(
                    args.trace_out / f"{workload.name}.trace.json", workload.name
                )
        else:
            record = run_repeat(workload, args.seed, work_dir)
    except Exception as exc:  # the parent counts the repeat as failed
        print(f"{type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["traced"] = args.traced
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
