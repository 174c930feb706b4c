"""Host-time benchmark of the simulator on four sanitization workloads.

Run from the repository root; it needs nothing but the checkout::

    python benchmarks/perf/run.py                  # every workload, 5 + 1 repeats
    python benchmarks/perf/run.py --workload mail-sec --seed 3 --seconds 20 --trace 0
    python benchmarks/perf/run.py --out parent.json --trace-out traces/

Each repeat runs in a fresh single-threaded subprocess (``workloads.py``).
Untraced repeats give the end-to-end metrics (the fastest repeat for
``run_s``, the median for the others, printed with the median and
quartiles); one traced repeat (``--trace 1``, the default) gives the
per-layer metrics.  ``--repeats N`` fixes the untraced repeat count;
``--seconds S`` instead keeps starting repeats while they fit in ``S``
seconds (half of it when a traced repeat follows).

Every repeat's simulated output must agree with every other's and, on
seed 1, with ``goldens.json``; audited repeats must verify their
certificate, and the traced repeat must pass the tracer's oracles.  A
repeat that does not counts as failed.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics under ``--trace 0`` and the per-layer ones under
``--trace 1``.  Any failure exits 1 with a one-line reason on stderr; a
checkout without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
#: scratch space for campaign checkpoints, removed when the run ends.
WORK_DIR = ROOT / ".perf-work"
GOLDEN_SEED = 1
REPEAT_TIMEOUT_S = 120

#: end-to-end metrics: name -> (unit, better, bound, statistic over the
#: repeats).  The bound is the share of the parent's value by which the
#: metric may get worse.  On a shared 2-vCPU machine neighbours slow the
#: host by 10-30% for tens of seconds at a time.  That noise only ever
#: adds time, so ``run_s`` reports the fastest repeat: across ten seeds its
#: interquartile range stayed under 9% of the median, where the repeats'
#: median spread by up to 17%.  Both host times get the widest bound.
END_TO_END: dict[str, tuple[str, str, float, str]] = {
    "run_s": ("s", "lower", 0.25, "min"),
    "setup_s": ("s", "lower", 0.25, "median"),
    "peak_rss_mb": ("MB", "lower", 0.10, "median"),
}

#: per-layer metrics of the traced repeat: name -> unit.
PER_LAYER: dict[str, str] = {
    "host.capture_s": "s",
    "host.requests": "count",
    "ssd.build_s": "s",
    "ssd.submit.calls": "count",
    "ssd.submit.self_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.queued_segments_peak": "count",
    "ftl.submit.calls": "count",
    "ftl.self_s": "s",
    "ftl.gc_copies": "count",
    **{
        f"{layer}.{name}.{kind}": unit
        for layer, names in (
            ("flash", ("read_page", "program_page", "erase_block", "scrub_wordline")),
            ("core", ("plock", "block_lock", "block_locked", "page_locked")),
        )
        for name in names
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "sim.ops.calls": "count",
    "sim.ops.self_s": "s",
    "telemetry.events": "count",
    "telemetry.self_s": "s",
    "checkpoint.snapshot_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.generations": "count",
    "checkpoint.bytes": "B",
    "audit.ledger_s": "s",
    "audit.certificate_s": "s",
    "audit.verify_s": "s",
    "audit.events_replayed": "count",
    "trace.overhead_frac": "ratio",
    "sim_iops": "1/s",
    "sim_read_p99_us": "us",
    "sim_waf": "ratio",
}

#: the audited workload's certificate exposure p99 (printed and kept in
#: the goldens; the other workloads have no certificate to take it from).
EXPOSURE = "sim_exposure_p99_us"


def spawn(workload: str, seed: int, traced: bool, trace_out: Path | None) -> dict:
    """One repeat in a fresh single-threaded interpreter; its record."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--work-dir", str(WORK_DIR),
    ]
    if traced:
        command.append("--traced")
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=REPEAT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {REPEAT_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        reason = proc.stderr.strip().splitlines()
        return {
            "traced": traced,
            "error": reason[-1] if reason else f"exit code {proc.returncode}",
        }
    return json.loads(lines[-1])


def run_repeats(
    workload: str,
    seed: int,
    repeats: int | None,
    seconds: float | None,
    traced: bool,
    trace_out: Path | None,
) -> list[dict]:
    """Untraced repeats (a fixed count or a time budget), then the traced one."""
    records: list[dict] = []
    walls: list[float] = []
    budget = None if seconds is None else (seconds / 2 if traced else seconds)
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        records.append(spawn(workload, seed, False, None))
        walls.append(time.monotonic() - start)
        if repeats is not None:
            if len(records) >= repeats:
                break
        elif time.monotonic() - begin + statistics.median(walls) > budget:
            break
    if traced:
        records.append(spawn(workload, seed, True, trace_out))
    return records


def failure_reasons(
    workload: str, seed: int, records: list[dict], goldens: dict
) -> list[str | None]:
    """Why each repeat failed, or None where it passed."""
    finished = [r for r in records if "error" not in r]
    golden = goldens.get(workload) if seed == GOLDEN_SEED else None
    reference, source = None, "the other repeats"
    if golden is not None:
        reference, source = golden["digest"], "the seed-1 goldens"
    elif finished:
        reference = Counter(r["digest"] for r in finished).most_common(1)[0][0]
    reasons: list[str | None] = []
    for record in records:
        if "error" in record:
            reasons.append(record["error"])
        elif record["digest"] != reference:
            reasons.append(f"simulated output differs from {source}")
        elif record["audit_ok"] is False:
            reasons.append("the audit certificate failed verification")
        elif record.get("oracle_errors"):
            reasons.append(record["oracle_errors"][0])
        else:
            reasons.append(None)
    return reasons


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(workload: str, seed: int, records: list[dict], goldens: dict) -> dict:
    """One workload's result: repeat accounting plus both metric sets."""
    reasons = failure_reasons(workload, seed, records, goldens)
    passed = [r for r, why in zip(records, reasons) if why is None]
    untraced = [r for r in passed if not r["traced"]]
    traced = [r for r in passed if r["traced"]]
    result: dict = {
        "traced_repeats": sum(r["traced"] for r in records),
        "attempted": len(records),
        "failed": sum(why is not None for why in reasons),
        "errors": [why for why in reasons if why is not None],
        "end_to_end": {},
        "per_layer": {},
    }
    result["failed_frac"] = result["failed"] / result["attempted"]
    if untraced:
        for name, (unit, better, bound, statistic) in END_TO_END.items():
            samples = [r[name] for r in untraced]
            q1, median, q3 = quartiles(samples)
            result["end_to_end"][name] = {
                "unit": unit, "better": better, "bound": bound,
                "statistic": statistic,
                "value": min(samples) if statistic == "min" else median,
                "median": median, "q1": q1, "q3": q3, "samples": samples,
            }
    if passed:
        result["outputs"] = passed[0]["outputs"]
        result["digest"] = passed[0]["digest"]
        result["requests"] = passed[0]["counters"]["requests"]
    if traced and untraced:
        values = {
            **traced[0]["layers"],
            **{k: v for k, v in traced[0]["outputs"].items() if k in PER_LAYER},
            "trace.overhead_frac": traced[0]["run_s"]
            / result["end_to_end"]["run_s"]["value"]
            - 1.0,
        }
        result["per_layer"] = {
            name: {"unit": unit, "value": values[name]}
            for name, unit in PER_LAYER.items()
        }
    return result


def format_result(workload: str, seed: int, result: dict) -> str:
    """Every metric by name and unit; end-to-end ones with the median and
    quartiles of the repeats."""
    traced = result["traced_repeats"]
    lines = [
        f"{workload} (seed {seed}): {result['attempted'] - traced} untraced "
        f"+ {traced} traced repeats, failed_frac {result['failed_frac']:.2f}"
    ]
    lines += [f"  FAILED: {why}" for why in result["errors"]]
    for name, m in result["end_to_end"].items():
        lines.append(
            f"  {name:<34} {m['value']:>14.6g} {m['unit']:<6} "
            f"{m['statistic']} of n={len(m['samples'])}: median {m['median']:.6g}"
            f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
        )
    if EXPOSURE in result.get("outputs", {}):
        value = result["outputs"][EXPOSURE]
        lines.append(f"  {EXPOSURE:<34} {value:>14.6g} us")
    for name, m in result["per_layer"].items():
        lines.append(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def result_line(results: dict[str, dict], trace: bool) -> dict:
    """The final stdout object; metric names are prefixed by workload
    only when more than one workload ran."""
    metrics: dict[str, dict] = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, m in result["per_layer" if trace else "end_to_end"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def host_info() -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
    }


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator's sanitization workloads."
    )
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED,
                        help="workload seed; seed 2 is held out for claims")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int, help="untraced repeats (default 5)")
    budget.add_argument("--seconds", type=float,
                        help="time budget for the repeats instead of a count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced repeat and report per-layer metrics")
    parser.add_argument("--out", type=Path, help="write every result as JSON")
    parser.add_argument("--trace-out", type=Path,
                        help="directory for one Chrome trace per workload")
    parser.add_argument("--update-goldens", action="store_true",
                        help=f"rewrite {GOLDENS.name} from this seed-1 run")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeats is None and args.seconds is None:
        args.repeats = 5
    if args.update_goldens and args.seed != GOLDEN_SEED:
        parser.error(f"--update-goldens needs --seed {GOLDEN_SEED}")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir():
        print(
            f"run.py: no simulator sources at {SRC.relative_to(ROOT)}/repro; "
            "run it from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    names = [args.workload] if args.workload else list(WORKLOADS)
    goldens = json.loads(GOLDENS.read_text())["workloads"]
    results: dict[str, dict] = {}
    try:
        for name in names:
            records = run_repeats(
                name, args.seed, args.repeats, args.seconds,
                bool(args.trace), args.trace_out,
            )
            results[name] = summarize(
                name, args.seed, records, {} if args.update_goldens else goldens
            )
            print(format_result(name, args.seed, results[name]), flush=True)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {"seed": args.seed, "host": host_info(), "workloads": results},
                indent=1, sort_keys=True,
            )
            + "\n"
        )
    line = result_line(results, bool(args.trace))
    if args.update_goldens and line["correct"]:
        for name, r in results.items():
            goldens[name] = {k: r[k] for k in ("digest", "outputs", "requests")}
        GOLDENS.write_text(
            json.dumps({"seed": GOLDEN_SEED, "workloads": goldens},
                       indent=1, sort_keys=True)
            + "\n"
        )
    print(json.dumps(line))
    if not line["correct"]:
        name, r = next((n, r) for n, r in results.items() if r["failed"])
        print(
            f"run.py: {r['failed']} of {r['attempted']} repeats failed on "
            f"{name}: {r['errors'][0]}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
