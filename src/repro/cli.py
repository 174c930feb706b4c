"""Command-line interface: regenerate any reproduced table or figure.

Usage::

    python -m repro table1                 # Section 3 versioning study
    python -m repro fig6                   # OSR reliability (MLC + TLC)
    python -m repro fig9                   # pLock design space
    python -m repro fig10                  # open-interval effect
    python -m repro fig12                  # bLock design space
    python -m repro fig14                  # system IOPS/WAF comparison
    python -m repro fig14c                 # secured-fraction sweep
    python -m repro overheads              # Section 5.5 accounting

Common options: ``--blocks``, ``--wordlines`` (device scale), ``--seed``,
``--multiplier`` (steady-state writes as a multiple of capacity).

Two commands drive the closed-loop discrete-event engine (repro.sim)::

    python -m repro simulate               # tail-latency study under queueing
    python -m repro trace                  # traced run -> Perfetto/Chrome trace

``simulate`` and ``torture`` also take ``--trace-out PATH`` to record
the run's structured event trace as a Chrome-trace-event file, and
``--cert-out PATH`` to issue a signed sanitization certificate
(``repro audit`` verifies archived traces and certificates offline;
``fleet --audit`` certifies every device in a campaign).  ``torture``,
``fleet`` and ``age`` take ``--progress`` to stream live
shard-completion/backlog/ETA lines to stderr without touching any
artifact.

``simulate --checkpoint-every N --checkpoint-dir DIR`` writes a
crash-consistent device checkpoint every N requests; an interrupted
run continues with ``--resume`` and finishes byte-identical to an
uninterrupted one (corrupt checkpoints are quarantined and the run
falls back to the previous good generation).  ``torture --resume DIR``
and ``fleet --resume DIR`` cache completed grid shards so a killed
sweep resumes instead of recomputing.

Four maintenance commands ship with the simulator itself::

    python -m repro lint                   # static domain lint (11 SIM rules)
    python -m repro check                  # runtime invariant sanitizer run
    python -m repro torture                # fault-injection robustness sweep
    python -m repro profile -- simulate    # cProfile any repro command

``torture``, ``fleet`` and ``age`` take ``--jobs N`` to fan their
experiment grids over worker processes (the merged artifact stays
byte-identical to a serial run).  Host wall-clock speed is measured by
``benchmarks/perf/``, not by a subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.analysis import (
    format_figure14,
    format_secure_fraction,
    format_table1,
    render_table,
    run_figure14,
    run_secure_fraction_sweep,
    run_versioning_study,
    summarize_overheads,
)
from repro.core import explore_block_design, explore_plock_design
from repro.flash.geometry import CellType
from repro.flash.osr import OSR_CONDITIONS, osr_study
from repro.flash.reliability import (
    OPEN_INTERVAL_CONDITIONS,
    open_interval_penalty,
    open_interval_study,
)
from repro.ssd import scaled_config


class CommandExit(Exception):
    """Abort a command: :func:`main` prints ``message``, exits ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _config(args: argparse.Namespace):
    # endurance/wear knobs exist only on the commands that expose them;
    # getattr defaults keep every other command on the fresh-forever
    # device its committed artifacts were produced with
    try:
        return scaled_config(
            blocks_per_chip=args.blocks,
            wordlines_per_block=args.wordlines,
            pe_limit=getattr(args, "pe_limit", None),
            wear_coupling=getattr(args, "wear_coupling", False),
            wear_leveling_threshold=getattr(args, "wear_leveling", None),
            wear_aware_allocation=getattr(args, "wear_alloc", False),
        )
    except ValueError as exc:
        raise CommandExit(2, f"{args.command}: {exc}") from exc


def _variants(args: argparse.Namespace, default) -> tuple[str, ...]:
    """``--variants`` (or the command's ``default``), all known."""
    from repro.ftl import FTL_VARIANTS

    variants = tuple(args.variants or default)
    unknown = [v for v in variants if v not in FTL_VARIANTS]
    if unknown:
        raise CommandExit(
            2, f"unknown variant(s) {unknown}; choose from {sorted(FTL_VARIANTS)}"
        )
    return variants


def _check_policy(args: argparse.Namespace) -> None:
    from repro.sim.policies import POLICIES

    if args.policy != "auto" and args.policy not in POLICIES:
        raise CommandExit(
            2,
            f"unknown policy {args.policy!r}; choose from "
            f"{['auto', *sorted(POLICIES)]}",
        )


def _progress(args: argparse.Namespace):
    """The ``--progress`` stderr reporter, labelled with the command."""
    if not args.progress:
        return None
    from repro.analysis.progress import ProgressReporter

    return ProgressReporter(args.command)


def _print_shards(payload: dict) -> None:
    if payload.get("cached_shards") or payload.get("retried_shards"):
        print(
            f"grid shards: {payload.get('cached_shards', 0)} cached, "
            f"{payload.get('retried_shards', 0)} retried"
        )


@contextmanager
def _checkpoint_errors(command: str) -> Iterator[None]:
    """An unrecoverable checkpoint store exits 1 with its recovery
    report; a store from another campaign is a usage error (exit 2)."""
    from repro.checkpoint import CampaignMismatchError, CheckpointError

    try:
        yield
    except CheckpointError as exc:
        raise CommandExit(1, exc.render()) from exc
    except CampaignMismatchError as exc:
        raise CommandExit(2, f"{command}: {exc}") from exc


def _write_certificates(base: str, audited_by_variant: dict) -> int:
    """One signed certificate per variant (``stem.variant.suffix`` when
    there are several); exit status 1 if any audit failed."""
    from repro.audit import certificate_text

    base_path = Path(base)
    several = len(audited_by_variant) > 1
    for variant, audited in audited_by_variant.items():
        path = (
            base_path.with_name(f"{base_path.stem}.{variant}{base_path.suffix}")
            if several
            else base_path
        )
        path.write_text(certificate_text(audited.certificate))
        status = "ok" if audited.ok else "AUDIT FAILED"
        print(f"certificate written to {path} ({status})")
    return 0 if all(a.ok for a in audited_by_variant.values()) else 1


def cmd_table1(args: argparse.Namespace) -> None:
    config = _config(args)
    summaries = {
        workload: run_versioning_study(
            config, workload, seed=args.seed, write_multiplier=args.multiplier
        ).summary
        for workload in ("Mobile", "MailServer", "DBServer")
    }
    print(format_table1(summaries))


def cmd_fig6(args: argparse.Namespace) -> None:
    for cell_type in (CellType.MLC, CellType.TLC):
        study = osr_study(cell_type, n_wordlines=400, seed=args.seed)
        rows = [
            [
                cond,
                f"{study.box_stats(cond)['median']:.2f}",
                f"{study.fraction_exceeding_limit(cond):.1%}",
            ]
            for cond in OSR_CONDITIONS
        ]
        print(
            render_table(
                ["condition", "median RBER (norm.)", "unreadable"],
                rows,
                title=f"Figure 6: {cell_type.name} MSB pages under OSR",
            )
        )
        print()


def cmd_fig9(args: argparse.Namespace) -> None:
    result = explore_plock_design()
    rows = [
        [
            str(p.pulse),
            f"{p.data_rber_factor:.3f}",
            f"{p.program_success:.3f}",
            p.region,
            p.label or "",
        ]
        for p in result.points
    ]
    print(
        render_table(
            ["pulse", "disturb factor", "program success", "region", "label"],
            rows,
            title="Figure 9: pLock design space",
        )
    )
    print(f"selected: ({result.selected_label}) {result.selected_pulse}")


def cmd_fig10(args: argparse.Namespace) -> None:
    points = open_interval_study()
    for cond in OPEN_INTERVAL_CONDITIONS:
        print(f"{cond}: +{open_interval_penalty(points, cond):.0%} "
              "RBER at the longest open interval")


def cmd_fig12(args: argparse.Namespace) -> None:
    result = explore_block_design()
    rows = [
        [str(p.pulse), f"{p.initial_vth:.2f} V", p.region, p.label or ""]
        for p in result.points
    ]
    print(
        render_table(
            ["pulse", "initial SSL Vth", "region", "label"],
            rows,
            title="Figure 12: bLock design space",
        )
    )
    print(f"selected: ({result.selected_label}) {result.selected_pulse}")


def cmd_fig14(args: argparse.Namespace) -> None:
    results = run_figure14(
        _config(args), seed=args.seed, write_multiplier=args.multiplier
    )
    print(format_figure14(results))


def cmd_fig14c(args: argparse.Namespace) -> None:
    sweep = run_secure_fraction_sweep(
        _config(args), seed=args.seed, write_multiplier=args.multiplier
    )
    print(format_secure_fraction(sweep))


def cmd_overheads(args: argparse.Namespace) -> None:
    rows = [[key, f"{value:.4g}"] for key, value in summarize_overheads().items()]
    print(render_table(["metric", "value"], rows, title="Section 5.5 overheads"))


def cmd_scorecard(args: argparse.Namespace) -> None:
    from repro.analysis.paper_targets import evaluate, format_scorecard
    from repro.analysis.scorecard import collect_measurements

    measurements = collect_measurements(
        _config(args), seed=args.seed, write_multiplier=args.multiplier
    )
    checks = evaluate(measurements)
    print(format_scorecard(checks))
    failed = sum(1 for c in checks if not c.passed)
    print(f"\n{len(checks) - failed}/{len(checks)} targets pass")


def _print_audit(target: str, audited, device_probe: bool) -> None:
    """Human-readable audit verdict (shared by ``repro audit`` modes)."""
    header = audited.header or {}
    ledger = audited.ledger.summary()
    exposure = audited.ledger.exposure_summary()
    report = audited.report
    print(f"audit: {target}")
    print(
        f"  evidence: dropped={header.get('dropped_events', 'n/a')}"
        f" sampled_out={header.get('sampled_out', 'n/a')}"
        f" device_probe={'yes' if device_probe else 'no'}"
    )
    print(
        f"  ledger: {ledger['generations']} generations,"
        f" {ledger['open_at_end']} open at end,"
        f" residual secured {ledger['residual_secured']},"
        f" digest {str(ledger['digest'])[:12]}"
    )
    print(
        f"  exposure: n={exposure['count']}"
        f" p50={exposure['p50_us']:.0f}us"
        f" p99={exposure['p99_us']:.0f}us"
        f" max={exposure['max_us']:.0f}us"
    )
    checks = " ".join(
        f"{name}={n}" for name, n in sorted(report.checks.items())
    )
    print(f"  checks: {checks or 'none'}")
    for finding in report.findings:
        kind = "FATAL" if finding.fatal else "note"
        print(
            f"  [{kind}] {finding.code} ({finding.section}): {finding.detail}"
        )
    print(f"verdict: {'PASS' if report.ok else 'FAIL'}")


def cmd_audit(args: argparse.Namespace) -> int:
    """Sanitization audit: trace file or live run -> signed certificate."""
    from repro.audit import audit_trace_file, certificate_text
    from repro.audit.verifier import verify_certificate

    if args.trace is not None:
        cert = None
        try:
            if args.cert:
                with open(args.cert) as fh:
                    try:
                        cert = json.load(fh)
                    except ValueError as exc:
                        raise ValueError(f"{args.cert}: not JSON: {exc}") from exc
                for finding in verify_certificate(cert).findings:
                    if finding.code == "bad-format":
                        raise ValueError(f"{args.cert}: {finding.detail}")
            audited = audit_trace_file(
                args.trace,
                certificate=cert,
                pages_per_block=args.pages_per_block,
            )
        except (OSError, ValueError) as exc:
            print(f"audit: {exc}")
            return 2
        target = str(args.trace)
        device_probe = False
    else:
        from repro.analysis.tracing import run_traced_study
        from repro.audit import audit_sim_result
        from repro.audit.run import AUDIT_CAPACITY
        from repro.ftl import FTL_VARIANTS

        if args.variant not in FTL_VARIANTS:
            print(f"unknown variant {args.variant!r}; choose from "
                  f"{sorted(FTL_VARIANTS)}")
            return 2
        config = _config(args)
        runs = run_traced_study(
            config,
            args.workload,
            (args.variant,),
            seed=args.seed,
            write_multiplier=args.multiplier,
            capacity=AUDIT_CAPACITY,
        )
        run = runs[args.variant]
        audited = audit_sim_result(run.sim, run.telemetry, config, seed=args.seed)
        target = f"{args.workload}/{args.variant} (live run)"
        device_probe = True
    _print_audit(target, audited, device_probe)
    if args.cert_out:
        Path(args.cert_out).write_text(
            certificate_text(audited.certificate)
        )
        print(f"certificate written to {args.cert_out}")
    return 0 if audited.ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    """Closed-loop tail-latency study on the discrete-event engine."""
    from repro.analysis.latency import format_tail_latency, policy_for_variant
    from repro.sim.arrivals import BurstyArrivals, ClosedLoopArrivals, PoissonArrivals
    from repro.sim.policies import policy_by_name
    from repro.sim.runner import capture_block_trace, simulate_trace

    variants = _variants(args, ("baseline", "erSSD", "scrSSD", "secSSD"))
    _check_policy(args)
    config = _config(args)
    if args.rate is not None:
        arrivals = (
            BurstyArrivals(args.rate, seed=args.seed)
            if args.bursty
            else PoissonArrivals(args.rate, seed=args.seed)
        )
    else:
        arrivals = ClosedLoopArrivals(args.qd)
    checkpointing = bool(args.checkpoint_every or args.resume)
    if checkpointing and not args.checkpoint_dir:
        print("simulate: --checkpoint-dir is required with "
              "--checkpoint-every/--resume")
        return 2
    if not args.checkpoint_every and (
        args.resume or args.stop_after or args.checkpoint_dir
    ):
        print("simulate: --checkpoint-every is required with --resume, "
              "--stop-after or --checkpoint-dir (it is part of the "
              "campaign's determinism contract)")
        return 2
    # every variant replays the one variant-independent render
    rendered = capture_block_trace(
        config, args.workload, seed=args.seed, write_multiplier=args.multiplier
    )
    trace_sessions = {}
    results = {}
    for variant in variants:
        policy = (
            policy_for_variant(variant)
            if args.policy == "auto"
            else policy_by_name(args.policy)
        )
        telemetry = None
        if args.cert_out:
            # audit-grade session: big ring, no sampling -- a lossy
            # stream would poison the ledger behind the certificate
            from repro.audit.run import audit_telemetry

            telemetry = trace_sessions[variant] = audit_telemetry()
        elif args.trace_out:
            from repro.telemetry import Telemetry

            telemetry = trace_sessions[variant] = Telemetry()
        if not checkpointing:
            results[variant] = simulate_trace(
                config,
                args.workload,
                variant,
                *rendered,
                seed=args.seed,
                policy=policy,
                arrivals=arrivals,
                checked=True if args.checked else None,
                check_interval=args.interval,
                telemetry=telemetry,
            )
            continue
        from repro.checkpoint import run_chunked_simulation

        with _checkpoint_errors("simulate"):
            result = run_chunked_simulation(
                config,
                args.workload,
                variant,
                Path(args.checkpoint_dir) / variant,
                args.checkpoint_every,
                seed=args.seed,
                write_multiplier=args.multiplier,
                policy=policy,
                arrivals=arrivals,
                checked=True if args.checked else None,
                check_interval=args.interval,
                telemetry=telemetry,
                resume=args.resume,
                stop_after=args.stop_after,
                rendered=rendered,
            )
        if result is None:
            print(
                f"{variant}: stopped after {args.stop_after} "
                f"checkpoint(s) in {args.checkpoint_dir}; "
                "continue with --resume"
            )
            continue
        for report in result.run.extra.get("checkpoint_recovery", []):
            print(
                f"{variant}: recovered past gen "
                f"{report['generation']:06d} ({report['reason']}: "
                f"{report['detail']}) -> {report['quarantined_to']}"
            )
        results[variant] = result
    if results:
        print(format_tail_latency(results))
    if args.trace_out:
        from repro.audit.run import config_fingerprint
        from repro.telemetry.export import trace_header, write_chrome_trace

        headers = {
            v: trace_header(
                tel.bus,
                workload=args.workload,
                variant=v,
                seed=args.seed,
                pages_per_block=config.geometry.pages_per_block,
                config_fingerprint=config_fingerprint(config),
                sanitize_latency_us=config.sanitize_latency_us(),
            )
            for v, tel in trace_sessions.items()
        }
        write_chrome_trace(
            args.trace_out,
            {v: tel.bus.events for v, tel in trace_sessions.items()},
            headers=headers,
        )
        print(f"trace written to {args.trace_out}")
    if args.json:
        from repro.checkpoint.codec import report_dumps

        Path(args.json).write_text(
            report_dumps({v: r.to_dict() for v, r in results.items()})
        )
        print(f"full reports written to {args.json}")
    if args.cert_out:
        from repro.audit import audit_sim_result

        return _write_certificates(
            args.cert_out,
            {
                v: audit_sim_result(r, trace_sessions[v], config, seed=args.seed)
                for v, r in results.items()
            },
        )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet-scale campaign: many devices, many tenants, one report."""
    from repro.fleet import FleetConfig, format_fleet, run_fleet

    variants = _variants(args, ("baseline", "erSSD", "scrSSD", "secSSD"))
    try:
        cfg = FleetConfig(
            devices=args.devices,
            tenants=args.tenants,
            seed=args.seed,
            variants=variants,
            base_workload=args.workload,
            zipf_s=args.zipf,
            spread=args.spread,
            storm=args.storm,
            storm_count=args.storms,
            storm_fraction=args.storm_fraction,
            device_blocks=args.blocks,
            device_wordlines=args.wordlines,
            write_multiplier=args.multiplier,
            queue_depth=args.qd,
            devices_per_shard=args.shard,
        )
    except ValueError as exc:
        raise CommandExit(2, f"fleet: {exc}") from exc
    run = run_fleet(
        cfg,
        jobs=args.jobs,
        resume_dir=args.resume,
        stop_after_shards=args.stop_after_shards,
        audit=args.audit,
        trace_dir=args.trace_out,
        progress=_progress(args),
    )
    if run is None:
        print(
            f"fleet: stopped after {args.stop_after_shards} shard(s); "
            f"re-run with --resume to continue"
        )
        return 0
    print(format_fleet(run.report))
    for path in run.trace_files:
        print(f"trace written to {path}")
    if run.cached_shards or run.retried_shards:
        print(
            f"fleet shards: {run.shards} total, {run.cached_shards} cached, "
            f"{run.retried_shards} retried"
        )
    if args.json:
        from repro.checkpoint.codec import report_dumps

        # the JSON artifact holds only the merged report: byte-identical
        # for serial, parallel, and resumed runs of the same config
        Path(args.json).write_text(report_dumps(run.report))
        print(f"fleet report written to {args.json}")
    if args.audit:
        failed = sum(
            int(s["sanitization"]["certified_devices"])
            - int(s["sanitization"]["verified_ok"])
            for s in run.report["variants"].values()  # type: ignore[union-attr]
            if "sanitization" in s
        )
        if failed:
            print(f"fleet audit: {failed} device certificate(s) failed "
                  "verification")
            return 1
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """cProfile another repro command; print a pstats hot-spot report."""
    import cProfile
    import io
    import pstats

    command = list(args.cmd)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("profile: give a repro command to run, e.g. "
              "`repro profile -- simulate --blocks 8 --wordlines 4`")
        return 2
    if command[0] == "profile":
        print("profile: cannot profile itself")
        return 2
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = main(command)
    finally:
        profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    print(stream.getvalue().rstrip())
    return status


def cmd_lint(args: argparse.Namespace) -> int:
    """Static domain lint over the simulator sources.

    Eleven per-file rules (SIM03, SIM04, SIM06-SIM10, SIM13-SIM16); the
    retired ids SIM01, SIM02, SIM05, SIM11 and SIM12 are guarded at
    runtime instead (DESIGN.md 3c).
    """
    from repro.checkers.lint import rule_catalogue, run_lint

    if args.rules:
        print(rule_catalogue())
        return 0
    return run_lint(
        args.paths,
        show_hints=not args.no_hints,
        fmt=args.format,
        out=args.out,
        baseline_path=args.baseline,
        no_baseline=args.no_baseline,
        write_baseline=args.write_baseline,
    )


def cmd_trace(args: argparse.Namespace) -> int:
    """Traced simulation -> Chrome-trace-event file (Perfetto-loadable)."""
    from repro.analysis.tracing import (
        format_trace_summary,
        parse_sample_spec,
        run_traced_study,
        write_trace_files,
    )
    from repro.sim.arrivals import ClosedLoopArrivals

    variants = _variants(args, ("secSSD",))
    _check_policy(args)
    try:
        sample = parse_sample_spec(args.sample)
    except ValueError as exc:
        print(exc)
        return 2
    runs = run_traced_study(
        _config(args),
        args.workload,
        variants,
        seed=args.seed,
        write_multiplier=args.multiplier,
        policy=args.policy,
        arrivals=ClosedLoopArrivals(args.qd),
        capacity=args.capacity,
        sample=sample,
    )
    print(format_trace_summary(runs))
    for path in write_trace_files(runs, args.out, jsonl=args.jsonl):
        print(f"trace written to {path}")
    return 0


def cmd_torture(args: argparse.Namespace) -> int:
    """Fault-injection torture sweep with a robustness scorecard."""
    from repro.analysis.torture import (
        CHECKPOINT_MODES,
        TORTURE_VARIANTS,
        run_torture,
        traced_rate_case,
    )
    from repro.faults import FaultKind, FaultPlan

    variants = _variants(args, TORTURE_VARIANTS)
    modes = (
        CHECKPOINT_MODES
        if args.checkpoint_modes is None
        else tuple(args.checkpoint_modes)
    )
    bad_modes = [m for m in modes if m not in CHECKPOINT_MODES]
    if bad_modes:
        print(f"unknown checkpoint mode(s) {bad_modes}; "
              f"choose from {list(CHECKPOINT_MODES)}")
        return 2
    config = _config(args)
    card = run_torture(
        config,
        variants=variants,
        seed=args.seed,
        n_requests=args.ops,
        rates=tuple(args.rates),
        window_start=args.window_start,
        window=args.window,
        jobs=args.jobs,
        checkpoint_modes=modes,
        resume_dir=args.resume,
        progress=_progress(args),
    )
    print(card.to_json() if args.json else card.format())
    # --trace-out and --cert-out each replay one representative faulted
    # run per variant: the highest configured rate maximizes fault
    # instants in the trace and in the certificate's forensic pass
    rate = max(args.rates) if args.rates else 1e-2

    def replay(variant: str, telemetry):
        _, ssd = traced_rate_case(
            config,
            variant,
            FaultPlan.single(FaultKind.PROGRAM_FAIL, rate, seed=args.seed),
            FaultKind.PROGRAM_FAIL.value,
            f"rate={rate:g}",
            args.ops,
            args.seed,
            telemetry=telemetry,
        )
        return ssd

    if args.trace_out:
        from repro.telemetry import Telemetry
        from repro.telemetry.export import write_chrome_trace

        streams = {}
        for variant in variants:
            telemetry = Telemetry()
            replay(variant, telemetry)
            streams[variant] = telemetry.bus.events
        write_chrome_trace(args.trace_out, streams)
        print(f"trace written to {args.trace_out}")
    if args.cert_out:
        from repro.audit import audit_live_run, audit_telemetry

        # the certificate's forensic pass proves no sanitized page
        # survived readable on the raw chips even with faults firing
        audited = {}
        for variant in variants:
            telemetry = audit_telemetry()
            ssd = replay(variant, telemetry)
            audited[variant] = audit_live_run(
                telemetry,
                config,
                workload="torture",
                variant=variant,
                ssd=ssd,
                seed=args.seed,
            )
        if _write_certificates(args.cert_out, audited):
            return 1
    return 0 if card.passed else 1


def cmd_age(args: argparse.Namespace) -> int:
    """Device-aging lifetime campaign: wear each variant to first death."""
    from repro.analysis.aging import (
        AGING_VARIANTS,
        format_lifetime,
        run_aging_campaign,
    )
    from repro.analysis.parallel import GridTaskError
    from repro.checkpoint import CampaignMismatchError, CheckpointError
    from repro.ftl.allocator import OutOfBlocksError
    from repro.telemetry import Telemetry

    variants = _variants(args, AGING_VARIANTS)
    config = _config(args)
    telemetry = Telemetry()

    def _died(exc: OutOfBlocksError) -> int:
        print(f"age: device died mid-window ({exc})")
        print(
            "age: a block pool ran dry between checkpoint boundaries, "
            "before the first-wearout stop could fire; lower "
            "--checkpoint-every (finer stop granularity) or raise "
            "--pe-limit"
        )
        return 1

    with _checkpoint_errors("age"):
        try:
            payload = run_aging_campaign(
                config,
                args.workload,
                args.dir,
                args.checkpoint_every,
                variants=variants,
                seed=args.seed,
                write_multiplier=args.multiplier,
                checked=True if args.checked else None,
                jobs=args.jobs,
                stop_after=args.stop_after,
                progress=_progress(args),
                telemetry=telemetry,
            )
        except OutOfBlocksError as exc:
            return _died(exc)
        except GridTaskError as exc:
            # worker exceptions arrive wrapped with the cell name
            if isinstance(exc.__cause__, OutOfBlocksError):
                return _died(exc.__cause__)
            if isinstance(exc.__cause__, (CampaignMismatchError, CheckpointError)):
                raise exc.__cause__ from exc
            raise
    if payload.get("paused"):
        print(
            f"age: stopped after {args.stop_after} checkpoint(s) per "
            f"variant in {args.dir}; re-run the same command to continue"
        )
        return 0
    print(format_lifetime(payload))
    _print_shards(payload)
    if args.json:
        from repro.checkpoint.codec import canonical_dumps

        report = dict(payload)
        report["gauges"] = telemetry.metrics.snapshot()
        Path(args.json).write_text(canonical_dumps(report))
        print(f"lifetime report written to {args.json}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Replay workloads on every variant under the runtime sanitizer."""
    from repro.analysis.experiments import run_workload_on_variant
    from repro.checkers.sanitizer import InvariantViolation
    from repro.ftl import FTL_VARIANTS

    variants = _variants(args, sorted(FTL_VARIANTS))
    config = _config(args)
    failures = 0
    for variant in variants:
        for workload in args.workloads:
            try:
                run_workload_on_variant(
                    config,
                    workload,
                    variant,
                    seed=args.seed,
                    write_multiplier=args.multiplier,
                    checked=True,
                    check_interval=args.interval,
                )
            except InvariantViolation as exc:
                failures += 1
                print(f"FAIL {variant}/{workload}: [{exc.invariant}] {exc.detail}")
                for event in exc.trail[-5:]:
                    print(f"      {event}")
            else:
                print(f"ok   {variant}/{workload}")
    if failures:
        print(f"repro check: {failures} invariant violation(s)")
        return 1
    print(
        f"repro check: clean ({len(variants)} variants x "
        f"{len(args.workloads)} workloads)"
    )
    return 0


COMMANDS = {
    "audit": cmd_audit,
    "table1": cmd_table1,
    "fig6": cmd_fig6,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "fig12": cmd_fig12,
    "fig14": cmd_fig14,
    "fig14c": cmd_fig14c,
    "overheads": cmd_overheads,
    "scorecard": cmd_scorecard,
    "simulate": cmd_simulate,
    "fleet": cmd_fleet,
    "profile": cmd_profile,
    "trace": cmd_trace,
    "lint": cmd_lint,
    "check": cmd_check,
    "torture": cmd_torture,
    "age": cmd_age,
}


def positive_int(text: str) -> int:
    """argparse ``type`` of the count flags the library rejects below 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse ``type`` of a rate or write multiplier: finite and above zero."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def probability(text: str) -> float:
    """argparse ``type`` of a per-op fault probability, in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


#: every flag more than one subcommand takes, declared once; a command
#: attaches the ones it needs with :func:`_attach`, overriding defaults.
#: Same spelling, different meaning stays per command: ``--resume``
#: (DIR here, a bare flag on simulate), ``--json`` (PATH here, a bare
#: flag on torture), ``--trace-out`` (PATH here, DIR on fleet), ``--out``.
FLAGS: dict[str, dict] = {
    "--blocks": dict(type=positive_int, default=20,
                     help="blocks per chip (device scale)"),
    "--wordlines": dict(type=positive_int, default=16,
                        help="wordlines per block (device scale)"),
    "--seed": dict(type=int, default=1),
    "--multiplier": dict(type=positive_float, default=1.0,
                         help="steady-state writes as a multiple of capacity"),
    "--workload": dict(default="MailServer", help="workload trace to replay"),
    "--variants": dict(nargs="*", default=None,
                       help="FTL variants (default: the command's own set)"),
    "--policy": dict(default="auto",
                     help="scheduling policy, or 'auto' for each variant's "
                          "honest best"),
    "--qd": dict(type=positive_int, default=32,
                 help="closed-loop queue depth (per device)"),
    "--pe-limit": dict(type=positive_int, default=None,
                       help="block P/E endurance; worn-out blocks are "
                            "scrub-retired as grown-bad (default: unlimited)"),
    "--jobs": dict(type=positive_int, default=1,
                   help="worker processes for the experiment grid (simulated "
                        "results are identical for any count)"),
    "--progress": dict(action="store_true",
                       help="stream shard-completion/ETA lines to stderr "
                            "(artifacts unchanged)"),
    "--resume": dict(default=None, metavar="DIR",
                     help="persist completed grid shards to DIR and resume "
                          "a killed run from there"),
    "--checked": dict(action="store_true",
                      help="attach the runtime invariant sanitizer"),
    "--interval": dict(type=positive_int, default=50,
                       help="host batches between full O(device) sanitizer "
                            "checks"),
    "--checkpoint-every": dict(type=positive_int, default=None, metavar="N",
                               help="requests per crash-consistent "
                                    "checkpoint window"),
    "--stop-after": dict(type=positive_int, default=None, metavar="K",
                         help="pause after K new checkpoints (deterministic "
                              "interruption, for tests and CI smoke)"),
    "--json": dict(default=None, metavar="PATH",
                   help="also write the report as JSON"),
    "--trace-out": dict(default=None, metavar="PATH",
                        help="record one traced run per variant as a "
                             "Chrome-trace-event file"),
    "--cert-out": dict(default=None, metavar="PATH",
                       help="audit the run(s) and write signed sanitization "
                            "certificates (one per variant)"),
}

#: device-scale flags; each command attaches its own copy (per-command
#: defaults never leak through a shared parent's set_defaults)
SCALE = ("--blocks", "--wordlines", "--seed", "--multiplier")


def _attach(p: argparse.ArgumentParser, *flags: str, **defaults) -> None:
    """Add the shared ``FLAGS`` to ``p``; ``defaults`` (keyed by dest)
    override the declared default for this command only."""
    for flag in flags:
        kwargs = dict(FLAGS[flag])
        dest = flag[2:].replace("-", "_")
        if dest in defaults:
            kwargs["default"] = defaults[dest]
        p.add_argument(flag, **kwargs)


def _audit_flags(p: argparse.ArgumentParser) -> None:
    _attach(p, *SCALE, "--workload", "--cert-out")
    p.add_argument("trace", nargs="?", default=None,
                   help="archived JSONL trace to audit (omit to "
                        "run and audit a live workload instead)")
    p.add_argument("--variant", default="secSSD",
                   help="live-run mode: FTL variant to audit")
    p.add_argument("--cert", default=None, metavar="CERT",
                   help="verify the trace against this previously "
                        "issued certificate instead of issuing one")
    p.add_argument("--pages-per-block", type=int, default=None,
                   help="device geometry for headerless traces")


def _lint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("paths", nargs="*", default=None,
                   help="files/dirs to lint (default: the package)")
    p.add_argument("--no-hints", action="store_true",
                   help="omit fix hints from the report")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="report format (default: text)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="baseline file of accepted findings "
                        "(default: ./.lint-baseline.json if present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--write-baseline", action="store_true",
                   help="regenerate the baseline from the current "
                        "findings and exit")
    p.add_argument("--rules", action="store_true",
                   help="list the rule catalogue and exit")


def _torture_flags(p: argparse.ArgumentParser) -> None:
    # a small device so the request stream actually reaches GC and
    # lazy-erase activity: 700 requests overwrite 12x4's capacity
    _attach(p, *SCALE[:3], "--variants", "--pe-limit", "--jobs",
            "--progress", "--resume", "--trace-out", "--cert-out",
            blocks=12, wordlines=4)
    p.add_argument("--ops", type=int, default=700,
                   help="host requests per torture case")
    p.add_argument("--rates", nargs="*", type=probability,
                   default=[1e-3, 1e-2],
                   help="per-op fault probabilities for the sweep")
    p.add_argument("--window", type=int, default=200,
                   help="power-loss boundaries to sweep per variant")
    p.add_argument("--window-start", type=int, default=0,
                   help="first op index of the power-loss window")
    p.add_argument("--checkpoint-modes", nargs="*", default=None,
                   metavar="MODE",
                   help="checkpoint-corruption cases to include "
                        "(powercut bitflip truncate; default all; "
                        "pass no MODE to disable)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable scorecard")


def _age_flags(p: argparse.ArgumentParser) -> None:
    # a device big enough that wear spread develops before the horizon
    # ends, at the calibrated P/E budget; --checkpoint-every is also the
    # first-wearout stop granularity, so keep it small enough that
    # retirement cannot spiral into pool exhaustion mid-window
    _attach(p, *SCALE, "--workload", "--variants", "--pe-limit",
            "--checkpoint-every", "--stop-after", "--jobs", "--progress",
            "--checked", "--json",
            blocks=16, wordlines=8, pe_limit=25, checkpoint_every=50)
    p.add_argument("--wear-leveling", type=int, default=4,
                   metavar="DELTA",
                   help="static wear-leveling threshold "
                        "(max-min erase spread that triggers a "
                        "cold-block migration; omit to disable)")
    p.add_argument("--wear-alloc", action="store_true",
                   help="wear-aware dynamic allocation: open the "
                        "least-worn reusable block, not the "
                        "FIFO head")
    p.add_argument("--wear-coupling", action="store_true",
                   help="derive read reliability from live block "
                        "wear (off by default: keeps same-seed "
                        "artifacts of other commands identical)")
    p.add_argument("--dir", default="age-ck", metavar="DIR",
                   help="campaign root (per-variant checkpoint "
                        "stores + grid result cache); killable "
                        "and resumable by re-running the same "
                        "command (default: ./age-ck)")


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    _attach(p, *SCALE, "--workload", "--variants", "--policy", "--qd",
            "--checked", "--interval", "--pe-limit", "--json",
            "--trace-out", "--cert-out", "--checkpoint-every",
            "--stop-after")
    p.add_argument("--rate", type=positive_float, default=None,
                   help="open Poisson arrivals at this IOPS "
                        "instead of a closed loop")
    p.add_argument("--bursty", action="store_true",
                   help="with --rate: bursty ON/OFF arrivals")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="campaign directory (one subdirectory "
                        "per variant)")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted campaign from "
                        "--checkpoint-dir (byte-identical to an "
                        "uninterrupted run)")


def _trace_flags(p: argparse.ArgumentParser) -> None:
    _attach(p, *SCALE, "--workload", "--variants", "--policy", "--qd")
    p.add_argument("--out", default="trace.json",
                   help="Chrome-trace-event output path")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="also write the raw event stream as "
                        "JSON lines (one file per variant)")
    p.add_argument("--capacity", type=positive_int, default=65536,
                   help="trace ring-buffer capacity in events "
                        "(oldest dropped beyond it)")
    p.add_argument("--sample", nargs="*", default=None,
                   metavar="CAT=N",
                   help="keep every Nth event of a category, "
                        "e.g. ftl.page=8 sim.service=4")


def _fleet_flags(p: argparse.ArgumentParser) -> None:
    # fleet devices are deliberately tiny so hundreds fit in one
    # campaign; --multiplier is scaled by each device's traffic share
    _attach(p, *SCALE, "--workload", "--variants", "--qd", "--jobs",
            "--progress", "--resume", "--json",
            blocks=8, wordlines=4, multiplier=0.6, qd=16)
    p.add_argument("--devices", type=positive_int, default=16,
                   help="devices in the fleet")
    p.add_argument("--tenants", type=positive_int, default=2000,
                   help="tenants across the fleet")
    p.add_argument("--storm", default="none",
                   choices=("none", "deletion", "churn"),
                   help="scripted fleet-wide storm kind")
    p.add_argument("--storms", type=int, default=1,
                   help="storm events per campaign")
    p.add_argument("--storm-fraction", type=float, default=0.25,
                   help="fraction of tenants each storm hits")
    p.add_argument("--zipf", type=positive_float, default=1.1,
                   help="Zipf exponent of tenant traffic weights")
    p.add_argument("--spread", type=int, default=1,
                   help="candidate devices per tenant placement")
    p.add_argument("--shard", type=positive_int, default=8,
                   help="devices per grid shard")
    p.add_argument("--stop-after-shards", type=positive_int, default=None,
                   metavar="K",
                   help="run only the first K pending shards and "
                        "exit (deterministic interruption, for "
                        "tests and CI smoke)")
    p.add_argument("--audit", action="store_true",
                   help="issue a signed sanitization certificate "
                        "per device and fold fleet exposure/"
                        "coverage gauges into the report")
    p.add_argument("--trace-out", default=None, metavar="DIR",
                   help="export per-device JSONL streams plus one "
                        "merged Chrome trace into DIR")


def _check_flags(p: argparse.ArgumentParser) -> None:
    _attach(p, *SCALE, "--variants", "--interval", interval=1)
    p.add_argument("--workloads", nargs="*", default=["Mobile"],
                   help="workload traces to replay (default: Mobile)")


def _profile_flags(p: argparse.ArgumentParser) -> None:
    p.description = ("Profile any repro command, e.g. "
                     "`repro profile -- simulate --blocks 8 --wordlines 4`.")
    p.add_argument("--sort", default="cumulative",
                   help="pstats sort key (cumulative, tottime, "
                        "ncalls, ...)")
    p.add_argument("--limit", type=int, default=25,
                   help="rows of the pstats report to print")
    p.add_argument("cmd", nargs=argparse.REMAINDER,
                   help="the repro command line to profile "
                        "(prefix with -- to pass options)")


#: subcommand -> (one-line help, flag declarations); every other
#: command is a figure/table regenerator taking the default scale
SUBCOMMANDS = {
    "audit": ("sanitization audit: trace or live run -> certificate",
              _audit_flags),
    "lint": ("static domain lint (11 per-file SIM rules)", _lint_flags),
    "torture": ("fault-injection robustness sweep + scorecard",
                _torture_flags),
    "age": ("device-aging lifetime campaign (wear to first block death)",
            _age_flags),
    "simulate": ("closed-loop tail-latency study (discrete-event engine)",
                 _simulate_flags),
    "trace": ("traced simulation -> Perfetto/Chrome trace file",
              _trace_flags),
    "fleet": ("fleet-scale multi-device multi-tenant campaign",
              _fleet_flags),
    "check": ("run workloads under the runtime invariant sanitizer",
              _check_flags),
    "profile": ("run another repro command under cProfile", _profile_flags),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the Evanesco reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name in sorted(COMMANDS):
        help_text, declare = SUBCOMMANDS.get(
            name, (f"reproduce {name}", lambda p: _attach(p, *SCALE))
        )
        declare(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
    except CommandExit as exc:
        print(exc.message)
        return exc.code
    return int(result or 0)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
