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

Three commands drive the closed-loop discrete-event engine (repro.sim)::

    python -m repro simulate               # tail-latency study under queueing
    python -m repro bench                  # engine benchmark -> BENCH_sim.json
    python -m repro trace                  # traced run -> Perfetto/Chrome trace

``simulate`` and ``torture`` also take ``--trace-out PATH`` to record
the run's structured event trace as a Chrome-trace-event file, and
``--cert-out PATH`` to issue a signed sanitization certificate
(``repro audit`` verifies archived traces and certificates offline;
``fleet --audit`` certifies every device in a campaign).  ``bench``,
``torture``, and ``fleet`` take ``--progress`` to stream live
shard-completion/backlog/ETA lines to stderr without touching any
artifact.

``simulate --checkpoint-every N --checkpoint-dir DIR`` writes a
crash-consistent device checkpoint every N requests; an interrupted
run continues with ``--resume`` and finishes byte-identical to an
uninterrupted one (corrupt checkpoints are quarantined and the run
falls back to the previous good generation).  ``bench --resume DIR``
and ``torture --resume DIR`` cache completed grid shards so a killed
sweep resumes instead of recomputing.

Four maintenance commands ship with the simulator itself::

    python -m repro lint                   # static domain lint (SIM01-SIM16)
    python -m repro check                  # runtime invariant sanitizer run
    python -m repro torture                # fault-injection robustness sweep
    python -m repro profile -- bench ...   # cProfile any repro command

``bench`` and ``torture`` take ``--jobs N`` to fan their experiment
grids over worker processes (the merged artifact stays byte-identical
to a serial run); ``bench --compare BASELINE.json`` gates simulated
metrics (IOPS, p99) against a committed baseline.
"""

from __future__ import annotations

import argparse

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


def _config(args: argparse.Namespace):
    # endurance/wear knobs exist only on the commands that expose them;
    # getattr defaults keep every other command on the fresh-forever
    # device its committed artifacts were produced with
    return scaled_config(
        blocks_per_chip=args.blocks,
        wordlines_per_block=args.wordlines,
        pe_limit=getattr(args, "pe_limit", None),
        wear_coupling=getattr(args, "wear_coupling", False),
        wear_leveling_threshold=getattr(args, "wear_leveling", None),
        wear_aware_allocation=getattr(args, "wear_alloc", False),
    )


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
    import json
    from pathlib import Path

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
        runs = run_traced_study(
            _config(args),
            args.workload,
            (args.variant,),
            seed=args.seed,
            write_multiplier=args.multiplier,
            capacity=AUDIT_CAPACITY,
        )
        run = runs[args.variant]
        audited = audit_sim_result(
            run.sim, run.telemetry, _config(args), seed=args.seed
        )
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
    import json

    from repro.analysis.latency import (
        format_tail_latency,
        policy_for_variant,
        run_tail_latency_study,
    )
    from repro.ftl import FTL_VARIANTS
    from repro.sim.arrivals import BurstyArrivals, ClosedLoopArrivals, PoissonArrivals
    from repro.sim.policies import POLICIES, policy_by_name

    variants = tuple(args.variants or ("baseline", "erSSD", "scrSSD", "secSSD"))
    unknown = [v for v in variants if v not in FTL_VARIANTS]
    if unknown:
        print(f"unknown variant(s) {unknown}; choose from {sorted(FTL_VARIANTS)}")
        return 2
    if args.policy != "auto" and args.policy not in POLICIES:
        print(f"unknown policy {args.policy!r}; choose from "
              f"{['auto', *sorted(POLICIES)]}")
        return 2
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
    if checkpointing and not args.checkpoint_every:
        print("simulate: --checkpoint-every is required with --resume "
              "(it is part of the campaign's determinism contract)")
        return 2
    trace_sessions = {}
    results = {}
    for variant in variants:
        from repro.sim.runner import simulate_workload

        policy = (
            policy_for_variant(variant)
            if args.policy == "auto"
            else policy_by_name(args.policy)
        )
        telemetry = None
        if args.trace_out or args.cert_out:
            if args.cert_out:
                # audit-grade session: big ring, no sampling -- a lossy
                # stream would poison the ledger behind the certificate
                from repro.audit.run import audit_telemetry

                telemetry = audit_telemetry()
            else:
                from repro.telemetry import Telemetry

                telemetry = Telemetry()
            trace_sessions[variant] = telemetry
        if checkpointing:
            from pathlib import Path

            from repro.checkpoint import (
                CampaignMismatchError,
                CheckpointError,
                run_chunked_simulation,
            )

            try:
                result = run_chunked_simulation(
                    _config(args),
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
                )
            except CheckpointError as exc:
                print(exc.render())
                return 1
            except CampaignMismatchError as exc:
                print(f"simulate: {exc}")
                return 2
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
        else:
            results[variant] = simulate_workload(
                _config(args),
                args.workload,
                variant,
                seed=args.seed,
                write_multiplier=args.multiplier,
                policy=policy,
                arrivals=arrivals,
                checked=True if args.checked else None,
                check_interval=args.interval,
                telemetry=telemetry,
            )
    if results:
        print(format_tail_latency(results))
    if args.trace_out:
        from repro.audit.run import config_fingerprint
        from repro.telemetry.export import trace_header, write_chrome_trace

        config = _config(args)
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
        payload = {v: r.to_dict() for v, r in results.items()}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"full reports written to {args.json}")
    if args.cert_out:
        from pathlib import Path

        from repro.audit import audit_sim_result, certificate_text

        base = Path(args.cert_out)
        failed = 0
        for variant, result in results.items():
            audited = audit_sim_result(
                result, trace_sessions[variant], _config(args), seed=args.seed
            )
            path = (
                base
                if len(results) == 1
                else base.with_name(f"{base.stem}.{variant}{base.suffix}")
            )
            path.write_text(certificate_text(audited.certificate))
            status = "ok" if audited.ok else "AUDIT FAILED"
            print(f"certificate written to {path} ({status})")
            failed += 0 if audited.ok else 1
        if failed:
            return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark the event engine and emit BENCH_sim.json."""
    import json

    from repro.analysis.bench_engine import (
        compare_bench_detailed,
        format_bench,
        format_compare,
        run_bench,
        write_bench_json,
    )
    from repro.ftl import FTL_VARIANTS

    variants = tuple(args.variants or ("baseline", "secSSD"))
    unknown = [v for v in variants if v not in FTL_VARIANTS]
    if unknown:
        print(f"unknown variant(s) {unknown}; choose from {sorted(FTL_VARIANTS)}")
        return 2
    # load the baseline before anything is written: CI gates and
    # refreshes the same path (--compare BENCH_sim.json --out
    # BENCH_sim.json), which must not compare the run against itself
    baseline = None
    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
    progress = None
    if args.progress:
        from repro.analysis.progress import ProgressReporter

        progress = ProgressReporter("bench")
    payload = run_bench(
        _config(args),
        workload=args.workload,
        variants=variants,
        queue_depth=args.qd,
        policy=args.policy,
        seed=args.seed,
        write_multiplier=args.multiplier,
        repeats=args.repeats,
        jobs=args.jobs,
        resume_dir=args.resume,
        progress=progress,
    )
    print(format_bench(payload))
    if payload.get("cached_shards") or payload.get("retried_shards"):
        print(
            f"grid shards: {payload.get('cached_shards', 0)} cached, "
            f"{payload.get('retried_shards', 0)} retried"
        )
    target = write_bench_json(payload, args.out)
    print(f"benchmark artifact written to {target}")
    if baseline is not None:
        diff = compare_bench_detailed(
            payload, baseline, tolerance=args.tolerance
        )
        print(f"vs {args.compare}:")
        print(format_compare(diff, verbose=args.verbose_compare))
        if diff["regressed"]:
            return 1
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet-scale campaign: many devices, many tenants, one report."""
    import json

    from repro.fleet import FleetConfig, format_fleet, run_fleet
    from repro.ftl import FTL_VARIANTS

    variants = tuple(
        args.variants or ("baseline", "erSSD", "scrSSD", "secSSD")
    )
    unknown = [v for v in variants if v not in FTL_VARIANTS]
    if unknown:
        print(f"unknown variant(s) {unknown}; choose from {sorted(FTL_VARIANTS)}")
        return 2
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
    progress = None
    if args.progress:
        from repro.analysis.progress import ProgressReporter

        progress = ProgressReporter("fleet")
    run = run_fleet(
        cfg,
        jobs=args.jobs,
        resume_dir=args.resume,
        stop_after_shards=args.stop_after_shards,
        audit=args.audit,
        trace_dir=args.trace_out,
        progress=progress,
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
        # the JSON artifact holds only the merged report: byte-identical
        # for serial, parallel, and resumed runs of the same config
        with open(args.json, "w") as fh:
            json.dump(run.report, fh, sort_keys=True, indent=2)
            fh.write("\n")
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
              "`repro profile -- bench --repeats 1`")
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
    """Static domain lint (SIM01-SIM16) over the simulator sources."""
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
    from repro.ftl import FTL_VARIANTS
    from repro.sim.arrivals import ClosedLoopArrivals
    from repro.sim.policies import POLICIES

    variants = tuple(args.variants or ("secSSD",))
    unknown = [v for v in variants if v not in FTL_VARIANTS]
    if unknown:
        print(f"unknown variant(s) {unknown}; choose from {sorted(FTL_VARIANTS)}")
        return 2
    if args.policy != "auto" and args.policy not in POLICIES:
        print(f"unknown policy {args.policy!r}; choose from "
              f"{['auto', *sorted(POLICIES)]}")
        return 2
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
    )
    from repro.ftl import FTL_VARIANTS

    variants = tuple(args.variants or TORTURE_VARIANTS)
    unknown = [v for v in variants if v not in FTL_VARIANTS]
    if unknown:
        print(f"unknown variant(s) {unknown}; choose from {sorted(FTL_VARIANTS)}")
        return 2
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
    progress = None
    if args.progress:
        from repro.analysis.progress import ProgressReporter

        progress = ProgressReporter("torture")
    card = run_torture(
        _config(args),
        variants=variants,
        seed=args.seed,
        n_requests=args.ops,
        rates=tuple(args.rates),
        window_start=args.window_start,
        window=args.window,
        jobs=args.jobs,
        checkpoint_modes=modes,
        resume_dir=args.resume,
        progress=progress,
    )
    print(card.to_json() if args.json else card.format())
    if args.trace_out:
        from repro.analysis.torture import run_rate_case
        from repro.faults import FaultKind, FaultPlan
        from repro.telemetry import Telemetry
        from repro.telemetry.export import write_chrome_trace

        # one representative faulted replay per variant, traced: the
        # highest configured rate maximizes fault instants in the view
        rate = max(args.rates) if args.rates else 1e-2
        streams = {}
        for variant in variants:
            telemetry = Telemetry()
            run_rate_case(
                _config(args),
                variant,
                FaultPlan.single(FaultKind.PROGRAM_FAIL, rate, seed=args.seed),
                FaultKind.PROGRAM_FAIL.value,
                f"rate={rate:g}",
                args.ops,
                args.seed,
                telemetry=telemetry,
            )
            streams[variant] = telemetry.bus.events
        write_chrome_trace(args.trace_out, streams)
        print(f"trace written to {args.trace_out}")
    if args.cert_out:
        from pathlib import Path

        from repro.analysis.torture import traced_rate_case
        from repro.audit import (
            audit_live_run,
            audit_telemetry,
            certificate_text,
        )
        from repro.faults import FaultKind, FaultPlan

        # one representative faulted replay per variant, audited: the
        # certificate's forensic pass proves no sanitized page survived
        # readable on the raw chips even with faults firing
        rate = max(args.rates) if args.rates else 1e-2
        base = Path(args.cert_out)
        failed = 0
        for variant in variants:
            telemetry = audit_telemetry()
            _, ssd = traced_rate_case(
                _config(args),
                variant,
                FaultPlan.single(FaultKind.PROGRAM_FAIL, rate, seed=args.seed),
                FaultKind.PROGRAM_FAIL.value,
                f"rate={rate:g}",
                args.ops,
                args.seed,
                telemetry=telemetry,
            )
            audited = audit_live_run(
                telemetry,
                _config(args),
                workload="torture",
                variant=variant,
                ssd=ssd,
                seed=args.seed,
            )
            path = (
                base
                if len(variants) == 1
                else base.with_name(f"{base.stem}.{variant}{base.suffix}")
            )
            path.write_text(certificate_text(audited.certificate))
            status = "ok" if audited.ok else "AUDIT FAILED"
            print(f"certificate written to {path} ({status})")
            failed += 0 if audited.ok else 1
        if failed:
            return 1
    return 0 if card.passed else 1


def cmd_age(args: argparse.Namespace) -> int:
    """Device-aging lifetime campaign: wear each variant to first death."""
    import json

    from repro.analysis.aging import (
        AGING_VARIANTS,
        format_lifetime,
        run_aging_campaign,
    )
    from repro.analysis.parallel import GridTaskError
    from repro.checkpoint import CampaignMismatchError, CheckpointError
    from repro.ftl import FTL_VARIANTS
    from repro.ftl.allocator import OutOfBlocksError
    from repro.telemetry import Telemetry

    variants = tuple(args.variants or AGING_VARIANTS)
    unknown = [v for v in variants if v not in FTL_VARIANTS]
    if unknown:
        print(f"unknown variant(s) {unknown}; choose from {sorted(FTL_VARIANTS)}")
        return 2
    progress = None
    if args.progress:
        from repro.analysis.progress import ProgressReporter

        progress = ProgressReporter("age")
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

    try:
        payload = run_aging_campaign(
            _config(args),
            args.workload,
            args.dir,
            args.checkpoint_every,
            variants=variants,
            seed=args.seed,
            write_multiplier=args.multiplier,
            checked=True if args.checked else None,
            jobs=args.jobs,
            stop_after=args.stop_after,
            progress=progress,
            telemetry=telemetry,
        )
    except OutOfBlocksError as exc:
        return _died(exc)
    except GridTaskError as exc:
        # jobs > 1: worker exceptions arrive wrapped with the cell name
        if isinstance(exc.__cause__, OutOfBlocksError):
            return _died(exc.__cause__)
        raise
    except CheckpointError as exc:
        print(exc.render())
        return 1
    except CampaignMismatchError as exc:
        print(f"age: {exc}")
        return 2
    if payload.get("paused"):
        print(
            f"age: stopped after {args.stop_after} checkpoint(s) per "
            f"variant in {args.dir}; re-run the same command to continue"
        )
        return 0
    print(format_lifetime(payload))
    if payload.get("cached_shards") or payload.get("retried_shards"):
        print(
            f"grid shards: {payload.get('cached_shards', 0)} cached, "
            f"{payload.get('retried_shards', 0)} retried"
        )
    if args.json:
        from pathlib import Path

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

    variants = args.variants or sorted(FTL_VARIANTS)
    unknown = [v for v in variants if v not in FTL_VARIANTS]
    if unknown:
        print(f"unknown variant(s) {unknown}; choose from {sorted(FTL_VARIANTS)}")
        return 2
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
    "bench": cmd_bench,
    "fleet": cmd_fleet,
    "profile": cmd_profile,
    "trace": cmd_trace,
    "lint": cmd_lint,
    "check": cmd_check,
    "torture": cmd_torture,
    "age": cmd_age,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the Evanesco reproduction.",
    )
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--blocks", type=int, default=20,
                       help="blocks per chip (device scale)")
    scale.add_argument("--wordlines", type=int, default=16,
                       help="wordlines per block (device scale)")
    scale.add_argument("--seed", type=int, default=1)
    scale.add_argument("--multiplier", type=float, default=1.0,
                       help="steady-state writes as a multiple of capacity")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name in sorted(COMMANDS):
        if name == "audit":
            p = sub.add_parser(
                name, parents=[scale],
                help="sanitization audit: trace or live run -> certificate",
            )
            p.add_argument("trace", nargs="?", default=None,
                           help="archived JSONL trace to audit (omit to "
                                "run and audit a live workload instead)")
            p.add_argument("--workload", default="MailServer",
                           help="live-run mode: workload trace to simulate")
            p.add_argument("--variant", default="secSSD",
                           help="live-run mode: FTL variant to audit")
            p.add_argument("--cert", default=None, metavar="CERT",
                           help="verify the trace against this previously "
                                "issued certificate instead of issuing one")
            p.add_argument("--cert-out", default=None, metavar="PATH",
                           help="write the signed sanitization certificate")
            p.add_argument("--pages-per-block", type=int, default=None,
                           help="device geometry for headerless traces")
        elif name == "lint":
            p = sub.add_parser(
                name, help="static domain lint (rules SIM01-SIM16)"
            )
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
        elif name == "torture":
            p = sub.add_parser(
                name,
                help="fault-injection robustness sweep + scorecard",
            )
            # own scale options (not the shared parent: different
            # defaults, and set_defaults on shared actions would leak
            # into every other subcommand): a small device so the
            # request stream actually reaches GC/lazy-erase activity
            p.add_argument("--blocks", type=int, default=12,
                           help="blocks per chip (device scale)")
            p.add_argument("--wordlines", type=int, default=4,
                           help="wordlines per block (device scale)")
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--variants", nargs="*", default=None,
                           help="FTL variants to torture (default: all)")
            # 700 requests overwrite the default 12x4 device's capacity,
            # so the rate sweep reaches GC and lazy-erase activity
            p.add_argument("--ops", type=int, default=700,
                           help="host requests per torture case")
            p.add_argument("--pe-limit", type=int, default=None,
                           help="block P/E endurance; worn-out blocks are "
                                "scrub-retired as grown-bad (default: "
                                "unlimited)")
            p.add_argument("--rates", nargs="*", type=float,
                           default=[1e-3, 1e-2],
                           help="per-op fault probabilities for the sweep")
            p.add_argument("--window", type=int, default=200,
                           help="power-loss boundaries to sweep per variant")
            p.add_argument("--window-start", type=int, default=0,
                           help="first op index of the power-loss window")
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the case grid "
                                "(scorecard is identical for any count)")
            p.add_argument("--checkpoint-modes", nargs="*", default=None,
                           metavar="MODE",
                           help="checkpoint-corruption cases to include "
                                "(powercut bitflip truncate; default all; "
                                "pass no MODE to disable)")
            p.add_argument("--resume", default=None, metavar="DIR",
                           help="persist completed cases to DIR and "
                                "resume a killed sweep from there")
            p.add_argument("--json", action="store_true",
                           help="emit the machine-readable scorecard")
            p.add_argument("--trace-out", default=None, metavar="PATH",
                           help="record one traced faulted replay per "
                                "variant as a Chrome trace")
            p.add_argument("--cert-out", default=None, metavar="PATH",
                           help="audit one faulted replay per variant and "
                                "write signed sanitization certificates")
            p.add_argument("--progress", action="store_true",
                           help="stream shard-completion/ETA lines to "
                                "stderr (artifacts unchanged)")
        elif name == "age":
            p = sub.add_parser(
                name,
                help="device-aging lifetime campaign (wear to first "
                     "block death)",
            )
            # own scale options (not the shared parent: different
            # defaults): a device big enough that wear spread develops
            # before the horizon ends, at the calibrated P/E budget
            p.add_argument("--blocks", type=int, default=16,
                           help="blocks per chip (device scale)")
            p.add_argument("--wordlines", type=int, default=8,
                           help="wordlines per block (device scale)")
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--multiplier", type=float, default=1.0,
                           help="steady-state writes as a multiple of "
                                "capacity")
            p.add_argument("--workload", default="MailServer",
                           help="workload trace to replay until wear-out")
            p.add_argument("--variants", nargs="*", default=None,
                           help="FTL variants (default: the Figure-14 "
                                "four)")
            p.add_argument("--pe-limit", type=int, default=25,
                           help="block P/E endurance; erases beyond it "
                                "raise WearOutError and retire the block")
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
            p.add_argument("--checkpoint-every", type=int, default=50,
                           metavar="N",
                           help="requests per checkpoint window; also the "
                                "first-wearout stop granularity, so keep "
                                "it small enough that retirement cannot "
                                "spiral into pool exhaustion mid-window")
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the variant grid "
                                "(the report is identical for any count)")
            p.add_argument("--stop-after", type=int, default=None,
                           metavar="K",
                           help="pause each variant after K new "
                                "checkpoints (deterministic interruption, "
                                "for tests and CI smoke)")
            p.add_argument("--checked", action="store_true",
                           help="attach the runtime invariant sanitizer")
            p.add_argument("--json", default=None, metavar="PATH",
                           help="write the lifetime report plus wear "
                                "gauges as JSON")
            p.add_argument("--progress", action="store_true",
                           help="stream shard-completion/ETA lines to "
                                "stderr (artifacts unchanged)")
        elif name == "simulate":
            p = sub.add_parser(
                name, parents=[scale],
                help="closed-loop tail-latency study (discrete-event engine)",
            )
            p.add_argument("--workload", default="MailServer",
                           help="workload trace to simulate")
            p.add_argument("--variants", nargs="*", default=None,
                           help="FTL variants (default: the Figure-14 four)")
            p.add_argument("--policy", default="auto",
                           help="scheduling policy, or 'auto' for each "
                                "variant's honest best")
            p.add_argument("--qd", type=int, default=32,
                           help="closed-loop queue depth")
            p.add_argument("--rate", type=float, default=None,
                           help="open Poisson arrivals at this IOPS "
                                "instead of a closed loop")
            p.add_argument("--bursty", action="store_true",
                           help="with --rate: bursty ON/OFF arrivals")
            p.add_argument("--checked", action="store_true",
                           help="attach the runtime invariant sanitizer")
            p.add_argument("--interval", type=int, default=50,
                           help="host batches between full sanitizer checks")
            p.add_argument("--pe-limit", type=int, default=None,
                           help="block P/E endurance; worn-out blocks are "
                                "scrub-retired as grown-bad (default: "
                                "unlimited)")
            p.add_argument("--json", default=None, metavar="PATH",
                           help="also write full reports as JSON")
            p.add_argument("--trace-out", default=None, metavar="PATH",
                           help="record each variant's event trace into "
                                "one Chrome-trace-event file")
            p.add_argument("--cert-out", default=None, metavar="PATH",
                           help="audit each variant's run (device probe "
                                "included) and write signed sanitization "
                                "certificates")
            p.add_argument("--checkpoint-every", type=int, default=None,
                           metavar="N",
                           help="write a crash-consistent device "
                                "checkpoint every N requests")
            p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                           help="campaign directory (one subdirectory "
                                "per variant)")
            p.add_argument("--resume", action="store_true",
                           help="resume an interrupted campaign from "
                                "--checkpoint-dir (byte-identical to an "
                                "uninterrupted run)")
            p.add_argument("--stop-after", type=int, default=None,
                           metavar="K",
                           help="exit after writing K checkpoints "
                                "(deterministic interruption, for tests "
                                "and CI smoke)")
        elif name == "trace":
            p = sub.add_parser(
                name, parents=[scale],
                help="traced simulation -> Perfetto/Chrome trace file",
            )
            p.add_argument("--workload", default="MailServer",
                           help="workload trace to simulate")
            p.add_argument("--variants", nargs="*", default=None,
                           help="FTL variants to trace (default: secSSD)")
            p.add_argument("--policy", default="auto",
                           help="scheduling policy, or 'auto' for each "
                                "variant's honest best")
            p.add_argument("--qd", type=int, default=32,
                           help="closed-loop queue depth")
            p.add_argument("--out", default="trace.json",
                           help="Chrome-trace-event output path")
            p.add_argument("--jsonl", default=None, metavar="PATH",
                           help="also write the raw event stream as "
                                "JSON lines (one file per variant)")
            p.add_argument("--capacity", type=int, default=65536,
                           help="trace ring-buffer capacity in events "
                                "(oldest dropped beyond it)")
            p.add_argument("--sample", nargs="*", default=None,
                           metavar="CAT=N",
                           help="keep every Nth event of a category, "
                                "e.g. ftl.page=8 sim.service=4")
        elif name == "bench":
            p = sub.add_parser(
                name, parents=[scale],
                help="engine throughput benchmark -> BENCH_sim.json",
            )
            p.add_argument("--workload", default="Mobile",
                           help="workload trace to benchmark")
            p.add_argument("--variants", nargs="*", default=None,
                           help="FTL variants (default: baseline secSSD)")
            p.add_argument("--policy", default="fifo",
                           help="scheduling policy for the timed runs")
            p.add_argument("--qd", type=int, default=32,
                           help="closed-loop queue depth")
            p.add_argument("--repeats", type=int, default=3,
                           help="timed repeats per variant (best kept)")
            p.add_argument("--pe-limit", type=int, default=None,
                           help="block P/E endurance; worn-out blocks are "
                                "scrub-retired as grown-bad (default: "
                                "unlimited)")
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the variant x repeat "
                                "grid (simulated metrics are identical for "
                                "any count)")
            p.add_argument("--out", default="BENCH_sim.json",
                           help="artifact path")
            p.add_argument("--compare", default=None, metavar="BASELINE",
                           help="fail (exit 1) if simulated metrics regress "
                                "vs this committed baseline artifact")
            p.add_argument("--tolerance", type=float, default=0.05,
                           help="allowed fractional slack for --compare "
                                "(default 0.05 = 5%%)")
            p.add_argument("--verbose-compare", action="store_true",
                           help="print every --compare metric row, not "
                                "just the verdict and regressions")
            p.add_argument("--resume", default=None, metavar="DIR",
                           help="persist completed grid shards to DIR and "
                                "resume a killed benchmark from there")
            p.add_argument("--progress", action="store_true",
                           help="stream shard-completion/ETA lines to "
                                "stderr (artifacts unchanged)")
        elif name == "fleet":
            # own scale options (not the shared parent): fleet devices
            # are deliberately tiny so hundreds fit in one campaign
            p = sub.add_parser(
                name,
                help="fleet-scale multi-device multi-tenant campaign",
            )
            p.add_argument("--devices", type=int, default=16,
                           help="devices in the fleet")
            p.add_argument("--tenants", type=int, default=2000,
                           help="tenants across the fleet")
            p.add_argument("--variants", nargs="*", default=None,
                           help="FTL variants (default: the Figure-14 four)")
            p.add_argument("--workload", default="MailServer",
                           help="base workload profile tenants inherit")
            p.add_argument("--storm", default="none",
                           choices=("none", "deletion", "churn"),
                           help="scripted fleet-wide storm kind")
            p.add_argument("--storms", type=int, default=1,
                           help="storm events per campaign")
            p.add_argument("--storm-fraction", type=float, default=0.25,
                           help="fraction of tenants each storm hits")
            p.add_argument("--zipf", type=float, default=1.1,
                           help="Zipf exponent of tenant traffic weights")
            p.add_argument("--spread", type=int, default=1,
                           help="candidate devices per tenant placement")
            p.add_argument("--blocks", type=int, default=8,
                           help="blocks per chip (per-device scale)")
            p.add_argument("--wordlines", type=int, default=4,
                           help="wordlines per block (per-device scale)")
            p.add_argument("--multiplier", type=float, default=0.6,
                           help="per-device steady writes as a multiple "
                                "of capacity (scaled by traffic share)")
            p.add_argument("--qd", type=int, default=16,
                           help="closed-loop queue depth per device")
            p.add_argument("--shard", type=int, default=8,
                           help="devices per grid shard")
            p.add_argument("--seed", type=int, default=1,
                           help="master campaign seed")
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the shard grid "
                                "(the report is identical for any count)")
            p.add_argument("--resume", default=None, metavar="DIR",
                           help="persist completed shards to DIR and "
                                "resume a killed campaign from there")
            p.add_argument("--stop-after-shards", type=int, default=None,
                           metavar="K",
                           help="run only the first K pending shards and "
                                "exit (deterministic interruption, for "
                                "tests and CI smoke)")
            p.add_argument("--json", default=None, metavar="PATH",
                           help="write the merged fleet report as JSON "
                                "(byte-identical for any --jobs/resume)")
            p.add_argument("--audit", action="store_true",
                           help="issue a signed sanitization certificate "
                                "per device and fold fleet exposure/"
                                "coverage gauges into the report")
            p.add_argument("--trace-out", default=None, metavar="DIR",
                           help="export per-device JSONL streams plus one "
                                "merged Chrome trace into DIR")
            p.add_argument("--progress", action="store_true",
                           help="stream shard-completion/ETA lines to "
                                "stderr (artifacts unchanged)")
        elif name == "check":
            p = sub.add_parser(
                name, parents=[scale],
                help="run workloads under the runtime invariant sanitizer",
            )
            p.add_argument("--variants", nargs="*", default=None,
                           help="FTL variants to check (default: all)")
            p.add_argument("--workloads", nargs="*", default=["Mobile"],
                           help="workload traces to replay (default: Mobile)")
            p.add_argument("--interval", type=int, default=1,
                           help="host batches between full O(device) checks")
        elif name == "profile":
            p = sub.add_parser(
                name,
                help="run another repro command under cProfile",
                description="Profile any repro command, e.g. "
                            "`repro profile -- bench --repeats 1`.",
            )
            p.add_argument("--sort", default="cumulative",
                           help="pstats sort key (cumulative, tottime, "
                                "ncalls, ...)")
            p.add_argument("--limit", type=int, default=25,
                           help="rows of the pstats report to print")
            p.add_argument("cmd", nargs=argparse.REMAINDER,
                           help="the repro command line to profile "
                                "(prefix with -- to pass options)")
        else:
            sub.add_parser(name, parents=[scale],
                           help=f"reproduce {name}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    result = COMMANDS[args.command](args)
    return int(result or 0)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
