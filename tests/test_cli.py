"""Command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

# Every subcommand's flags and defaults, captured from the parser before
# cli.py was folded into shared flag groups.  Regenerate only for an
# intended CLI change:
#   python -c "import json, tests.test_cli as t; print(json.dumps(
#       t.parser_snapshot(), indent=1, sort_keys=True))" > tests/cli_parser_snapshot.json
PARSER_SNAPSHOT = Path(__file__).with_name("cli_parser_snapshot.json")


def parser_snapshot() -> dict:
    """Option strings, dest, nargs/const/choices/metavar and the parsed
    defaults of every subcommand, as JSON-comparable data.

    ``type`` is left out on purpose: the count flags take a positive-int
    type that rejects 0 at parse time (see ``test_bad_argv_exits_two``).
    """
    parser = build_parser()
    (subparsers,) = (
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    snapshot = {}
    for name, sub in sorted(subparsers.choices.items()):
        actions = sorted(
            (
                {
                    "option_strings": list(a.option_strings),
                    "dest": a.dest,
                    "action": type(a).__name__,
                    "nargs": a.nargs,
                    "const": a.const,
                    "choices": None if a.choices is None else list(a.choices),
                    "metavar": a.metavar,
                    "required": a.required,
                }
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
            ),
            key=lambda entry: (entry["option_strings"], entry["dest"]),
        )
        defaults = vars(parser.parse_args([name]))
        snapshot[name] = {"actions": actions, "defaults": defaults}
    return json.loads(json.dumps(snapshot))


class TestParser:
    def test_matches_snapshot(self):
        assert parser_snapshot() == json.loads(PARSER_SNAPSHOT.read_text())

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in COMMANDS:
            args = parser.parse_args([command])
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["fig9"])
        assert args.blocks == 20
        assert args.seed == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(
            ["fig14", "--blocks", "10", "--wordlines", "8", "--seed", "9",
             "--multiplier", "0.5"]
        )
        assert (args.blocks, args.wordlines, args.seed) == (10, 8, 9)
        assert args.multiplier == 0.5

    def test_lint_options(self):
        args = build_parser().parse_args(["lint", "a.py", "b.py", "--no-hints"])
        assert args.command == "lint"
        assert args.paths == ["a.py", "b.py"]
        assert args.no_hints

    def test_check_options(self):
        args = build_parser().parse_args(
            ["check", "--variants", "secSSD", "--workloads", "Mobile",
             "--interval", "7", "--blocks", "8"]
        )
        assert args.command == "check"
        assert args.variants == ["secSSD"]
        assert args.workloads == ["Mobile"]
        assert (args.interval, args.blocks) == (7, 8)


# malformed arguments: one usage line and exit 2, never a traceback
BAD_ARGV = [
    ["bench"],  # unknown subcommand: usage line, not a traceback
    ["simulate", "--qd", "0"],
    ["fleet", "--devices", "0"],
    ["fleet", "--tenants", "0"],
    ["fleet", "--shard", "0"],
    ["fleet", "--jobs", "0"],
    ["fleet", "--zipf", "nan"],
    ["fleet", "--zipf", "inf"],
    ["fleet", "--zipf", "0"],
    ["age", "--jobs", "0"],
    ["torture", "--jobs", "0"],
    ["simulate", "--pe-limit", "0"],
    ["age", "--checkpoint-every", "0"],
    ["simulate", "--blocks", "6"],
    ["simulate", "--checkpoint-every", "0", "--resume"],
    ["simulate", "--rate", "0"],
    ["simulate", "--rate", "nan"],
    ["simulate", "--rate", "-3", "--bursty"],
    ["torture", "--rates", "-0.5"],
    ["torture", "--rates", "1.5"],
    ["torture", "--rates", "nan"],
    ["simulate", "--multiplier", "nan"],
    ["simulate", "--multiplier", "inf"],
    ["simulate", "--multiplier", "-1"],
    ["trace", "--multiplier", "-2"],
    ["audit", "--multiplier", "-1"],
    ["simulate", "--checkpoint-every", "500", "--checkpoint-dir", "ck",
     "--stop-after", "0"],
    ["age", "--stop-after", "0"],
    ["fleet", "--stop-after-shards", "0"],
    ["fleet", "--stop-after-shards", "-1"],
    ["simulate", "--stop-after", "1"],  # no --checkpoint-every: not ignored
    ["simulate", "--checkpoint-dir", "ck"],
    ["trace", "--capacity", "0"],
    ["trace", "--capacity", "-5"],
    ["trace", "--sample", "ftl.page=0"],
    ["trace", "--sample", "ftl.page=-2"],
    ["simulate", "--interval", "0"],
    ["simulate", "--interval", "-3"],
    ["check", "--interval", "0"],
    # the lint baseline mechanism is gone: its flags are unknown options
    ["lint", "--baseline", "x"],
    ["lint", "--no-baseline"],
    ["lint", "--write-baseline"],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_argv_exits_two(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err


class TestExecution:
    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "selected: (ii)" in out

    def test_fig12(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "selected: (ii)" in out
        assert "region-i" in out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        assert "longest open interval" in capsys.readouterr().out

    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "plock_vs_program" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "MLC" in out and "TLC" in out

    def test_fig14_small(self, capsys):
        code = main(
            ["fig14", "--blocks", "10", "--wordlines", "4", "--multiplier", "0.3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "secSSD" in out and "erSSD" in out

    def test_table1_small(self, capsys):
        code = main(
            ["table1", "--blocks", "10", "--wordlines", "4", "--multiplier", "0.5"]
        )
        assert code == 0
        assert "DBServer" in capsys.readouterr().out

    def test_lint_shipped_tree_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_flags_violations_with_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "flash" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(x):\n    return x == 1.0\n", encoding="utf-8")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SIM04" in out and "bad.py:2" in out

    def test_check_small(self, capsys):
        code = main(
            ["check", "--blocks", "8", "--wordlines", "4",
             "--multiplier", "0.2", "--interval", "11",
             "--variants", "secSSD", "--workloads", "Mobile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok   secSSD/Mobile" in out and "clean" in out

    def test_check_unknown_variant_rejected(self, capsys):
        assert main(["check", "--variants", "nopeSSD"]) == 2
        assert "unknown variant" in capsys.readouterr().out

    def test_lint_missing_path_clean_error(self, capsys):
        assert main(["lint", "/definitely/not/there.py"]) == 2
        assert "not a python file or directory" in capsys.readouterr().out

    def test_torture_options_and_defaults(self):
        args = build_parser().parse_args(
            ["torture", "--variants", "secSSD", "--rates", "0.01",
             "--window", "5", "--ops", "40", "--json"]
        )
        assert args.command == "torture"
        assert (args.blocks, args.wordlines) == (12, 4)  # own small scale
        assert args.rates == [0.01]
        assert args.json
        # the torture defaults must not leak into the shared scale parent
        assert build_parser().parse_args(["fig14"]).blocks == 20

    def test_torture_small(self, capsys):
        code = main(
            ["torture", "--blocks", "8", "--wordlines", "4", "--ops", "40",
             "--rates", "0.01", "--window", "2", "--variants", "baseline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "torture: PASS" in out

    def test_torture_unknown_variant_rejected(self, capsys):
        assert main(["torture", "--variants", "nopeSSD"]) == 2
        assert "unknown variant" in capsys.readouterr().out


class TestAgeCommand:
    def test_campaign_mismatch_is_usage_error(self, tmp_path, capsys):
        age = ["age", "--wordlines", "4", "--pe-limit", "8",
               "--multiplier", "2.0", "--variants", "secSSD",
               "--dir", str(tmp_path / "ck")]
        assert main(age + ["--checkpoint-every", "10", "--stop-after", "1"]) == 0
        capsys.readouterr()
        # the grid worker's CampaignMismatchError is unwrapped and
        # reported like simulate's: one line, exit 2
        assert main(age + ["--checkpoint-every", "20"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("age: campaign parameters do not match")
        assert out.count("\n") == 1


class TestSimulateCommand:
    def test_options_and_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.workload == "MailServer"
        assert args.policy == "auto"
        assert args.qd == 32
        assert args.rate is None
        args = build_parser().parse_args(
            ["simulate", "--workload", "Mobile", "--variants", "secSSD",
             "--policy", "defer", "--qd", "8", "--rate", "5000", "--bursty"]
        )
        assert args.variants == ["secSSD"]
        assert (args.policy, args.qd) == ("defer", 8)
        assert args.rate == 5000.0 and args.bursty

    def test_simulate_small(self, tmp_path, capsys):
        out_path = tmp_path / "sim.json"
        code = main(
            ["simulate", "--workload", "Mobile",
             "--variants", "baseline", "secSSD",
             "--blocks", "8", "--wordlines", "4", "--multiplier", "0.5",
             "--qd", "8", "--json", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Host-read latency under closed-loop queueing" in out
        assert "baseline" in out and "secSSD" in out
        import json

        payload = json.loads(out_path.read_text())
        assert set(payload) == {"baseline", "secSSD"}
        assert payload["secSSD"]["policy"]["name"] == "defer"

    def test_resumed_er_ssd_json_report_is_byte_identical(
        self, tmp_path, capsys
    ):
        # erSSD's backlog series is the longest the engine keeps, so this
        # byte-checks that restored typed columns report like live ones
        sim = ["simulate", "--variants", "erSSD", "--blocks", "8",
               "--wordlines", "4", "--multiplier", "0.5", "--qd", "8",
               "--checkpoint-every", "200"]
        killed = sim + ["--checkpoint-dir", str(tmp_path / "ck")]
        assert main(killed + ["--stop-after", "1"]) == 0
        resumed = tmp_path / "resumed.json"
        assert main(killed + ["--resume", "--json", str(resumed)]) == 0
        straight = tmp_path / "straight.json"
        assert main(sim + ["--checkpoint-dir", str(tmp_path / "ck2"),
                           "--json", str(straight)]) == 0
        capsys.readouterr()
        assert resumed.read_bytes() == straight.read_bytes()

    def test_resume_under_another_telemetry_ring_is_usage_error(
        self, tmp_path, capsys
    ):
        # --trace-out records into a 65,536-event ring, --cert-out into
        # the audit ring: a campaign started with one cannot resume
        # under the other
        sim = ["simulate", "--variants", "secSSD", "--blocks", "8",
               "--wordlines", "4", "--multiplier", "0.5", "--qd", "8",
               "--checkpoint-every", "200",
               "--checkpoint-dir", str(tmp_path / "ck")]
        trace = ["--trace-out", str(tmp_path / "t.json")]
        assert main(sim + trace + ["--stop-after", "1"]) == 0
        capsys.readouterr()
        cert = ["--cert-out", str(tmp_path / "c.json"), "--resume"]
        assert main(sim + cert) == 2
        out = capsys.readouterr().out
        assert out.startswith("simulate: campaign parameters do not match")
        assert "telemetry" in out
        assert out.count("\n") == 1

    def test_unknown_variant_rejected(self, capsys):
        assert main(["simulate", "--variants", "ghostSSD"]) == 2
        assert "unknown variant" in capsys.readouterr().out

    def test_unknown_policy_rejected(self, capsys):
        assert main(["simulate", "--policy", "lifo"]) == 2
        assert "unknown policy" in capsys.readouterr().out


class TestFleetCommand:
    SMALL = ["fleet", "--devices", "2", "--tenants", "60", "--shard", "2",
             "--variants", "secSSD", "--storm", "deletion"]

    def test_options_and_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.command == "fleet"
        assert args.devices == 16
        assert args.tenants == 2000
        assert args.storm == "none"
        assert args.jobs == 1
        assert args.resume is None
        assert args.stop_after_shards is None

    def test_fleet_small_with_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "fleet.json"
        assert main(self.SMALL + ["--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "fleet: 2 devices" in printed
        assert "secSSD" in printed
        payload = json.loads(out.read_text())
        assert payload["config"]["devices"] == 2
        assert "secSSD" in payload["variants"]

    def test_fleet_unknown_variant_rejected(self, capsys):
        assert main(["fleet", "--variants", "ghostSSD"]) == 2
        assert "unknown variant" in capsys.readouterr().out

    def test_fleet_bad_config_is_usage_error(self, capsys):
        assert main(["fleet", "--workload", "NoSuchWorkload"]) == 2
        out = capsys.readouterr().out
        assert out == "fleet: unknown base workload 'NoSuchWorkload'\n"

    def test_fleet_unknown_storm_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--storm", "hurricane"])

    def test_fleet_stop_and_resume(self, tmp_path, capsys):
        resume = tmp_path / "campaign"
        cmd = self.SMALL + ["--resume", str(resume)]
        assert main(cmd + ["--stop-after-shards", "1"]) == 0
        assert "stopped after 1 shard" in capsys.readouterr().out
        assert main(cmd) == 0
        assert "cached" in capsys.readouterr().out


class TestTraceCommand:
    def test_options_and_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.workload == "MailServer"
        assert args.policy == "auto"
        assert args.out == "trace.json"
        assert args.jsonl is None
        assert args.capacity == 65536
        assert args.sample is None
        args = build_parser().parse_args(
            ["trace", "--variants", "secSSD", "erSSD", "--out", "t.json",
             "--jsonl", "t.jsonl", "--capacity", "1024",
             "--sample", "ftl.page=8", "sim.service=4"]
        )
        assert args.variants == ["secSSD", "erSSD"]
        assert args.capacity == 1024
        assert args.sample == ["ftl.page=8", "sim.service=4"]

    def test_trace_small_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.telemetry.export import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        code = main(
            ["trace", "--blocks", "8", "--wordlines", "4",
             "--multiplier", "0.5", "--qd", "8",
             "--out", str(out_path), "--jsonl", str(jsonl_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Telemetry event streams" in out
        assert str(out_path) in out and str(jsonl_path) in out
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        # nested GC and lock-drain spans are present in the view
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"gc", "lock_batch", "lock_drain"} <= names
        assert jsonl_path.exists()

    def test_trace_sampling_thins_category(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        code = main(
            ["trace", "--blocks", "8", "--wordlines", "4",
             "--multiplier", "0.3", "--qd", "8",
             "--sample", "sim.service=1000", "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        services = [
            e for e in payload["traceEvents"] if e.get("cat") == "sim.service"
        ]
        assert 0 < len(services) < 50

    def test_unknown_variant_rejected(self, capsys):
        assert main(["trace", "--variants", "ghostSSD"]) == 2
        assert "unknown variant" in capsys.readouterr().out

    def test_unknown_policy_rejected(self, capsys):
        assert main(["trace", "--policy", "lifo"]) == 2
        assert "unknown policy" in capsys.readouterr().out

    def test_bad_sample_spec_rejected(self, capsys):
        assert main(["trace", "--sample", "nocategory"]) == 2
        assert "bad sample spec" in capsys.readouterr().out


class TestTraceOutFlags:
    def test_simulate_trace_out(self, tmp_path, capsys):
        import json

        from repro.telemetry.export import validate_chrome_trace

        out_path = tmp_path / "sim_trace.json"
        code = main(
            ["simulate", "--workload", "MailServer", "--variants", "secSSD",
             "--blocks", "8", "--wordlines", "4", "--multiplier", "0.5",
             "--qd", "8", "--trace-out", str(out_path)]
        )
        assert code == 0
        assert f"trace written to {out_path}" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"gc", "lock_batch", "lock_drain"} <= names

    def test_torture_trace_out(self, tmp_path, capsys):
        import json

        from repro.telemetry.export import validate_chrome_trace

        out_path = tmp_path / "tort_trace.json"
        code = main(
            ["torture", "--blocks", "8", "--wordlines", "4", "--ops", "60",
             "--rates", "0.01", "--window", "1", "--variants", "secSSD",
             "--trace-out", str(out_path)]
        )
        assert code == 0
        assert f"trace written to {out_path}" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert any(
            e.get("cat") == "fault" for e in payload["traceEvents"]
        )


class TestAuditCommand:
    def test_options_and_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.command == "audit"
        assert args.trace is None
        assert args.workload == "MailServer"
        assert args.variant == "secSSD"
        assert args.cert is None and args.cert_out is None
        assert args.pages_per_block is None

    def test_trace_mode_options(self):
        args = build_parser().parse_args(
            ["audit", "t.jsonl", "--cert", "c.json", "--pages-per-block", "4"]
        )
        assert args.trace == "t.jsonl"
        assert args.cert == "c.json"
        assert args.pages_per_block == 4

    @staticmethod
    def _archive(tmp_path):
        from repro.analysis.tracing import run_traced_study
        from repro.ssd import scaled_config
        from repro.telemetry.export import write_jsonl

        config = scaled_config(blocks_per_chip=8, wordlines_per_block=4)
        (run,) = run_traced_study(
            config, "MailServer", ("secSSD",), seed=3,
            write_multiplier=0.5, capacity=1 << 20,
        ).values()
        path = tmp_path / "secSSD.jsonl"
        write_jsonl(path, run.telemetry.bus.events, header=run.header())
        return path

    def test_live_run_audit_writes_certificate(self, tmp_path, capsys):
        import json

        cert_path = tmp_path / "cert.json"
        code = main(
            ["audit", "--blocks", "8", "--wordlines", "4",
             "--multiplier", "0.5", "--variant", "secSSD",
             "--cert-out", str(cert_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "device_probe=yes" in out
        cert = json.loads(cert_path.read_text())
        assert cert["format"] == "evanesco-cert/1"
        assert "signature" in cert

    def test_offline_audit_passes_then_fails_after_tamper(
        self, tmp_path, capsys
    ):
        import json

        path = self._archive(tmp_path)
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "device_probe=no" in out

        # delete one sanitize event (line 0 is the disclosure header)
        lines = path.read_text().splitlines()
        victim = next(
            i for i, line in enumerate(lines[1:], start=1)
            if json.loads(line).get("cat") == "ftl.sanitize"
        )
        del lines[victim]
        path.write_text("\n".join(lines) + "\n")
        assert main(["audit", str(path)]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "event-count-mismatch" in out

    def test_unreadable_trace_is_usage_error(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "missing.jsonl")]) == 2
        assert "audit:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (None, "No such file"),
            ("{not json", "not JSON"),
            ('{"format": "evanesco-cert/1", "key_id": "evanesco-repro-audit/1",'
             ' "sections": {}, "chain": [7]}', "chain link is not a JSON object"),
            ("[1, 2]", "certificate is not a JSON object"),
        ],
    )
    def test_malformed_cert_is_usage_error(
        self, tmp_path, capsys, content, message
    ):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        cert = tmp_path / "cert.json"
        if content is not None:
            cert.write_text(content)
        code = main(["audit", str(trace), "--cert", str(cert)])
        out = capsys.readouterr().out
        assert code == 2
        assert out.count("\n") == 1 and out.startswith("audit: ")
        assert message in out

    def test_unknown_variant_rejected(self, capsys):
        assert main(["audit", "--variant", "nope"]) == 2
        assert "unknown variant" in capsys.readouterr().out
