"""Self-tests of the perf benchmark.

Run from the repository root (outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads
from layers import LayerTracer
from repro.telemetry.export import validate_chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: every workload on an 8 x 4 device: the same code paths in seconds.
SMALL = {
    name: replace(
        w,
        blocks=8,
        wordlines=4,
        checkpoint_every=None if w.checkpoint_every is None else 300,
    )
    for name, w in workloads.WORKLOADS.items()
}


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_small_workloads_pass_the_oracles_quickly(tmp_path):
    start = time.monotonic()
    for workload in SMALL.values():
        with LayerTracer() as tracer:
            traced = workloads.run_repeat(workload, 1, tmp_path)
        untraced = workloads.run_repeat(workload, 1, tmp_path)
        assert tracer.oracle_errors(traced) == [], workload.name
        # the wrappers must not perturb the simulation
        assert traced["digest"] == untraced["digest"], workload.name
        assert traced["audit_ok"] in (None, True)
        metrics = tracer.layer_metrics(traced)
        assert set(metrics) | {"trace.overhead_frac"} | set(
            traced["outputs"]
        ) >= set(run.PER_LAYER)
        if workload.audited:
            assert metrics["checkpoint.generations"] >= 2
            assert metrics["telemetry.events"] > 0
    assert time.monotonic() - start < 60


def test_oracle_catches_an_unwrapped_override(tmp_path, monkeypatch):
    # wrap base classes only: EvanescoChip.read_page escapes the tracer
    monkeypatch.setattr(layers, "_with_subclasses", lambda cls: iter([cls]))
    with LayerTracer() as tracer:
        record = workloads.run_repeat(SMALL["mail-sec"], 1, tmp_path)
    errors = tracer.oracle_errors(record)
    assert any(e.startswith("flash.read_page.calls=") for e in errors)


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    } == {name: spec[:3] for name, spec in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.fixture(scope="module")
def two_invocations(tmp_path_factory):
    """Two identical traced CLI runs of one workload (off the golden seed)."""
    out = tmp_path_factory.mktemp("cli")
    runs = []
    for i in range(2):
        proc = _run_cli(
            ROOT, "--workload", "mobile-sec", "--seed", "3", "--repeats", "1",
            "--out", str(out / f"{i}.json"), "--trace-out", str(out / f"trace{i}"),
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(
            (json.loads(proc.stdout.splitlines()[-1]),
             json.loads((out / f"{i}.json").read_text()))
        )
    return out, runs


def test_emitted_names_match_benchmark_json(two_invocations):
    _, runs = two_invocations
    line, result = runs[0]
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    e2e = result["workloads"]["mobile-sec"]["end_to_end"]
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_two_invocations_simulate_identically(two_invocations):
    _, runs = two_invocations
    first, second = (r["workloads"]["mobile-sec"] for _, r in runs)
    assert first["digest"] == second["digest"]
    assert first["outputs"] == second["outputs"]
    counts = {
        name: (m["value"], second["per_layer"][name]["value"])
        for name, m in first["per_layer"].items()
        if m["unit"] == "count"
    }
    assert all(a == b for a, b in counts.values()), counts


def test_trace_out_writes_a_valid_chrome_trace(two_invocations):
    out, _ = two_invocations
    payload = json.loads((out / "trace0" / "mobile-sec.trace.json").read_text())
    assert validate_chrome_trace(payload) == []
    ids = {e["id"] for e in payload["traceEvents"] if "id" in e}
    assert max(ids) == layers.CHROME_REQUESTS - 1
    counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
    assert {e["name"] for e in counters} == {"layer_self_s", "layer_calls"}


def _bare_copy(tmp_path: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_tampered_golden_fails_every_repeat(tmp_path):
    checkout = _bare_copy(tmp_path, with_src=True)
    goldens_path = checkout / "benchmarks" / "perf" / "goldens.json"
    goldens = json.loads(goldens_path.read_text())
    goldens["workloads"]["mobile-sec"]["digest"] = "0" * 64
    goldens_path.write_text(json.dumps(goldens))
    proc = _run_cli(
        checkout, "--workload", "mobile-sec", "--seed", "1", "--repeats", "1",
        "--trace", "0",
    )
    assert proc.returncode == 1
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 1
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "goldens" in proc.stderr and "Traceback" not in proc.stderr


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    checkout = _bare_copy(tmp_path, with_src=False)
    proc = _run_cli(
        checkout, "--workload", "mail-sec", "--seed", "1", "--seconds", "20",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


def _metric(median: float, q1: float, q3: float, samples: list[float]) -> dict:
    return {"value": median, "median": median, "q1": q1, "q3": q3,
            "samples": samples, "better": "lower", "bound": 0.10}


@pytest.mark.parametrize(
    ("change", "expected"),
    [
        (_metric(1.00, 0.99, 1.01, [0.99, 1.0, 1.01]), "unchanged"),
        (_metric(1.20, 1.19, 1.21, [1.19, 1.2, 1.21]), "regressed"),
        (_metric(0.90, 0.89, 0.91, [0.89, 0.9, 0.91]), "improved"),
        (_metric(1.00, 0.80, 1.20, [0.8, 1.0, 1.2]), "unresolved"),
        (_metric(0.50, 0.40, 0.60, [0.4, 0.5, 0.6]), "improved"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = _metric(1.00, 0.99, 1.01, [0.99, 1.0, 1.01])
    assert compare.verdict(parent, change)[1] == expected
