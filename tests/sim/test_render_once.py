"""A variant sweep renders its block trace once.

The rendered request stream does not depend on the variant, so every
caller that replays one trace against several variants (or several
campaign calls) renders it once and passes it on.  Each test counts
calls to ``capture_block_trace`` in every module that holds it, and the
sweeps' results must equal separately rendered single-variant runs.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.analysis.latency import policy_for_variant, run_tail_latency_study
from repro.analysis.torture import run_checkpoint_case
from repro.checkpoint.campaign import run_chunked_simulation
from repro.checkpoint.codec import canonical_dumps, section_checksum
from repro.cli import main
from repro.sim import runner
from repro.sim.arrivals import ClosedLoopArrivals
from repro.sim.runner import simulate_workload
from repro.ssd import scaled_config

VARIANTS = ("baseline", "erSSD", "secSSD")
SCALE = ["--blocks", "8", "--wordlines", "4", "--multiplier", "0.3"]


@pytest.fixture
def config():
    return scaled_config(blocks_per_chip=8, wordlines_per_block=4)


@pytest.fixture
def renders(monkeypatch) -> list[str]:
    """Workload names, one per ``capture_block_trace`` call."""
    original = runner.capture_block_trace
    calls: list[str] = []

    def counting(config, workload, *args, **kwargs):
        calls.append(workload)
        return original(config, workload, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "capture_block_trace", None) is original:
            monkeypatch.setattr(module, "capture_block_trace", counting)
    return calls


def test_simulate_renders_once_for_three_variants(renders, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = ["simulate", "--workload", "MailServer", *SCALE, "--qd", "8"]
    assert main([*argv, "--variants", *VARIANTS, "--json", str(out)]) == 0
    assert renders == ["MailServer"]
    sweep = json.loads(out.read_text())
    for variant in VARIANTS:
        single = tmp_path / f"{variant}.json"
        assert main([*argv, "--variants", variant, "--json", str(single)]) == 0
        assert sweep[variant] == json.loads(single.read_text())[variant]
    capsys.readouterr()


def test_tail_latency_study_renders_once(renders, config):
    results = run_tail_latency_study(
        config, variants=VARIANTS, write_multiplier=0.3, check_interval=50
    )
    assert renders == ["MailServer"]
    for variant, sim in results.items():
        single = simulate_workload(
            config,
            "MailServer",
            variant,
            write_multiplier=0.3,
            policy=policy_for_variant(variant),
            arrivals=ClosedLoopArrivals(32),
            checked=True,
            check_interval=50,
        )
        assert sim.to_json() == single.to_json()


def test_torture_checkpoint_case_renders_once(renders, config):
    case = run_checkpoint_case(config, "secSSD", "bitflip", seed=3)
    assert case.outcome == "PASS"
    assert renders == ["MailServer"]


def _break_l2p_keeping_checksums(gen) -> None:
    """Duplicate one L2P entry and re-seal the manifest: the generation
    decodes but fails the restore audit."""
    path = gen / "ftl.json"
    payload = json.loads(path.read_text())
    table = payload["l2p"]["l2p"]
    mapped = [i for i, v in enumerate(table) if isinstance(v, int) and v >= 0]
    table[mapped[0]] = table[mapped[1]]
    text = canonical_dumps(payload)
    path.write_text(text)
    manifest_path = gen / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sections"]["ftl"] = {
        "checksum": section_checksum(text),
        "size": len(text.encode("utf-8")),
    }
    manifest_path.write_text(canonical_dumps(manifest))


def test_campaign_resume_falls_back_on_one_render(renders, config, tmp_path):
    kw = dict(seed=1, write_multiplier=0.3)
    reference = run_chunked_simulation(
        config, "MailServer", "secSSD", tmp_path / "ref", 150, **kw
    )
    directory = tmp_path / "run"
    run_chunked_simulation(
        config, "MailServer", "secSSD", directory, 150, stop_after=2, **kw
    )
    newest = max(p for p in directory.iterdir() if p.name.startswith("gen-"))
    _break_l2p_keeping_checksums(newest)
    renders.clear()
    final = run_chunked_simulation(
        config, "MailServer", "secSSD", directory, 150, resume=True, **kw
    )
    assert renders == ["MailServer"]
    recovery = final.run.extra["checkpoint_recovery"]
    assert [r["reason"] for r in recovery] == ["audit-failed"]
    assert final.to_json() == reference.to_json()


def test_rendered_trace_replays_like_a_fresh_render(config, tmp_path):
    rendered = runner.capture_block_trace(
        config, "MailServer", seed=1, write_multiplier=0.3
    )
    kw = dict(seed=1, write_multiplier=0.3)
    given = run_chunked_simulation(
        config, "MailServer", "erSSD", tmp_path / "a", 150,
        rendered=rendered, **kw,
    )
    fresh = run_chunked_simulation(
        config, "MailServer", "erSSD", tmp_path / "b", 150, **kw
    )
    assert given.to_json() == fresh.to_json()


def test_resume_on_another_trace_length_quarantines_nothing(config, tmp_path):
    requests, steady_start = runner.capture_block_trace(
        config, "MailServer", seed=1, write_multiplier=0.3
    )
    kw = dict(seed=1, write_multiplier=0.3)
    run_chunked_simulation(
        config, "MailServer", "erSSD", tmp_path, 150, stop_after=1, **kw
    )
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(ValueError, match="request trace"):
        run_chunked_simulation(
            config, "MailServer", "erSSD", tmp_path, 150, resume=True,
            rendered=(requests[:-1], steady_start), **kw,
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == before
