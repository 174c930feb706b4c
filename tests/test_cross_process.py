"""Same-seed artifacts are byte-identical across processes.

Every artifact writer runs in three child processes at once, each under
its own ``PYTHONHASHSEED``, and the three output trees must match byte
for byte.  String hashing is salted per process, so set iteration order
reaching an artifact shows here and nowhere in-process; so do the wall
clock, ``os.urandom``, ``id()`` and ``os.getpid()`` (DESIGN.md 3c, 3g).
Set order is caught only by some seed pairs: a two-element set flips
between two given seeds about half the time, so three seeds miss it
about a quarter of the time.

Run as a script, the module is the child: ``python test_cross_process.py
ROOT`` runs every writer in-process under ``ROOT/<writer>/``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main

SCALE = ["--blocks", "8", "--wordlines", "4"]
MAIL = ["--workload", "MailServer", "--multiplier", "0.5", "--qd", "8"]
TWO_VARIANTS = ["--variants", "erSSD", "secSSD"]

#: writer -> argv.  Each writer runs in its own working directory with
#: relative paths, so messages naming its outputs agree across children.
WRITERS = {
    "simulate": ["simulate", *MAIL, *TWO_VARIANTS, "--json", "sim.json", *SCALE],
    "trace": [
        "trace", *MAIL, "--variants", "secSSD",
        "--out", "t.json", "--jsonl", "t.jsonl", *SCALE,
    ],
    "audit": [
        "audit", "--variant", "secSSD", "--multiplier", "0.5",
        "--cert-out", "cert.json", *SCALE,
    ],
    # two variants: a set-order bug cannot show in a one-element set
    "torture": [
        "torture", "--ops", "80", "--window", "2", "--rates", "0.01",
        *TWO_VARIANTS, "--seed", "7", "--checkpoint-modes", "--json", *SCALE,
    ],
    "fleet": [
        "fleet", "--devices", "4", "--tenants", "100", "--shard", "2",
        *TWO_VARIANTS, "--storm", "deletion", "--json", "fleet.json",
    ],
    "age": [
        "age", "--pe-limit", "4", "--multiplier", "1.0", *TWO_VARIANTS,
        "--checkpoint-every", "10", "--dir", "ck", "--json", "age.json",
        *SCALE,
    ],
    "checkpoint": [
        "simulate", *MAIL, "--variants", "secSSD",
        "--checkpoint-every", "200", "--checkpoint-dir", "ck", *SCALE,
    ],
}

HASH_SEEDS = ("1", "2", "3")


def run_writers(root: Path) -> None:
    """Run every writer in-process, stdout captured to ``stdout.txt``."""
    for name, argv in WRITERS.items():
        workdir = root / name
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        with open("stdout.txt", "w", encoding="utf-8") as out:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")


def _tree(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_artifacts_identical_across_hash_seeds(tmp_path):
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_CHECK")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    children = {
        seed: subprocess.Popen(
            [sys.executable, __file__, str(tmp_path / seed)],
            env={**env, "PYTHONHASHSEED": seed},
            cwd=tmp_path,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    }
    try:
        stderr = {
            seed: child.communicate(timeout=600)[1]
            for seed, child in children.items()
        }
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    for seed, child in children.items():
        assert child.returncode == 0, f"PYTHONHASHSEED={seed}:\n{stderr[seed]}"

    first, *others = HASH_SEEDS
    expected = _tree(tmp_path / first)
    for seed in others:
        tree = _tree(tmp_path / seed)
        assert tree.keys() == expected.keys(), (
            f"file names differ between PYTHONHASHSEED={first} and {seed}"
        )
        differing = [name for name in expected if tree[name] != expected[name]]
        assert not differing, (
            f"{differing[0]} differs between PYTHONHASHSEED={first} and "
            f"{seed} ({len(differing)} file(s) differ)"
        )


if __name__ == "__main__":
    run_writers(Path(sys.argv[1]))
