"""Golden pin on checkpoint bytes: the on-disk format must not drift.

A tiny faulted, telemetered secSSD campaign is checkpointed and a sha256
is taken over every file of its directory (relative path + content).
The pinned digest is of format version 8 (telemetry events as
append-only segments, block pages as columns, chips without a
``stats`` key, ``sim.service`` spans in calendar reservation order, no
``worklog`` section, a ``telemetry`` section holding only the trace
bus's accounting; v8 stores one open-block cursor per chip in the
allocator payload instead of a map of write streams, and
``campaign.json``'s ``config`` no longer lists the GC stream switch or
the five FTL settings that became constants); any codec, store or
state_dict change that alters a single checkpoint byte fails here, and
must either be fixed or ship with a ``FORMAT_VERSION`` bump and a new
digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.checkpoint.campaign import run_chunked_simulation
from repro.faults import FaultKind, FaultPlan
from repro.ssd.config import scaled_config
from repro.telemetry import Telemetry

GOLDEN = "62970b60fd1521ee0c2d7f0a87c30a4133e4c6f89e799ba9bd78b5c6dd08bff1"

#: codec tags the pinned campaign must exercise (page-status tables
#: carry the enums, RNG states the tuples), counted over the newest
#: generation's files, its events segment included.  No device state holds an
#: ndarray since the pAP payload became flat columns; the codec's
#: ndarray head is covered by
#: ``test_codec.py::TestRoundTrips::test_ndarray_exact``.
TAGS = ("enum", "tuple", "set", "deque", "dict")


@pytest.fixture(scope="module")
def campaign(tmp_path_factory) -> Path:
    """Three generations of MailServer on an 8x4 secSSD."""
    directory = tmp_path_factory.mktemp("golden")
    run_chunked_simulation(
        scaled_config(blocks_per_chip=8, wordlines_per_block=4),
        "MailServer",
        "secSSD",
        directory,
        checkpoint_every=250,
        seed=3,
        write_multiplier=0.5,
        checked=True,
        check_interval=13,
        faults=FaultPlan.single(FaultKind.PROGRAM_FAIL, 0.005, seed=4),
        telemetry=Telemetry(),
        stop_after=3,
    )
    return directory


def directory_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_campaign_covers_the_rich_types(campaign):
    newest = campaign / "gen-000003"
    text = "".join(p.read_text() for p in newest.glob("*.json"))
    assert [tag for tag in TAGS if f'"__t":"{tag}"' not in text] == []
    assert '"cls":"FaultKind"' in (newest / "faults.json").read_text()
    assert (newest / "telemetry.json").stat().st_size > 0
    # the ring never evicts here, so gen 3's chain is every generation's
    # segment, each stored once in the generation that wrote it
    manifest = json.loads((newest / "MANIFEST.json").read_text())
    assert [entry["file"] for entry in manifest["chains"]["events"]] == [
        f"gen-00000{g}/events.segment.json" for g in (1, 2, 3)
    ]


def test_checkpoint_bytes_match_golden(campaign):
    assert directory_digest(campaign) == GOLDEN
