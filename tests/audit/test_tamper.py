"""The tamper matrix: every edit class of an archived trace is caught.

Each case copies the secSSD study's JSONL archive, applies one
adversarial edit, and re-audits against the originally issued
certificate.  Line 0 is the evidence-disclosure header (whose published
counts mention category *names*, so tamper edits must address event
lines explicitly rather than grepping the whole file).  The last cases
edit the live bus's checkpoint segment instead and load it back into a
fresh bus, so the columnar path that resumed campaigns take is held to
the same verdicts.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.audit import audit_trace_file
from repro.audit.run import audit_events
from repro.telemetry import TraceBus
from repro.telemetry.export import to_jsonl


def _codes(audit):
    return sorted({f.code for f in audit.report.findings})


@pytest.fixture()
def archive(audited_runs, tmp_path):
    """(path, certificate) for an archived secSSD trace."""
    run, audit = audited_runs["secSSD"]
    path = tmp_path / "secSSD.jsonl"
    path.write_text(to_jsonl(run.telemetry.bus.events, header=audit.header))
    return path, audit.certificate


def _lines(path):
    return path.read_text().splitlines()


def _rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _sanitize_line_numbers(lines):
    # line 0 is the header; the ftl.sanitize category also carries
    # lock_batch *spans*, so match the instant name too.
    return [
        i
        for i, line in enumerate(lines[1:], start=1)
        if (record := json.loads(line)).get("cat") == "ftl.sanitize"
        and record.get("name") == "sanitize"
        and record.get("ph") == "i"
    ]


def test_untampered_archive_verifies(archive):
    path, cert = archive
    audit = audit_trace_file(path, certificate=cert)
    assert audit.ok
    assert audit.report.checks["certificate.ledger_digest"] == 1


def test_deleted_sanitize_event(archive):
    path, cert = archive
    lines = _lines(path)
    del lines[_sanitize_line_numbers(lines)[0]]
    _rewrite(path, lines)
    audit = audit_trace_file(path, certificate=cert)
    assert not audit.ok
    assert "event-count-mismatch" in _codes(audit)
    assert "ledger-digest-mismatch" in _codes(audit)


def test_backdated_sanitize_timestamp(archive):
    path, cert = archive
    lines = _lines(path)
    target = _sanitize_line_numbers(lines)[-1]
    record = json.loads(lines[target])
    record["ts_us"] = 0.0
    lines[target] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    _rewrite(path, lines)
    audit = audit_trace_file(path, certificate=cert)
    assert not audit.ok
    codes = _codes(audit)
    assert "event-order-violation" in codes
    assert "ledger-digest-mismatch" in codes


def test_reordered_instants(archive):
    path, cert = archive
    lines = _lines(path)
    # swap the first consecutive *instants* with strictly increasing
    # time (span records interleave, so the lines need not be adjacent)
    instants = [
        (i, json.loads(line)["ts_us"])
        for i, line in enumerate(lines[1:], start=1)
        if json.loads(line)["ph"] == "i"
    ]
    for (i, ts_a), (j, ts_b) in zip(instants, instants[1:]):
        if ts_a < ts_b:
            lines[i], lines[j] = lines[j], lines[i]
            break
    else:  # pragma: no cover - trace shape regression
        pytest.fail("no increasing instant pair to reorder")
    _rewrite(path, lines)
    audit = audit_trace_file(path, certificate=cert)
    assert not audit.ok
    assert "event-order-violation" in _codes(audit)


def test_forged_certificate(archive):
    path, cert = archive
    forged = copy.deepcopy(cert)
    forged["sections"]["exposure"]["p99_us"] = 1.0
    audit = audit_trace_file(path, certificate=forged)
    assert not audit.ok
    assert {"checksum-mismatch", "bad-signature"} <= set(_codes(audit))


def test_stripped_header_degrades_not_lies(archive):
    """A headerless archive still audits, but discloses incompleteness."""
    path, cert = archive
    header = json.loads(_lines(path)[0])["repro_trace"]
    _rewrite(path, _lines(path)[1:])
    audit = audit_trace_file(
        path, pages_per_block=int(header["pages_per_block"])
    )
    assert audit.ok  # a disclosure, not a verdict
    assert "incomplete-evidence" in _codes(audit)
    assert not audit.certificate["sections"]["evidence"]["complete"]


# ---------------------------------------------------------------------------
# the live columnar path: checkpoint segments edited, then reloaded
# ---------------------------------------------------------------------------
@pytest.fixture()
def live(audited_runs):
    """(bus, audit) of the secSSD run; tests edit copies of its segment."""
    run, audit = audited_runs["secSSD"]
    return run.telemetry.bus, audit


def _reaudit(bus, audit, segment):
    """Load ``segment`` into a fresh bus and audit it against the cert."""
    fresh = TraceBus(capacity=bus.capacity, sample=bus.sample)
    fresh.load_state_dict(bus.state_dict(), [segment])
    return audit_events(audit.header, fresh, certificate=audit.certificate)


def _events_of(segment, name):
    """(event index, values offset, keys) of every ``name`` event."""
    arity = [len(spec[4]) for spec in segment["kinds"]]
    out, pos = [], 0
    for i, kind in enumerate(segment["kind"]):
        spec = segment["kinds"][kind]
        if spec[0] == name and spec[2] == "i":
            out.append((i, pos, spec[4]))
        pos += arity[kind]
    return out


def test_reloaded_segment_verifies(live):
    bus, audit = live
    reaudit = _reaudit(bus, audit, copy.deepcopy(bus.segment()))
    assert reaudit.ok, _codes(reaudit)
    assert reaudit.ledger.digest() == audit.ledger.digest()


def test_segment_with_edited_invalidate_gppa(live):
    bus, audit = live
    segment = copy.deepcopy(bus.segment())
    _, pos, keys = _events_of(segment, "invalidate")[0]
    segment["values"][pos + keys.index("gppa")] += 1
    reaudit = _reaudit(bus, audit, segment)
    assert not reaudit.ok
    assert "ledger-digest-mismatch" in _codes(reaudit)


def test_segment_with_swapped_instant_times(live):
    bus, audit = live
    segment = copy.deepcopy(bus.segment())
    ts = segment["ts_us"]
    instants = [i for name in ("program", "invalidate", "sanitize", "erase")
                for i, _, _ in _events_of(segment, name)]
    instants.sort()
    for a, b in zip(instants, instants[1:]):
        if ts[a] < ts[b]:
            ts[a], ts[b] = ts[b], ts[a]
            break
    else:  # pragma: no cover - trace shape regression
        pytest.fail("no increasing instant pair to swap")
    reaudit = _reaudit(bus, audit, segment)
    assert not reaudit.ok
    assert "event-order-violation" in _codes(reaudit)
