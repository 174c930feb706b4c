"""One residue rule, every caller: a differential test on planted images.

Each device image holds pages of every residue class -- a pLocked page,
a bLocked block, a scrubbed wordline, an erased block, dead and
live-key cryptSSD ciphertext, planted readable stale pages, a live copy
and a same-``seq`` GC duplicate.  Every checker that decides "is deleted
data still readable?" then judges the same pages:

* the runtime sanitizer's probe, via a sanitize claim + ``check_batch``;
* the audit verifier's forensic pass, via a fabricated ledger;
* the torture leak list;
* the C1/C2 auditor;
* the checkpoint restore audit's lock probe.

Each verdict must equal what the oracle below derives from the page's
readback class, so the callers agree with one another page by page.
"""

from __future__ import annotations

import pytest

from repro.audit.ledger import PageGeneration, PageLedger
from repro.audit.verifier import verify_device
from repro.checkers.residue import probe, stale_secured_leaks
from repro.checkers.sanitizer import InvariantViolation
from repro.checkpoint.device import CheckpointAuditError, restore_audit
from repro.flash.chip import ERASED_DATA, ReadResult
from repro.security.audit import SanitizationAuditor, collect_live_versions
from repro.ssd.device import SSD
from repro.ssd.request import trim, write

METHODS = ("plock", "block_lock", "scrub", "erase", "key_delete")

#: oracle: which readback classes prove the data gone, per method.
PROVES_GONE = {
    "plock": {"locked", "erased"},
    "block_lock": {"locked", "erased"},
    "scrub": {"scrubbed", "locked", "erased"},
    "erase": {"erased"},
    "key_delete": {"dead-ciphertext", "erased"},
}

#: the planting chip; host writes land elsewhere first.
CHIP = 1


def _checked(config, variant):
    # huge interval: only the per-batch probe of fresh claims runs
    return SSD(config, variant, checked=True, check_interval=10**6)


class _Planter:
    """Programs pages straight into free blocks, behind the FTL's back."""

    def __init__(self, ssd):
        self.ssd = ssd
        self.chip = ssd.ftl.chips[CHIP]
        self.ppb = ssd.config.geometry.pages_per_block
        self.free = self.chip.free_blocks()

    def block(self):
        return self.free.pop()

    def program(self, block, offset, payload, spare):
        ppn = block * self.ppb + offset
        self.chip.program_page(ppn, payload, spare)
        return self.ssd.ftl.make_gppa(CHIP, ppn)

    def gppa(self, block, offset):
        return self.ssd.ftl.make_gppa(CHIP, block * self.ppb + offset)


def _live(ssd, lpa):
    gppa = ssd.ftl.mapped_gppa(lpa)
    chip_id, ppn = ssd.ftl.split_gppa(gppa)
    block, offset = ssd.config.geometry.split_ppn(ppn)
    pages = ssd.ftl.chips[chip_id].blocks[block]
    return gppa, pages.data[offset], dict(pages.spare[offset])


def secssd_image(config):
    """secSSD: every physical residue class plus readable stale pages."""
    ssd = _checked(config, "secSSD")
    ssd.submit(write(0, tag="keep", secure=True))
    ssd.submit(write(1, tag="gone", secure=True))
    plocked = ssd.ftl.mapped_gppa(1)
    ssd.submit(trim(1))  # secSSD pLocks the dead version
    live, payload, spare = _live(ssd, 0)
    plant = _Planter(ssd)

    stale = plant.block()
    pages = {
        "live": live,
        "plocked": plocked,
        # the torture suite's planted ghost: a dead version of a live lpa
        "ghost": plant.program(
            stale, 0, "ghost", {"secure": True, "lpa": 0, "seq": 999}
        ),
        "stale-version": plant.program(
            stale, 1, (0, "keep", 899), {"secure": True, "lpa": 0, "seq": 899}
        ),
        "deleted-file": plant.program(
            stale, 2, (2, "gone", 900), {"secure": True, "lpa": 2, "seq": 900}
        ),
        "gc-duplicate": plant.program(stale, 3, payload, spare),
    }
    scrubbed = plant.block()
    for offset in range(3):  # one TLC wordline
        plant.program(
            scrubbed, offset, (3, "gone", 901 + offset),
            {"secure": True, "lpa": 3, "seq": 901 + offset},
        )
    plant.chip.scrub_wordline(scrubbed, 0)
    pages["scrubbed"] = plant.gppa(scrubbed, 0)
    blocked = plant.block()
    pages["blocked"] = plant.program(
        blocked, 0, (4, "gone", 904), {"secure": True, "lpa": 4, "seq": 904}
    )
    plant.chip.block_lock(blocked)
    pages["erased"] = plant.gppa(plant.block(), 0)
    return ssd, pages


def cryptssd_image(config):
    """cryptSSD: dead and live-key ciphertext next to the live copy."""
    ssd = _checked(config, "cryptSSD")
    ssd.submit(write(0, tag="keep", secure=True))
    ssd.submit(write(1, tag="gone", secure=True))
    dead = ssd.ftl.mapped_gppa(1)
    ssd.submit(trim(1))  # key deletion: the ciphertext stays behind
    live, payload, spare = _live(ssd, 0)
    plant = _Planter(ssd)
    stale = plant.block()
    survivor = 10**6  # a key id the FTL never issued, kept alive
    ssd.ftl.key_store[survivor] = True
    pages = {
        "live": live,
        "dead-ciphertext": dead,
        "live-key-ciphertext": plant.program(
            stale, 0, ("enc", survivor, (3, "gone", 905)),
            {"secure": True, "lpa": 3, "seq": 905},
        ),
        "gc-duplicate": plant.program(stale, 1, payload, spare),
        "erased": plant.gppa(plant.block(), 0),
    }
    return ssd, pages


#: page -> (readback class, dead version?, file tag, lpa) -- the last two
#: only where the payload names them (what C1/C2 can attribute).
SECSSD_PAGES = {
    "live": ("readable", False, "keep", 0),
    "plocked": ("locked", True, "gone", 1),
    "ghost": ("readable", True, None, None),
    "stale-version": ("readable", True, "keep", 0),
    "deleted-file": ("readable", True, "gone", 2),
    "gc-duplicate": ("readable", False, "keep", 0),
    "scrubbed": ("scrubbed", True, None, None),
    "blocked": ("locked", True, "gone", 4),
    "erased": ("erased", False, None, None),
}
CRYPTSSD_PAGES = {
    "live": ("readable", False, "keep", 0),
    "dead-ciphertext": ("dead-ciphertext", True, "gone", 1),
    "live-key-ciphertext": ("readable", True, "gone", 3),
    "gc-duplicate": ("readable", False, "keep", 0),
    "erased": ("erased", False, None, None),
}
IMAGES = {
    "secSSD": (secssd_image, SECSSD_PAGES),
    "cryptSSD": (cryptssd_image, CRYPTSSD_PAGES),
}


def _sanitizer_rejects(ssd, gppa, method):
    ssd.ftl.observer.on_sanitize(gppa, method)
    try:
        ssd.ftl.checker.check_batch()
    except InvariantViolation as exc:
        assert exc.invariant == "unreadable-probe"
        ssd.ftl.checker.resync()  # forget the refuted claim
        return True
    return False


def _verifier_rejects(ssd, pages, method):
    ledger = PageLedger(pages_per_block=ssd.config.geometry.pages_per_block)
    for gppa in pages.values():
        ledger.generations.append(
            PageGeneration(
                gppa=gppa, lpa=0, secure=True, program_ts=0.0,
                invalidate_ts=1.0, invalidate_reason="host-trim",
                sanitize_ts=2.0, sanitize_method=method,
            )
        )
    report = verify_device(ledger, ssd, complete=False)
    assert report.checks["device.sanitized_pages"] == len(pages)
    return {
        name
        for name, gppa in pages.items()
        for f in report.findings
        if f.code == "recoverable-sanitized-page"
        and f.detail.startswith(f"gppa {gppa}:")
    }


@pytest.fixture(params=sorted(IMAGES))
def image(request, tiny_config):
    build, oracle = IMAGES[request.param]
    ssd, pages = build(tiny_config)
    assert set(pages) == set(oracle)
    return ssd, pages, oracle


class TestEveryCallerOneAnswer:
    def test_readback_classes(self, image):
        ssd, pages, oracle = image
        got = {name: probe(ssd.ftl, gppa).residue for name, gppa in pages.items()}
        assert got == {name: row[0] for name, row in oracle.items()}

    @pytest.mark.parametrize("method", METHODS)
    def test_sanitizer_and_verifier_apply_the_method_table(self, image, method):
        ssd, pages, oracle = image
        expected = {
            name for name, row in oracle.items()
            if row[0] not in PROVES_GONE[method]
        }
        sanitizer = {
            name for name, gppa in pages.items()
            if _sanitizer_rejects(ssd, gppa, method)
        }
        assert sanitizer == expected
        assert _verifier_rejects(ssd, pages, method) == expected

    def test_torture_flags_dead_versions_no_method_explains(self, image):
        ssd, pages, oracle = image
        leaks = set(stale_secured_leaks(ssd.ftl))
        flagged = {name for name, gppa in pages.items() if gppa in leaks}
        assert flagged == {
            name for name, (cls, dead, _, _) in oracle.items()
            if dead and cls == "readable"
        }
        # cross-caller: a torture leak is a dead version that every
        # method's sanitizer probe refutes
        for name in flagged:
            assert all(
                _sanitizer_rejects(ssd, pages[name], method)
                for method in METHODS
            )

    def test_c1_c2_are_filters_over_the_same_walk(self, image):
        ssd, pages, oracle = image
        auditor = SanitizationAuditor(ssd)
        c1 = {v.gppa for v in auditor.audit_deleted_files({"gone"}).violations}
        live = collect_live_versions(ssd, {0})
        c2 = {v.gppa for v in auditor.audit_updated_lpas(live).violations}
        readable_dead = {
            name: row for name, row in oracle.items()
            if row[1] and row[0] == "readable"
        }
        assert c1 == {
            pages[name] for name, row in readable_dead.items() if row[2] == "gone"
        }
        assert c2 == {
            pages[name] for name, row in readable_dead.items() if row[3] == 0
        }
        # cross-caller: every C1/C2 violation is on the torture leak list
        assert c1 | c2 <= set(stale_secured_leaks(ssd.ftl))


class TestCheckpointLockProbe:
    def test_honest_locks_pass(self, tiny_config):
        ssd, _ = secssd_image(tiny_config)
        restore_audit(ssd)  # every pLocked page and bLocked block reads locked

    @pytest.mark.parametrize(
        ("page", "invariant"),
        [("plocked", "locked-page-probe"), ("blocked", "locked-block-probe")],
    )
    def test_locked_page_reading_erased_is_refuted(
        self, tiny_config, page, invariant
    ):
        # a chip whose AP gate lets an all-ones read through: erased
        # cells say nothing about the lock, so only "locked" passes
        ssd, pages = secssd_image(tiny_config)
        chip_id, target = ssd.ftl.split_gppa(pages[page])
        chip = ssd.ftl.chips[chip_id]
        honest = chip.read_page

        def leaky_read(ppn, now=0.0, strict=False):
            if ppn == target:
                return ReadResult(ERASED_DATA, {}, chip.t_read_us)
            return honest(ppn, now, strict)

        chip.read_page = leaky_read
        with pytest.raises(CheckpointAuditError) as excinfo:
            restore_audit(ssd)
        assert excinfo.value.invariant == invariant
        # the sanitizer's lock claim accepts erased cells: the data is gone
        assert not _sanitizer_rejects(ssd, pages[page], "plock")
