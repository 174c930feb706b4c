"""Differential oracle: the columnar flash chip against the page-object one.

``legacy_chip`` keeps the original ``Page``-list ``Block`` and
``FlashChip``.  Hypothesis drives both through the same random command
stream -- in-order and out-of-order programs, programs torn by a
scripted fault hook, erases, scrubs, reads, erase-pending and retired
marks, and checkpoint round trips -- and requires every command to give
the same outcome and leave the same forensic dump, free-block list and
canonical checkpoint bytes behind.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import legacy_chip
from repro.checkpoint.codec import canonical_dumps, decode, encode
from repro.flash.block import PAGE_ERASED, PAGE_PROGRAMMED
from repro.flash.chip import FAULT_FAIL, FAULT_POWER_LOSS, FlashChip
from repro.flash.geometry import small_geometry

GEOMETRY = small_geometry(blocks=3, wordlines=2)
BLOCKS = GEOMETRY.blocks_per_chip

directives = st.sampled_from(["", "", "", FAULT_FAIL, FAULT_POWER_LOSS])
payloads = st.one_of(st.none(), st.integers(0, 9), st.tuples(st.integers(0, 9), st.text(max_size=2)))
spares = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["lpa", "tag", "seq", "secure"]), st.integers(0, 9), max_size=3),
)
commands = st.one_of(
    # program the block's next page, or a page off by ``skew``
    st.tuples(st.just("program"), st.integers(0, BLOCKS - 1), st.sampled_from([0, 0, 0, -1, 1]), payloads, spares, directives),
    # read the page ``back`` below the block's next one: 0 is the first
    # erased page, 1 the newest programmed page (torn, say)
    st.tuples(st.just("read"), st.integers(0, BLOCKS - 1), st.integers(0, 3), directives),
    st.tuples(st.just("erase"), st.integers(0, BLOCKS - 1), directives),
    st.tuples(st.just("scrub"), st.integers(0, BLOCKS - 1), st.integers(0, GEOMETRY.wordlines_per_block - 1)),
    st.tuples(st.just("pending"), st.integers(0, BLOCKS - 1)),
    st.tuples(st.just("retire"), st.integers(0, BLOCKS - 1)),
    st.tuples(st.just("restore"),),
)


class ScriptedHook:
    """Fault hook returning the directive the next command scripted."""

    def __init__(self) -> None:
        self.next = ""
        self.ops: list[str] = []

    def on_op(self, op: str) -> str:
        self.ops.append(op)
        directive, self.next = self.next, ""
        return directive


def state_bytes(chip) -> str:
    return canonical_dumps(encode(chip.state_dict()))


def restored(chip, factory):
    """A fresh chip loaded from ``chip``'s checkpoint, hook carried over."""
    copy = factory(GEOMETRY, pe_limit=3)
    copy.load_state_dict(decode(encode(chip.state_dict())))
    copy.fault_hook = chip.fault_hook
    return copy


def apply(chip, command):
    """Run one command; returns its result or its exception's type and text."""
    kind, *args = command
    hook = chip.fault_hook
    try:
        if kind == "program":
            block, skew, data, spare, hook.next = args
            offset = chip.blocks[block].next_page + skew
            if not 0 <= offset < GEOMETRY.pages_per_block:
                return "skipped"
            own = None if spare is None else dict(spare)  # each chip gets its own
            return chip.program_page(GEOMETRY.ppn(block, offset), data, own)
        if kind == "read":
            block, back, hook.next = args
            offset = max(chip.blocks[block].next_page - back, 0)
            result = chip.read_page(GEOMETRY.ppn(block, offset))
            outcome = result._replace(spare=dict(result.spare))
            # the caller owns the copy it got: changing it must not reach
            # the stored page (the state comparison would see it)
            result.spare["mutated"] = True
            return outcome
        if kind == "erase":
            block, hook.next = args
            return chip.erase_block(block)
        if kind == "scrub":
            return chip.scrub_wordline(*args)
        if kind == "pending":
            return chip.blocks[args[0]].mark_erase_pending()
        if kind == "retire":
            return chip.blocks[args[0]].mark_retired()
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc).__name__, str(exc)
    raise AssertionError(kind)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(commands, max_size=60))
def test_columnar_chip_matches_page_objects(stream):
    new = FlashChip(GEOMETRY, pe_limit=3)
    old = legacy_chip.FlashChip(GEOMETRY, pe_limit=3)
    new.fault_hook, old.fault_hook = ScriptedHook(), ScriptedHook()
    for command in stream:
        if command[0] == "restore":
            new, old = restored(new, FlashChip), restored(old, legacy_chip.FlashChip)
        else:
            assert apply(new, command) == apply(old, command), command
        assert new.fault_hook.ops == old.fault_hook.ops
        assert new.raw_dump() == old.raw_dump()
        assert new.free_blocks() == old.free_blocks()
        assert state_bytes(new) == state_bytes(old)


class TestRestoreRejectsInconsistentPages:
    def programmed_state(self):
        chip = FlashChip(GEOMETRY)
        for offset in range(4):
            chip.program_page(offset, f"d{offset}", {"lpa": offset})
        return chip.state_dict()

    def test_consistent_state_loads(self):
        state = self.programmed_state()
        assert state["blocks"][0]["page_state"][:5] == [PAGE_PROGRAMMED] * 4 + [PAGE_ERASED]
        FlashChip(GEOMETRY).load_state_dict(state)

    @pytest.mark.parametrize("offset,code", [(3, PAGE_ERASED), (4, PAGE_PROGRAMMED), (0, PAGE_ERASED)])
    def test_page_state_disagreeing_with_next_page_rejected(self, offset, code):
        state = self.programmed_state()
        state["blocks"][0]["page_state"][offset] = code
        with pytest.raises(ValueError, match="next_page"):
            FlashChip(GEOMETRY).load_state_dict(state)

    def test_short_column_rejected(self):
        state = self.programmed_state()
        del state["blocks"][0]["spare"][-1]
        with pytest.raises(ValueError, match="columns"):
            FlashChip(GEOMETRY).load_state_dict(state)
