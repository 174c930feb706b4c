"""Checkpoint store: crash-consistency protocol and the corruption matrix.

Every corruption shape the ISSUE names -- truncation, per-section
bit-flip, missing manifest, stale format version, torn write -- must
end in quarantine + fallback to the previous good generation, or (when
no generation survives) a structured :class:`CheckpointError`, never a
traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.store import (
    FORMAT_VERSION,
    CheckpointError,
    CheckpointStore,
    Segment,
    StoreCrashInjected,
)

STATE_A = {"table": (1, 2, 3), "bad": {4}, "note": "gen one"}
STATE_B = {"table": (9, 8, 7), "bad": set(), "note": "gen two"}


def two_generations(root) -> CheckpointStore:
    store = CheckpointStore(root)
    store.write_generation({"ftl": STATE_A, "chips": [1]}, meta={"stop": 10})
    store.write_generation({"ftl": STATE_B, "chips": [2]}, meta={"stop": 20})
    return store


def gen_dir(store: CheckpointStore, generation: int):
    return store.root / f"gen-{generation:06d}"


class TestWriteRead:
    def test_round_trip_newest(self, tmp_path):
        store = two_generations(tmp_path)
        load = store.latest_good()
        assert load.generation == 2
        assert load.sections["ftl"] == STATE_B
        assert load.meta["stop"] == 20
        assert load.corrupt == []

    def test_generation_numbers_ascend(self, tmp_path):
        store = two_generations(tmp_path)
        assert store.generations() == [1, 2]
        assert store.write_generation({"ftl": STATE_A}) == 3

    def test_campaign_manifest_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.read_campaign_manifest() is None
        store.write_campaign_manifest({"seed": 7, "workload": "MailServer"})
        assert store.read_campaign_manifest() == {
            "seed": 7,
            "workload": "MailServer",
        }


class TestCrashPoints:
    @pytest.mark.parametrize("point", ["section:chips", "section:ftl", "manifest"])
    def test_crash_before_rename_preserves_prior_generations(
        self, tmp_path, point
    ):
        store = two_generations(tmp_path)
        store._crash_after = point
        with pytest.raises(StoreCrashInjected):
            store.write_generation({"chips": [3], "ftl": STATE_A})
        # the torn tmp directory is swept + quarantined, gen 2 still wins
        load = store.latest_good()
        assert load.generation == 2
        assert [r.reason for r in load.corrupt] == ["torn-write"]
        assert (store.root / "quarantine").is_dir()

    def test_crash_after_rename_is_a_complete_generation(self, tmp_path):
        store = two_generations(tmp_path)
        store._crash_after = "rename"
        with pytest.raises(StoreCrashInjected):
            store.write_generation({"ftl": STATE_A})
        load = store.latest_good()
        assert load.generation == 3
        assert load.corrupt == []


class TestCorruptionMatrix:
    def test_truncated_section_falls_back(self, tmp_path):
        store = two_generations(tmp_path)
        target = gen_dir(store, 2) / "ftl.json"
        target.write_bytes(target.read_bytes()[:10])
        load = store.latest_good()
        assert load.generation == 1
        assert load.sections["ftl"] == STATE_A
        assert [r.generation for r in load.corrupt] == [2]
        assert "gen-000002" in load.corrupt[0].quarantined_to

    def test_bit_flip_in_each_section(self, tmp_path):
        for section in ("ftl", "chips"):
            root = tmp_path / section
            store = two_generations(root)
            target = gen_dir(store, 2) / f"{section}.json"
            raw = bytearray(target.read_bytes())
            raw[len(raw) // 2] ^= 0x01
            target.write_bytes(bytes(raw))
            load = store.latest_good()
            assert load.generation == 1
            assert load.corrupt[0].reason == "bad-checksum"
            assert section in load.corrupt[0].detail

    def test_missing_manifest_falls_back(self, tmp_path):
        store = two_generations(tmp_path)
        (gen_dir(store, 2) / "MANIFEST.json").unlink()
        load = store.latest_good()
        assert load.generation == 1
        assert len(load.corrupt) == 1

    def test_missing_section_file_falls_back(self, tmp_path):
        store = two_generations(tmp_path)
        (gen_dir(store, 2) / "chips.json").unlink()
        load = store.latest_good()
        assert load.generation == 1
        assert len(load.corrupt) == 1

    def test_stale_format_version_falls_back(self, tmp_path):
        store = two_generations(tmp_path)
        mpath = gen_dir(store, 2) / "MANIFEST.json"
        manifest = json.loads(mpath.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        mpath.write_text(json.dumps(manifest))
        load = store.latest_good()
        assert load.generation == 1
        assert len(load.corrupt) == 1

    def test_all_generations_corrupt_raises_structured_error(self, tmp_path):
        store = two_generations(tmp_path)
        for generation in (1, 2):
            target = gen_dir(store, generation) / "ftl.json"
            target.write_bytes(b"garbage")
        with pytest.raises(CheckpointError) as excinfo:
            store.latest_good()
        err = excinfo.value
        assert len(err.reports) == 2
        text = err.render()
        assert "quarantined" in text

    def test_empty_store_raises_structured_error(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError) as excinfo:
            store.latest_good()
        assert excinfo.value.reports == []
        assert "no checkpoint generations" in excinfo.value.render()

    def test_quarantine_preserves_evidence(self, tmp_path):
        store = two_generations(tmp_path)
        target = gen_dir(store, 2) / "ftl.json"
        target.write_bytes(b"garbage")
        store.latest_good()
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert (quarantined[0] / "ftl.json").read_bytes() == b"garbage"


def stream_segment(items, since, live_from=0):
    """The new tail of an append-only stream, as a section value."""
    return Segment(
        first=since,
        count=len(items) - since,
        live_from=live_from,
        payload=items[since:],
    )


class TestSegmentChains:
    def test_each_generation_writes_only_its_tail(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stream = ["a", "b", "c"]
        store.write_generation({"log": stream_segment(stream, 0)})
        assert store.cursor("log") == 3
        stream += ["d", "e"]
        store.write_generation({"log": stream_segment(stream, 3)})
        manifest = json.loads(
            (gen_dir(store, 2) / "MANIFEST.json").read_text()
        )
        assert [
            (e["file"], e["first"], e["count"])
            for e in manifest["chains"]["log"]
        ] == [
            ("gen-000001/log.segment.json", 0, 3),
            ("gen-000002/log.segment.json", 3, 2),
        ]
        assert json.loads(
            (gen_dir(store, 2) / "log.segment.json").read_text()
        ) == ["d", "e"]
        load = CheckpointStore(tmp_path).latest_good()
        assert load.sections["log"] == [["a", "b", "c"], ["d", "e"]]

    def test_chain_drops_segments_older_than_the_live_range(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stream = list(range(4))
        store.write_generation({"log": stream_segment(stream, 0)})
        stream += [4, 5]
        store.write_generation({"log": stream_segment(stream, 4)})
        stream += [6]
        store.write_generation({"log": stream_segment(stream, 6, live_from=4)})
        load = CheckpointStore(tmp_path).latest_good()
        assert load.sections["log"] == [[4, 5], [6]]

    def test_cursor_follows_the_loaded_generation(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_generation({"log": stream_segment([1, 2], 0)})
        store.write_generation({"log": stream_segment([1, 2, 3], 2)})
        (gen_dir(store, 2) / "MANIFEST.json").unlink()
        resumed = CheckpointStore(tmp_path)
        assert resumed.latest_good().generation == 1
        assert resumed.cursor("log") == 2

    def test_corrupt_segment_fails_every_generation_listing_it(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stream = [1]
        store.write_generation({"log": stream_segment(stream, 0)})
        for n in (2, 3, 4):
            stream.append(n)
            store.write_generation({"log": stream_segment(stream, n - 1)})
        target = gen_dir(store, 2) / "log.segment.json"
        raw = bytearray(target.read_bytes())
        raw[1] ^= 0x01
        target.write_bytes(bytes(raw))
        load = store.latest_good()
        assert load.generation == 1
        assert [(r.generation, r.reason) for r in load.corrupt] == [
            (4, "bad-checksum"), (3, "bad-checksum"), (2, "bad-checksum"),
        ]


GOOD_ENTRY = {
    "checksum": "0" * 64, "count": 1, "file": "gen-000001/log.segment.json",
    "first": 0, "generation": 1, "size": 4,
}


class TestMalformedManifest:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: [],
            lambda m: "manifest",
            lambda m: {**m, "sections": {"ftl": "x"}},
            lambda m: {**m, "sections": {"ftl": {"checksum": 7}}},
            lambda m: {**m, "sections": []},
            lambda m: {**m, "meta": ["stop", 20]},
            lambda m: {**m, "chains": None},
            lambda m: {**m, "chains": {"log": {"first": 0}}},
            lambda m: {**m, "chains": {"log": ["entry"]}},
            lambda m: {**m, "chains": {"log": [{**GOOD_ENTRY, "count": "1"}]}},
            lambda m: {**m, "chains": {"log": [{**GOOD_ENTRY, "first": True}]}},
            lambda m: {**m, "chains": {"log": [{**GOOD_ENTRY, "count": 0}]}},
            lambda m: {
                **m, "chains": {"log": [{**GOOD_ENTRY, "file": "../x.json"}]}
            },
            lambda m: {**m, "chains": {"log": [{**GOOD_ENTRY, "generation": 9}]}},
            lambda m: {
                **m,
                "chains": {"log": [GOOD_ENTRY, {**GOOD_ENTRY, "first": 5}]},
            },
        ],
        ids=[
            "list", "string", "section-string", "section-checksum-int",
            "sections-list", "meta-list", "chains-null", "chain-object",
            "entry-string", "entry-count-str", "entry-first-bool",
            "entry-empty",
            "entry-file-escapes", "entry-from-the-future", "chain-gap",
        ],
    )
    def test_quarantined_as_bad_manifest(self, tmp_path, mutate):
        store = two_generations(tmp_path)
        mpath = gen_dir(store, 2) / "MANIFEST.json"
        mpath.write_text(json.dumps(mutate(json.loads(mpath.read_text()))))
        load = store.latest_good()
        assert load.generation == 1
        assert [(r.generation, r.reason) for r in load.corrupt] == [
            (2, "bad-manifest")
        ]
