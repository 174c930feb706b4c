"""Trace persistence (JSONL save/load)."""

import json

import pytest

from repro.host.trace import TraceKind, TraceOp, append, create, delete, read, write
from repro.host.tracefile import load_trace, op_from_dict, op_to_dict, save_trace
from repro.workloads import WORKLOADS

SAMPLE = [
    create("a", insec=True),
    append("a", 4),
    write("a", 1, 2),
    read("a", 0, 3),
    delete("a"),
]


class TestRoundtrip:
    def test_dict_roundtrip(self):
        for op in SAMPLE:
            assert op_from_dict(op_to_dict(op)) == op

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = save_trace(path, SAMPLE)
        assert count == len(SAMPLE)
        assert list(load_trace(path)) == SAMPLE

    def test_workload_trace_roundtrip(self, tmp_path):
        gen = WORKLOADS["MailServer"](capacity_pages=512, seed=3)
        ops = list(gen.ops(write_multiplier=0.2))
        path = tmp_path / "mail.jsonl"
        save_trace(path, ops)
        assert list(load_trace(path)) == ops

    def test_lazy_streaming(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(path, SAMPLE)
        stream = load_trace(path)
        assert next(stream) == SAMPLE[0]  # nothing else consumed yet


class TestRobustness:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "create", "name": "x"}\n\n\n')
        ops = list(load_trace(path))
        assert len(ops) == 1
        assert ops[0].kind is TraceKind.CREATE

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            list(load_trace(path))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="bad trace record"):
            op_from_dict({"kind": "explode", "name": "x"})

    def test_missing_fields_default(self):
        op = op_from_dict({"kind": "read", "name": "f"})
        assert op == TraceOp(TraceKind.READ, "f", 0, 0, False)


MALFORMED = {
    "not-an-object": ([1, 2], "not a JSON object"),
    "a-string": ("create", "not a JSON object"),
    "missing-kind": ({"name": "x"}, "missing 'kind'"),
    "unknown-kind": ({"kind": "explode", "name": "x"}, "not a valid TraceKind"),
    "missing-name": ({"kind": "create"}, "missing 'name'"),
    "numeric-name": ({"kind": "create", "name": 7}, "is not a string"),
    "offset-not-int": (
        {"kind": "write", "name": "x", "offset": "x", "npages": 1},
        "invalid literal",
    ),
    "negative-npages": (
        {"kind": "append", "name": "x", "npages": -1},
        "must be non-negative",
    ),
    "negative-offset": (
        {"kind": "read", "name": "x", "offset": -2},
        "must be non-negative",
    ),
    "npages-null": ({"kind": "append", "name": "x", "npages": None}, "int()"),
}


class TestMalformedRecords:
    """Every malformed record is one labelled ``ValueError`` line."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_record_rejected_with_one_line(self, case):
        record, reason = MALFORMED[case]
        with pytest.raises(ValueError) as exc:
            op_from_dict(record)
        message = str(exc.value)
        assert message.startswith("bad trace record: ")
        assert reason in message
        assert "\n" not in message

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_load_prefixes_path_and_line(self, tmp_path, case):
        record, reason = MALFORMED[case]
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "create", "name": "ok"}\n\n' + json.dumps(record) + "\n"
        )
        stream = load_trace(path)
        assert next(stream) == create("ok")
        with pytest.raises(ValueError) as exc:
            next(stream)
        message = str(exc.value)
        assert message.startswith(f"{path}:3: bad trace record: ")
        assert reason in message
        assert "\n" not in message
