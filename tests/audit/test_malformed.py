"""Malformed archived traces fail with one ``path:line`` error, exit 2.

Each fixture under ``malformed/`` is an archive the offline audit must
refuse while loading it into columns, before any replay: a ``program``
without its ``gppa``, a non-numeric timestamp, an ``args`` that is not
an object, and a disclosure header that is not an object.  CI's audit
smoke runs the same files through the CLI.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.audit import audit_trace_file
from repro.cli import main

MALFORMED = Path(__file__).with_name("malformed")

#: fixture -> (line of the bad record, a fragment of the error)
CASES = {
    "program_without_gppa.jsonl": (1, "integer 'gppa' arg"),
    "time_not_a_number.jsonl": (2, "'ts_us' is not a number"),
    "args_not_an_object.jsonl": (1, "args is not an object"),
    "header_not_an_object.jsonl": (1, "header is not an object"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_loader_names_the_record(name):
    line, fragment = CASES[name]
    path = MALFORMED / name
    with pytest.raises(ValueError) as caught:
        audit_trace_file(path, pages_per_block=8)
    message = str(caught.value)
    assert message.startswith(f"{path}:{line}: ")
    assert fragment in message


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_prints_one_line_and_exits_two(name, capsys):
    line, fragment = CASES[name]
    path = MALFORMED / name
    assert main(["audit", str(path), "--pages-per-block", "8"]) == 2
    out, err = capsys.readouterr()
    (printed,) = out.splitlines()
    assert printed.startswith(f"audit: {path}:{line}: ")
    assert fragment in printed
    assert err == ""
