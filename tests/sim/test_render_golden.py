"""Golden pin on the rendered block-request stream of every named trace.

``capture_block_trace`` turns a file-level trace into the block requests
every variant replays.  A sha256 over each request's
``(op, lpa, npages, secure, tag)`` and the ``steady_start`` index pins
the render exactly, for the four named generators at two secure
fractions on a 12x8 device, seed 1, one capacity of steady writes.  Any
drift is a change in render semantics: every variant would then see
different host traffic.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.sim.runner import capture_block_trace
from repro.ssd import scaled_config

#: (workload, secure_fraction) -> sha256 of the rendered stream
GOLDENS = {
    ("DBServer", 0.7): (
        "a26ba30f144eaf5dbc832732a0bfd40f5d02504fc3e2aca31edcf215880ccdc0"
    ),
    ("DBServer", 1.0): (
        "af6058dc15a2c8fac772a40e1b58ce8308b7179fba58bef7642f8deeb48045b6"
    ),
    ("FileServer", 0.7): (
        "dc1f37311d587e321184feeccfd1f4616a467ffffa1da70bbd763905ae707aaa"
    ),
    ("FileServer", 1.0): (
        "9b92822547c0e1927ece6762b44a3c2a848e68331d0238ca19a42ed2a321ec1f"
    ),
    ("MailServer", 0.7): (
        "44b751d5895cdb6b67631504bf1c1b19430dec5392cf5a8f597807f22678ace1"
    ),
    ("MailServer", 1.0): (
        "00e9445ad7624072401a5d7b4932ccc86c1455226bd1fac6cf966274b5a7b30a"
    ),
    ("Mobile", 0.7): (
        "9975eb33a018034c00737e0ae0f937c4785bbd4cb0d2867d0aa375630b1a5c35"
    ),
    ("Mobile", 1.0): (
        "4d36ddb84418f5cc5646955c688ed13e1ef0ee06b1a72d641968d6b4e54d5e76"
    ),
}


def render_digest(requests, steady_start: int) -> str:
    """sha256 over the rendered requests and the steady-state boundary."""
    rows = [
        (r.op.value, r.lpa, r.npages, bool(r.secure), r.tag) for r in requests
    ]
    payload = json.dumps(
        {"requests": rows, "steady_start": steady_start},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize(("workload", "secure_fraction"), sorted(GOLDENS))
def test_render_golden(workload: str, secure_fraction: float) -> None:
    requests, steady_start = capture_block_trace(
        scaled_config(12, 8),
        workload,
        seed=1,
        secure_fraction=secure_fraction,
    )
    assert 0 < steady_start < len(requests)
    assert render_digest(requests, steady_start) == GOLDENS[
        (workload, secure_fraction)
    ]
