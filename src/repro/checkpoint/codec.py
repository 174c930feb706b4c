"""Tagged, versioned JSON codec for simulator state.

Plain JSON cannot round-trip the simulator's state: page payloads are
*tuples* (``(lpa, "host", seq)``) that FTL code distinguishes from
lists via ``isinstance``, bad-block tables are sets, allocator queues
are deques, page-status tables hold IntEnums, and the pLock model owns
a NumPy ``Generator``.  Everything that is not a JSON scalar is encoded
as a single-key-tagged object ``{"__t": kind, ...}`` and decoded back
to the exact original type.

Two properties matter more than compactness:

* **Determinism** -- :func:`canonical_dumps` emits sorted-key,
  no-whitespace JSON so the same state always produces the same bytes
  (and therefore the same :func:`section_checksum`).  Sets are emitted
  sorted; every set in the simulator (bad blocks, condemned blocks,
  retired blocks, pending GC victims) is membership-only, so sorting
  does not perturb behavior on restore.
* **Versioned strictness** -- unknown tags and malformed tagged objects
  raise :class:`CodecError` instead of degrading to dicts; a checkpoint
  either decodes exactly or fails loudly so the store can quarantine it.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from enum import Enum
from typing import Any

import numpy as np

from repro.faults import FaultKind
from repro.flash.block import BlockState
from repro.ftl.page_status import PageStatus
from repro.sim.ops import OpKind
from repro.ssd.request import RequestOp

__all__ = [
    "CodecError",
    "canonical_dumps",
    "decode",
    "encode",
    "section_checksum",
]

TAG = "__t"

# Every enum that may appear in device state.  Decoding looks classes up
# by name, so renaming an enum is a format break (bump FORMAT_VERSION in
# repro.checkpoint.store if you must).
_ENUMS: dict[str, type[Enum]] = {
    cls.__name__: cls
    for cls in (BlockState, PageStatus, RequestOp, FaultKind, OpKind)
}

_SCALARS = (str, int, float, bool, type(None))

#: the *exact* scalar types both heads below pass through untouched.
#: Subclasses (``IntEnum`` members, ``np.float64``, str subclasses) are
#: deliberately absent: they take the ``isinstance`` chain, so the exact-
#: type heads never change a single checkpoint byte.
_PLAIN = frozenset(_SCALARS)
_STR = frozenset({str})


class CodecError(ValueError):
    """A value cannot be encoded, or encoded bytes cannot be decoded."""


def encode(value: Any) -> Any:
    """Map a state value onto JSON-safe primitives, tagging rich types."""
    # Exact-type head: device state is overwhelmingly plain scalars,
    # lists, str-keyed dicts and tuples.  One type() lookup answers
    # those, with scalar items inlined rather than recursed into;
    # everything else falls through to the isinstance chain unchanged.
    vtype = type(value)
    if vtype in _PLAIN:
        return value
    if vtype is list:
        return [v if type(v) in _PLAIN else encode(v) for v in value]
    if vtype is tuple:
        return {
            TAG: "tuple",
            "v": [v if type(v) in _PLAIN else encode(v) for v in value],
        }
    if vtype is dict and TAG not in value and _STR.issuperset(map(type, value)):
        return {
            k: v if type(v) in _PLAIN else encode(v) for k, v in value.items()
        }
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Enum):
        cls = type(value).__name__
        if cls not in _ENUMS:
            raise CodecError(f"unregistered enum type: {cls}")
        return {TAG: "enum", "cls": cls, "name": value.name}
    if isinstance(value, tuple):
        return {TAG: "tuple", "v": [encode(item) for item in value]}
    if isinstance(value, deque):
        return {TAG: "deque", "v": [encode(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        try:
            items = sorted(value)
        except TypeError as exc:  # pragma: no cover - no heterogeneous sets
            raise CodecError(f"unsortable set cannot be checkpointed: {exc}")
        return {TAG: "set", "v": [encode(item) for item in items]}
    if isinstance(value, np.ndarray):
        return {
            TAG: "ndarray",
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "v": value.ravel().tolist(),
        }
    if isinstance(value, np.generic):
        return {TAG: "npscalar", "dtype": str(value.dtype), "v": value.item()}
    if isinstance(value, np.random.Generator):
        # bit_generator.state is a plain nested dict of ints/strings;
        # Python's json keeps arbitrary-precision ints exact.
        return {TAG: "nprng", "state": encode(value.bit_generator.state)}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and TAG not in value:
            return {k: encode(v) for k, v in value.items()}
        # non-string keys (int ppns, RequestOp, ...) or a colliding
        # literal "__t" key: encode as an explicit item list.
        return {
            TAG: "dict",
            "v": [[encode(k), encode(v)] for k, v in value.items()],
        }
    raise CodecError(f"cannot checkpoint value of type {type(value).__name__}")


def decode(value: Any) -> Any:
    """Inverse of :func:`encode`; strict about unknown tags."""
    # Dispatch on the exact type, as encode's head does: json.loads only
    # ever produces exact builtin types, and neither does encode emit a
    # list or dict subclass.  Scalar subclasses (an in-memory round trip
    # of an IntEnum or np.float64) still pass through.
    vtype = type(value)
    if vtype in _PLAIN:
        return value
    if vtype is list:
        return [v if type(v) in _PLAIN else decode(v) for v in value]
    if vtype is dict:
        tag = value.get(TAG)
        if tag is None:
            return {
                k: v if type(v) in _PLAIN else decode(v)
                for k, v in value.items()
            }
        if tag == "tuple":
            return tuple(decode(item) for item in value["v"])
        if tag == "deque":
            return deque(decode(item) for item in value["v"])
        if tag == "set":
            return {decode(item) for item in value["v"]}
        if tag == "enum":
            cls = _ENUMS.get(value["cls"])
            if cls is None:
                raise CodecError(f"unknown enum type in checkpoint: {value['cls']}")
            try:
                return cls[value["name"]]
            except KeyError:
                raise CodecError(
                    f"unknown member {value['name']!r} for enum {value['cls']}"
                )
        if tag == "dict":
            return {decode(k): decode(v) for k, v in value["v"]}
        if tag == "ndarray":
            arr = np.array(value["v"], dtype=np.dtype(value["dtype"]))
            return arr.reshape(tuple(value["shape"]))
        if tag == "npscalar":
            return np.dtype(value["dtype"]).type(value["v"])
        if tag == "nprng":
            gen = np.random.default_rng(0)
            gen.bit_generator.state = decode(value["state"])
            return gen
        raise CodecError(f"unknown codec tag: {tag!r}")
    if isinstance(value, _SCALARS):
        return value
    raise CodecError(f"cannot decode value of type {type(value).__name__}")


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, compact separators, newline.

    ``payload`` must already be encoded (JSON-safe).  The trailing
    newline keeps section files POSIX-friendly without affecting the
    checksum contract (the checksum covers the full file content,
    newline included).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def report_dumps(payload: Any) -> str:
    """Human-readable report JSON: sorted keys, two-space indent, newline.

    The one sanctioned writer for pretty report artifacts (``simulate
    --json``, ``fleet --json``, :meth:`SimResult.to_json`); deterministic for a
    given payload, like :func:`canonical_dumps`, but diff-friendly.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def section_checksum(content: str | bytes) -> str:
    """SHA-256 hex digest of a section's exact file content.

    Text is hashed as its UTF-8 bytes, so a writer that already holds
    the encoded bytes passes them straight in.
    """
    if isinstance(content, str):
        content = content.encode("utf-8")
    return hashlib.sha256(content).hexdigest()
