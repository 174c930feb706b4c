"""Tagged-JSON codec: exact round-trips, canonical bytes, strictness."""

from __future__ import annotations

import json
import random
from collections import deque
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.codec import (
    _ENUMS,
    _SCALARS,
    TAG,
    CodecError,
    canonical_dumps,
    decode,
    encode,
    section_checksum,
)
from repro.faults import FaultKind
from repro.flash.block import BlockState
from repro.ftl.page_status import PageStatus


def roundtrip(value):
    return decode(encode(value))


class TestRoundTrips:
    def test_scalars(self):
        for value in (None, True, False, 0, -7, 3.25, "text", ""):
            out = roundtrip(value)
            assert out == value
            assert type(out) is type(value)

    def test_tuple_vs_list_distinction(self):
        value = [(0, "host", 3), [1, 2], ("gc",)]
        out = roundtrip(value)
        assert out == value
        assert isinstance(out[0], tuple)
        assert isinstance(out[1], list)

    def test_nested_containers(self):
        value = {"q": deque([1, (2, 3)]), "s": {4, 5}, "t": (deque(), set())}
        out = roundtrip(value)
        assert out == value
        assert isinstance(out["q"], deque)
        assert isinstance(out["s"], set)
        assert isinstance(out["t"][0], deque)

    def test_enums(self):
        value = [PageStatus.SECURED, FaultKind.POWER_LOSS]
        out = roundtrip(value)
        assert out == value
        assert type(out[0]) is PageStatus
        assert type(out[1]) is FaultKind

    def test_int_keyed_dict(self):
        value = {3: "a", 1: (True,)}
        out = roundtrip(value)
        assert out == value
        assert all(isinstance(k, int) for k in out)

    def test_dict_with_literal_tag_key(self):
        value = {"__t": "not-a-tag", "x": 1}
        assert roundtrip(value) == value

    def test_ndarray_exact(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        out = roundtrip(arr)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert (out == arr).all()

    def test_python_random_state_via_tuple(self):
        rng = random.Random(7)
        rng.random()
        state = rng.getstate()
        clone = random.Random()
        clone.setstate(roundtrip(state))
        assert clone.random() == rng.random()

    def test_numpy_generator_stream_continues(self):
        rng = np.random.default_rng(5)
        rng.random(3)
        clone = roundtrip(rng)
        assert (clone.random(4) == rng.random(4)).all()


class TestCanonicalBytes:
    def test_key_order_does_not_matter(self):
        a = canonical_dumps(encode({"b": 1, "a": 2}))
        b = canonical_dumps(encode({"a": 2, "b": 1}))
        assert a == b

    def test_set_order_does_not_matter(self):
        a = canonical_dumps(encode({3, 1, 2}))
        b = canonical_dumps(encode({2, 3, 1}))
        assert a == b

    def test_trailing_newline(self):
        assert canonical_dumps(encode([1])).endswith("\n")

    def test_checksum_tracks_content(self):
        a = section_checksum(canonical_dumps(encode({"x": 1})))
        b = section_checksum(canonical_dumps(encode({"x": 2})))
        assert a != b
        assert len(a) == 64


class TestStrictness:
    def test_unknown_type_rejected_on_encode(self):
        class Opaque:
            pass

        with pytest.raises(CodecError):
            encode(Opaque())

    def test_unknown_tag_rejected_on_decode(self):
        with pytest.raises(CodecError):
            decode({"__t": "mystery", "v": []})

    def test_unknown_enum_member_rejected(self):
        with pytest.raises(CodecError):
            decode({"__t": "enum", "cls": "FaultKind", "name": "NOPE"})

    def test_unknown_enum_class_rejected(self):
        with pytest.raises(CodecError):
            decode({"__t": "enum", "cls": "Ghost", "name": "X"})


# -- differential: exact-type heads vs the plain isinstance chain --------
#
# reference_encode/reference_decode are the codec as it was before it grew
# its exact-type heads.  The heads are a pure speed-up, so for any value
# both codecs must agree byte for byte (or raise CodecError together).


def reference_encode(value):
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
        return {TAG: "tuple", "v": [reference_encode(item) for item in value]}
    if isinstance(value, deque):
        return {TAG: "deque", "v": [reference_encode(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        try:
            items = sorted(value)
        except TypeError as exc:
            raise CodecError(f"unsortable set cannot be checkpointed: {exc}")
        return {TAG: "set", "v": [reference_encode(item) for item in items]}
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
        return {TAG: "nprng", "state": reference_encode(value.bit_generator.state)}
    if isinstance(value, list):
        return [reference_encode(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and TAG not in value:
            return {k: reference_encode(v) for k, v in value.items()}
        return {
            TAG: "dict",
            "v": [[reference_encode(k), reference_encode(v)] for k, v in value.items()],
        }
    raise CodecError(f"cannot checkpoint value of type {type(value).__name__}")


def reference_decode(value):
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, list):
        return [reference_decode(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(TAG)
        if tag is None:
            return {k: reference_decode(v) for k, v in value.items()}
        if tag == "tuple":
            return tuple(reference_decode(item) for item in value["v"])
        if tag == "deque":
            return deque(reference_decode(item) for item in value["v"])
        if tag == "set":
            return {reference_decode(item) for item in value["v"]}
        if tag == "enum":
            return _ENUMS[value["cls"]][value["name"]]
        if tag == "dict":
            return {reference_decode(k): reference_decode(v) for k, v in value["v"]}
        if tag == "ndarray":
            arr = np.array(value["v"], dtype=np.dtype(value["dtype"]))
            return arr.reshape(tuple(value["shape"]))
        if tag == "npscalar":
            return np.dtype(value["dtype"]).type(value["v"])
        raise CodecError(f"unknown codec tag: {tag!r}")
    raise CodecError(f"cannot decode value of type {type(value).__name__}")


class Key(str):
    """A str subclass: plain-dict keys in the chain, never the fast head."""


class Stray(Enum):
    """An enum the codec has not registered."""

    X = 1


class Opaque:
    pass


def _outcome(encoder, value):
    try:
        return canonical_dumps(encoder(value))
    except CodecError as exc:
        return ("CodecError", str(exc))


def assert_same(out, expected):
    """Deep equality that also requires the exact type at every node."""
    assert type(out) is type(expected), (out, expected)
    if isinstance(expected, np.ndarray):
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tolist() == expected.tolist()
    elif isinstance(expected, dict):
        assert len(out) == len(expected)
        for (ko, vo), (ke, ve) in zip(out.items(), expected.items()):
            assert_same(ko, ke)
            assert_same(vo, ve)
    elif isinstance(expected, (set, frozenset)):
        assert out == expected
        for a, b in zip(sorted(out), sorted(expected)):
            assert_same(a, b)
    elif isinstance(expected, (list, tuple, deque)):
        assert len(out) == len(expected)
        for a, b in zip(out, expected):
            assert_same(a, b)
    else:
        assert out == expected


_ints = st.integers(-(2**63), 2**63 - 1)
_floats = st.floats(allow_nan=False)
_plain = st.one_of(st.none(), st.booleans(), _ints, _floats, st.text(max_size=6))
_encodable_leaves = st.one_of(
    _plain,
    st.builds(Key, st.text(max_size=4)),
    st.builds(np.float64, _floats),
    st.builds(np.int64, _ints),
    st.sampled_from([*PageStatus, *FaultKind, *BlockState]),
    st.lists(_ints, max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(_floats, max_size=4).map(lambda v: np.array(v, dtype=np.float64)),
    st.frozensets(_ints, max_size=4).map(set),
    st.frozensets(st.text(max_size=4), max_size=4).map(set),
)
_keys = st.one_of(
    st.text(max_size=4),
    st.builds(Key, st.text(max_size=4)),
    _ints,
    st.just(TAG),
    st.sampled_from([*FaultKind]),
)


def _nested(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4).map(deque),
            st.dictionaries(st.text(max_size=4), children, max_size=4),
            st.dictionaries(_keys, children, max_size=4),
            st.builds(
                lambda d, v: {**d, TAG: v},
                st.dictionaries(st.text(max_size=4), children, max_size=2),
                children,
            ),
        ),
        max_leaves=12,
    )


_encodable = _nested(_encodable_leaves)
_anything = _nested(
    st.one_of(_encodable_leaves, st.just(Stray.X), st.builds(Opaque))
)


class TestExactTypeHeads:
    @settings(max_examples=300, deadline=None)
    @given(_anything)
    def test_encode_matches_reference_bytes(self, value):
        assert _outcome(encode, value) == _outcome(reference_encode, value)

    @settings(max_examples=300, deadline=None)
    @given(_encodable)
    def test_round_trip_keeps_exact_types(self, value):
        assert_same(decode(encode(value)), value)

    @settings(max_examples=300, deadline=None)
    @given(_encodable)
    def test_decode_of_json_matches_reference(self, value):
        text = canonical_dumps(encode(value))
        loaded = json.loads(text)
        out = decode(loaded)
        assert_same(out, reference_decode(loaded))
        assert canonical_dumps(encode(out)) == text

    def test_subclasses_take_the_chain(self):
        # np.float64 is a float subclass: passed through, not tagged
        assert encode([np.float64(0.5)]) == [0.5]
        assert type(encode([np.float64(0.5)])[0]) is np.float64
        # IntEnum members are ints to JSON, as they always were
        assert encode({"s": PageStatus.SECURED})["s"] is PageStatus.SECURED
        assert encode({Key("k"): 1}) == {"k": 1}
        assert encode({1: 2}) == {TAG: "dict", "v": [[1, 2]]}
