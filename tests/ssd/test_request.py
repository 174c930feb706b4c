"""Host request types and the INSEC_WRITE flag."""

import pytest

from repro.ftl.request import (
    IoRequest,
    RequestFlags,
    RequestOp,
    read,
    trim,
    write,
)


class TestConstruction:
    def test_write_defaults_secure(self):
        req = write(10)
        assert req.secure
        assert req.op is RequestOp.WRITE

    def test_insecure_write(self):
        req = write(10, secure=False)
        assert not req.secure
        assert req.flags & RequestFlags.INSEC_WRITE

    def test_read_is_never_secure(self):
        assert not read(0).secure

    def test_trim_is_never_secure(self):
        assert not trim(0).secure

    def test_lpas_range(self):
        req = write(5, npages=3)
        assert list(req.lpas()) == [5, 6, 7]

    def test_tag_carried(self):
        assert write(0, tag=42).tag == 42

    def test_rejects_zero_pages(self):
        with pytest.raises(ValueError):
            IoRequest(RequestOp.READ, 0, 0)

    def test_rejects_negative_lpa(self):
        with pytest.raises(ValueError):
            IoRequest(RequestOp.READ, -1, 1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            write(0).lpa = 5


class TestRecord:
    """A request is an immutable tuple shared by every variant's replay."""

    def test_secure_decided_at_construction(self):
        req = IoRequest(RequestOp.WRITE, 3, 2, RequestFlags.INSEC_WRITE, "f")
        assert tuple(req) == (
            RequestOp.WRITE, 3, 2, RequestFlags.INSEC_WRITE, "f", False
        )
        assert IoRequest(RequestOp.WRITE, 3).secure is True
        assert IoRequest(RequestOp.TRIM, 3).secure is False

    def test_replace_revalidates_and_rederives(self):
        req = write(5, npages=2, tag=1)
        insec = req._replace(flags=RequestFlags.INSEC_WRITE)
        assert not insec.secure and insec.lpas() == range(5, 7)
        assert not req._replace(op=RequestOp.READ).secure
        with pytest.raises(ValueError):
            req._replace(npages=0)
        with pytest.raises(TypeError):
            req._replace(secure=False)

    def test_pickle_and_copy_roundtrip(self):
        import copy
        import pickle

        req = write(9, npages=3, secure=False, tag=("f", 2))
        assert pickle.loads(pickle.dumps(req)) == req
        assert copy.deepcopy(req) == req
        assert type(pickle.loads(pickle.dumps(req))) is IoRequest
