"""Trace records and replayer."""

import pytest

from repro.host.filesystem import FileSystem
from repro.host.trace import (
    TraceKind,
    TraceOp,
    TraceReplayer,
    append,
    create,
    delete,
    read,
    write,
)
from repro.ssd.device import SSD


@pytest.fixture
def replayer(tiny_config):
    return TraceReplayer(FileSystem(SSD(tiny_config, "baseline")))


class TestBuilders:
    def test_create(self):
        op = create("f", insec=True)
        assert op.kind is TraceKind.CREATE
        assert op.insec

    def test_write(self):
        op = write("f", 3, 2)
        assert (op.offset_pages, op.npages) == (3, 2)

    def test_append(self):
        assert append("f", 4).kind is TraceKind.APPEND

    def test_read_defaults(self):
        op = read("f")
        assert op.npages == 0  # whole file

    def test_delete(self):
        assert delete("f").kind is TraceKind.DELETE

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TraceOp(TraceKind.WRITE, "f", -1, 1)

    def test_immutable_and_replace_validates(self):
        op = write("f", 3, 2)
        with pytest.raises(AttributeError):
            op.npages = 5
        assert op._replace(npages=4) == write("f", 3, 4)
        with pytest.raises(ValueError):
            op._replace(npages=-1)


class TestReplay:
    def test_lifecycle(self, replayer):
        report = replayer.replay(
            [
                create("f"),
                append("f", 3),
                write("f", 0, 2),
                read("f"),
                delete("f"),
            ]
        )
        assert report.ops == 5
        assert report.creates == 1
        assert report.writes == 2
        assert report.pages_written == 5
        assert report.deletes == 1
        assert not replayer.fs.exists("f")

    def test_read_whole_file(self, replayer):
        replayer.replay([create("f"), append("f", 4), read("f")])
        assert replayer.fs.ssd.stats.host_reads == 4

    def test_insec_flag_respected(self, replayer):
        replayer.apply(create("f", insec=True))
        assert not replayer.fs.lookup("f").secure

    def test_report_counts_pages(self, replayer):
        report = replayer.replay([create("f"), append("f", 7), read("f", 0, 3)])
        assert report.pages_written == 7
        assert report.pages_read == 3
