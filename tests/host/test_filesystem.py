"""File-system layer: allocation, in-place writes, trim-on-delete."""

import pytest

from repro.host.fileapi import FileSystemError, OpenFlags, OutOfSpaceError
from repro.host.filesystem import FileSystem, _contiguous_runs
from repro.ssd.device import SSD


@pytest.fixture
def fs(tiny_config):
    return FileSystem(SSD(tiny_config, "baseline"))


@pytest.fixture
def secure_fs(tiny_config):
    return FileSystem(SSD(tiny_config, "secSSD"))


class TestCreateDelete:
    def test_create(self, fs):
        info = fs.create("a")
        assert info.name == "a"
        assert info.size_pages == 0
        assert fs.exists("a")

    def test_duplicate_create_rejected(self, fs):
        fs.create("a")
        with pytest.raises(FileSystemError):
            fs.create("a")

    def test_delete_frees_space(self, fs):
        fs.create("a")
        fs.append("a", 10)
        used = fs.used_pages
        fs.delete("a")
        assert fs.used_pages == used - 10
        assert not fs.exists("a")

    def test_delete_sends_trim(self, fs):
        fs.create("a")
        fs.append("a", 4)
        fs.delete("a")
        assert fs.ssd.stats.host_trims == 4

    def test_missing_file(self, fs):
        with pytest.raises(FileSystemError):
            fs.lookup("ghost")

    def test_lpa_reuse_after_delete(self, fs):
        fs.create("a")
        fs.append("a", 4)
        lpas = list(fs.lookup("a").lpas)
        fs.delete("a")
        fs.create("b")
        fs.append("b", 4)
        assert set(fs.lookup("b").lpas) <= set(lpas) | set(range(fs.capacity_pages))


class TestWriteSemantics:
    def test_append_grows_file(self, fs):
        fs.create("a")
        fs.append("a", 3)
        fs.append("a", 2)
        assert fs.lookup("a").size_pages == 5

    def test_overwrite_keeps_same_lpas(self, fs):
        """ext4 semantics: in-place update re-writes the same LPAs."""
        fs.create("a")
        fs.append("a", 4)
        before = list(fs.lookup("a").lpas)
        fs.write("a", 0, 4)
        assert fs.lookup("a").lpas == before

    def test_write_extends_past_eof(self, fs):
        fs.create("a")
        fs.write("a", 0, 2)
        fs.write("a", 1, 3)  # overlaps last page, extends by 2
        assert fs.lookup("a").size_pages == 4

    def test_sparse_write_rejected(self, fs):
        fs.create("a")
        with pytest.raises(FileSystemError):
            fs.write("a", 5, 1)

    def test_zero_pages_rejected(self, fs):
        fs.create("a")
        with pytest.raises(ValueError):
            fs.write("a", 0, 0)

    def test_overwrite_whole(self, fs):
        fs.create("a")
        fs.append("a", 4)
        writes_before = fs.ssd.stats.host_writes
        fs.overwrite_whole("a")
        assert fs.ssd.stats.host_writes == writes_before + 4

    def test_out_of_space(self, fs):
        fs.create("big")
        with pytest.raises(OutOfSpaceError):
            fs.append("big", fs.capacity_pages + 1)
        # the pages allocated before the error stay on the file, unwritten
        assert fs.lookup("big").size_pages == fs.capacity_pages
        assert fs.used_pages == fs.capacity_pages
        assert fs.ssd.stats.host_writes == 0

    def test_validation_order(self, fs):
        with pytest.raises(ValueError):
            fs.write("ghost", 0, 0)  # npages is checked before the lookup
        with pytest.raises(FileSystemError):
            fs.append("ghost", 0)  # append looks the file up first
        fs.create("a")
        with pytest.raises(ValueError):
            fs.append("a", 0)
        with pytest.raises(FileSystemError):
            fs.write("a", 1, 1)  # sparse write beyond EOF

    def test_read_whole_file(self, fs):
        fs.create("a")
        fs.append("a", 3)
        fs.read("a")
        assert fs.ssd.stats.host_reads == 3

    def test_read_subrange(self, fs):
        fs.create("a")
        fs.append("a", 5)
        fs.read("a", 1, 2)
        assert fs.ssd.stats.host_reads == 2


class TestSecurityFlags:
    def test_default_files_are_secure(self, fs):
        assert fs.create("a").secure

    def test_o_insec_files_are_insecure(self, fs):
        assert not fs.create("a", OpenFlags.O_INSEC).secure

    def test_insec_propagates_to_device(self, secure_fs):
        from repro.ftl.page_status import PageStatus

        secure_fs.create("s")
        secure_fs.append("s", 1)
        secure_fs.create("i", OpenFlags.O_INSEC)
        secure_fs.append("i", 1)
        ftl = secure_fs.ssd.ftl
        s_gppa = ftl.mapped_gppa(secure_fs.lookup("s").lpas[0])
        i_gppa = ftl.mapped_gppa(secure_fs.lookup("i").lpas[0])
        assert ftl.status.get(s_gppa) is PageStatus.SECURED
        assert ftl.status.get(i_gppa) is PageStatus.VALID

    def test_secure_delete_is_immediate(self, secure_fs):
        secure_fs.create("secret")
        secure_fs.append("secret", 4)
        fid = secure_fs.lookup("secret").fid
        secure_fs.delete("secret")
        dump = secure_fs.ssd.raw_dump()
        assert not any(
            isinstance(v, tuple) and v[1] == fid for v in dump.values()
        )


class TestContiguousRuns:
    def test_empty(self):
        assert list(_contiguous_runs([])) == []

    def test_single(self):
        assert list(_contiguous_runs([5])) == [(5, 1)]

    def test_contiguous(self):
        assert list(_contiguous_runs([1, 2, 3])) == [(1, 3)]

    def test_gaps(self):
        assert list(_contiguous_runs([1, 2, 5, 6, 9])) == [(1, 2), (5, 2), (9, 1)]

    def test_request_batching(self, fs):
        """A contiguous file write arrives as one device request."""
        fs.create("a")
        fs.append("a", 6)  # fresh fs: allocator hands out 0..5
        # 6 pages -> at most a couple of requests, not 6
        assert fs.ssd.stats.host_writes == 6
