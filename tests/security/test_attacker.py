"""The Section 5.1 forensic attacker."""

import pytest

from repro.ftl.request import trim, write
from repro.security.attacker import RawChipAttacker
from repro.ssd.device import SSD


@pytest.fixture
def insecure(tiny_config):
    return SSD(tiny_config, "baseline")


@pytest.fixture
def secure(tiny_config):
    return SSD(tiny_config, "secSSD")


class TestAgainstInsecureSSD:
    def test_recovers_stale_versions(self, insecure):
        insecure.submit(write(0, tag="f"))
        insecure.submit(write(0, tag="f"))
        attacker = RawChipAttacker(insecure)
        versions = attacker.stale_versions_of(0)
        assert len(versions) == 2  # both the stale and the live copy

    def test_recovers_deleted_file(self, insecure):
        insecure.submit(write(0, tag="secret-file"))
        insecure.submit(trim(0))
        attacker = RawChipAttacker(insecure)
        assert attacker.recover_file("secret-file")

    def test_image_contains_everything_programmed(self, insecure):
        for lpa in range(8):
            insecure.submit(write(lpa, tag="f"))
        image = RawChipAttacker(insecure).image_device()
        assert len(image) == 8
        assert image.file_tags() == {"f"}


class TestAgainstSecureSSD:
    def test_cannot_recover_stale_versions(self, secure):
        secure.submit(write(0, tag="f", secure=True))
        secure.submit(write(0, tag="f", secure=True))
        versions = RawChipAttacker(secure).stale_versions_of(0)
        assert len(versions) == 1  # only the live copy

    def test_cannot_recover_deleted_file(self, secure):
        secure.submit(write(0, tag="secret-file", secure=True))
        secure.submit(trim(0))
        assert not RawChipAttacker(secure).recover_file("secret-file")

    def test_insecure_data_remains_exposed(self, secure):
        """O_INSEC data is explicitly out of the sanitization contract."""
        secure.submit(write(0, tag="public", secure=False))
        secure.submit(write(0, tag="public", secure=False))
        versions = RawChipAttacker(secure).stale_versions_of(0)
        assert len(versions) == 2


class TestImageHelpers:
    def test_recovered_page_accessors(self, insecure):
        insecure.submit(write(5, tag="t"))
        image = RawChipAttacker(insecure).image_device()
        page = image.pages[0]
        assert page.lpa == 5
        assert page.file_tag == "t"

    def test_non_tuple_payload_has_no_metadata(self, tiny_config):
        ssd = SSD(tiny_config, "scrSSD")
        ssd.submit(write(0, secure=True))
        ssd.submit(write(0, secure=True))  # scrubs the stale wordline
        image = RawChipAttacker(ssd).image_device()
        scrubbed = [p for p in image.pages if not isinstance(p.payload, tuple)]
        for page in scrubbed:
            assert page.lpa is None
            assert page.file_tag is None
