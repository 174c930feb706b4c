"""cryptSSD: encryption-based sanitization and its key-compromise hole."""

import random

import pytest

from repro.ftl.crypto_based import CryptoFtl, T_CRYPTO_US, is_ciphertext
from repro.ftl.request import trim, write
from repro.security.attacker import KeyCompromiseAttacker, RawChipAttacker
from repro.ssd.device import SSD


@pytest.fixture
def ssd(tiny_config):
    return SSD(tiny_config, "cryptSSD")


class TestEncryption:
    def test_payloads_stored_as_ciphertext(self, ssd):
        ssd.submit(write(0, tag="f", secure=True))
        payloads = list(ssd.raw_dump().values())
        assert len(payloads) == 1
        assert is_ciphertext(payloads[0])

    def test_each_version_gets_its_own_key(self, ssd):
        ssd.submit(write(0, secure=True))
        ssd.submit(write(1, secure=True))
        kids = [p[1] for p in ssd.raw_dump().values()]
        assert len(set(kids)) == 2

    def test_controller_decrypts_live_data(self, ssd):
        ssd.submit(write(0, tag="f", secure=True))
        ftl: CryptoFtl = ssd.ftl
        gppa = ftl.mapped_gppa(0)
        chip_id, ppn = ftl.split_gppa(gppa)
        payload = ftl.chips[chip_id].read_page(ppn).data
        assert ftl.decrypt(payload) == (0, "f", 0)

    def test_gc_moves_keep_the_key(self, ssd, tiny_config):
        rng = random.Random(0)
        span = int(tiny_config.logical_pages * 0.85)
        for _ in range(tiny_config.physical_pages * 2):
            ssd.submit(write(rng.randrange(span), secure=True))
        ftl: CryptoFtl = ssd.ftl
        assert ftl.stats.gc_copies > 0
        # every live page must still decrypt
        for lpa in range(span):
            gppa = ftl.mapped_gppa(lpa)
            if gppa < 0:
                continue
            chip_id, ppn = ftl.split_gppa(gppa)
            payload = ftl.chips[chip_id].read_page(ppn).data
            plaintext = ftl.decrypt(payload)
            assert plaintext is not None and plaintext[0] == lpa

    def test_crypto_engine_costs_transfer_time(self, tiny_config):
        plain = SSD(tiny_config, "baseline")
        crypt = SSD(tiny_config, "cryptSSD")
        assert crypt.ftl.timing.t_xfer_us == pytest.approx(
            plain.ftl.timing.t_xfer_us + T_CRYPTO_US
        )


class TestKeyDeletion:
    def test_update_deletes_old_key(self, ssd):
        ssd.submit(write(0, secure=True))
        old_kid = next(iter(ssd.raw_dump().values()))[1]
        ssd.submit(write(0, secure=True))
        ftl: CryptoFtl = ssd.ftl
        assert not ftl.key_exists(old_kid)
        assert ftl.key_deletions == 1

    def test_trim_deletes_key(self, ssd):
        ssd.submit(write(0, secure=True))
        kid = next(iter(ssd.raw_dump().values()))[1]
        ssd.submit(trim(0))
        assert not ssd.ftl.key_exists(kid)

    def test_insecure_data_keeps_keys(self, ssd):
        ssd.submit(write(0, secure=False))
        ssd.submit(write(0, secure=False))
        assert ssd.ftl.key_deletions == 0

    def test_no_flash_ops_for_sanitize(self, ssd):
        """Key deletion is the whole point: zero lock/scrub/erase cost."""
        ssd.submit(write(0, secure=True))
        ssd.submit(write(0, secure=True))
        stats = ssd.stats
        assert stats.plocks == 0
        assert stats.scrubs == 0
        assert stats.sanitize_erases == 0


class TestSecurity:
    def test_plain_attacker_defeated(self, ssd):
        ssd.submit(write(0, tag="secret", secure=True))
        ssd.submit(trim(0))
        assert not RawChipAttacker(ssd).recover_file("secret")
        # the stale ciphertext is physically present but unreadable
        assert any(is_ciphertext(p) for p in ssd.raw_dump().values())

    def test_key_compromise_recovers_deleted_data(self, ssd):
        """The paper's Section 8 critique, made executable."""
        ssd.submit(write(0, tag="secret", secure=True))
        attacker = KeyCompromiseAttacker(ssd)
        snapshot = attacker.snapshot_keys()   # cold boot before the delete
        ssd.submit(trim(0))                   # "secure" delete by key removal
        recovered = attacker.recover_file_with_keys("secret", snapshot)
        assert len(recovered) == 1
        assert recovered[0].payload == (0, "secret", 0)

    def test_late_snapshot_recovers_nothing(self, ssd):
        """Keys snapshotted *after* deletion are already gone."""
        ssd.submit(write(0, tag="secret", secure=True))
        ssd.submit(trim(0))
        attacker = KeyCompromiseAttacker(ssd)
        snapshot = attacker.snapshot_keys()
        assert not attacker.recover_file_with_keys("secret", snapshot)

    def test_evanesco_immune_to_key_compromise(self, tiny_config):
        """secSSD blocks access on-chip: leaked keys change nothing."""
        ssd = SSD(tiny_config, "secSSD")
        ssd.submit(write(0, tag="secret", secure=True))
        attacker = KeyCompromiseAttacker(ssd)
        snapshot = attacker.snapshot_keys()
        ssd.submit(trim(0))
        assert not attacker.recover_file_with_keys("secret", snapshot)
