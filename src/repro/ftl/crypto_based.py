"""cryptSSD: encryption-based sanitization -- the Section 8 comparator.

Related work (Reardon's DNEFS, FeSSD, ...) sanitizes by encrypting every
data version under its own key and *deleting the key* when the data is
invalidated: without the key the ciphertext is useless, so key deletion
is an O(1), erase-free sanitize.

The paper's critique, which this model makes testable:

* encryption adds per-page compute on every read and write (we fold an
  AES-pipeline cost into the channel transfer time);
* key management is a single point of failure -- the Section 5.1
  attacker "can obtain any necessary passwords and encryption keys"
  (e.g. via a cold-boot attack).  A key-store snapshot taken *before*
  a deletion decrypts ciphertext that is sanitized only by key deletion
  *after* the snapshot.  Evanesco is complementary: a locked page
  returns zeros no matter what keys leak.

Simulation encoding: a programmed payload is ``("enc", key_id,
plaintext_token)``; the controller's key store maps ``key_id -> True``.
GC copies move ciphertext verbatim (same key).  Secured invalidation by
the host deletes the version's key.
"""

from __future__ import annotations

from repro.ftl.base import InvalidationEvent, PageMappedFtl

#: marker of ciphertext payloads.
ENC_MARKER = "enc"

#: per-page AES-engine latency folded into each transfer (us).  An
#: inline AES-XTS pipeline at ~1 GB/s adds ~16 us per 16-KiB page.
T_CRYPTO_US = 16.0


def is_ciphertext(payload: object) -> bool:
    return (
        isinstance(payload, tuple)
        and len(payload) == 3
        and payload[0] == ENC_MARKER
    )


class CryptoFtl(PageMappedFtl):
    """Key-per-version encrypting FTL with delete-by-key sanitization."""

    name = "cryptSSD"
    tracks_secure = True
    #: key deletion sanitizes on *version death* only: a GC copy's stale
    #: ciphertext legitimately keeps its key while the version lives.
    sanitize_scope = "version-death"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.key_store: dict[int, bool] = {}
        self._next_key = 0
        self.key_deletions = 0
        # the crypto engine sits on the data path: every page transfer
        # pays the AES pipeline latency, reads and writes alike
        self.timing.t_xfer_us += T_CRYPTO_US

    # ------------------------------------------------------------------
    def _program_new_page(self, chip_id: int, data: object, spare: dict) -> int:
        if not is_ciphertext(data):
            key_id = self._next_key
            self._next_key += 1
            self.key_store[key_id] = True
            data = (ENC_MARKER, key_id, data)
        # GC moves arrive already encrypted and keep their key
        return super()._program_new_page(chip_id, data, spare)

    # ------------------------------------------------------------------
    def _sanitize_host_batch(self, events: list[InvalidationEvent]) -> None:
        """Delete the keys of dying secured versions (O(1), no flash op)."""
        for event in events:
            if not event.was_secured:
                continue
            chip_id, ppn = self.split_gppa(event.gppa)
            block_index, offset = self.geometry.split_ppn(ppn)
            payload = self.chips[chip_id].blocks[block_index].data[offset]
            if is_ciphertext(payload):
                key_id = payload[1]
                if self.key_store.pop(key_id, None) is not None:
                    self.key_deletions += 1
                # the ciphertext is unreadable the moment its key is gone,
                # whether this copy or the pop on an earlier copy removed it
                self.observer.on_sanitize(event.gppa, "key_delete")

    # GC moves copy ciphertext under the same key; the stale copy is the
    # same *version* as the live one, so its key must survive -- the
    # default _finish_victim (lazy retire, no sanitize) is correct here.

    # ------------------------------------------------------------------
    def key_exists(self, key_id: int) -> bool:
        return key_id in self.key_store

    def decrypt(self, payload: object) -> object | None:
        """Controller-side decrypt: None when the key is gone."""
        if not is_ciphertext(payload):
            return payload
        _, key_id, plaintext = payload
        if key_id not in self.key_store:
            return None
        return plaintext

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        state = super().state_dict()
        state["key_store"] = dict(self.key_store)
        state["next_key"] = self._next_key
        state["key_deletions"] = self.key_deletions
        return state

    def load_state_dict(self, state: dict[str, object]) -> None:
        super().load_state_dict(state)
        self.key_store = dict(state["key_store"])
        self._next_key = state["next_key"]
        self.key_deletions = state["key_deletions"]
