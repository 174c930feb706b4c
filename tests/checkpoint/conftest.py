"""Fixtures for the checkpoint suite: a config every variant survives.

The 16-blocks-per-chip scale matters: it is the smallest device where
all six FTL variants complete the captured workload traces (the 8-block
``tiny_config`` is too small for erSSD's lazy-erase window under the
MailServer/DBServer traces).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ssd.config import scaled_config


@pytest.fixture
def ck_config():
    return dataclasses.replace(
        scaled_config(blocks_per_chip=16, wordlines_per_block=4),
        n_channels=1,
        chips_per_channel=2,
    )
