"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from fiberlink import channel as chmod
from fiberlink import polcore


def make_test_channel(
    rotation=None,
    rng=None,
    day_rate=0.0,
    night_rate=0.0,
    pdl_axis=None,
    pdl_transmission=1.0,
):
    """Channel with explicit rotation and loss, zero drift by default."""
    if rotation is None:
        rotation = np.eye(3)
    if rng is None:
        rng = np.random.default_rng(0)
    if pdl_axis is None:
        pdl = polcore.PdlElement.from_axis(np.zeros(3), 1.0)
    else:
        pdl = polcore.PdlElement.from_axis(pdl_axis, pdl_transmission)
    return chmod.ChannelState(
        rng=rng, pdl=pdl, day_rate=day_rate, night_rate=night_rate,
        rotation=np.asarray(rotation, dtype=float),
    )


def random_mixed_state_2q(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_bloch(rng, pure=False):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if pure:
        return v
    return v * rng.uniform(0.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


GOLDEN_HASHES = Path(__file__).parent / "golden" / "preset_hashes.json"


def golden_hashes(preset: str) -> dict[str, str]:
    """SHA-256 of each output file of `preset` at its shipped seed, by name.

    Regenerate with `python3 tests/golden/regen.py` when a change means to
    alter preset outputs.
    """
    return json.loads(GOLDEN_HASHES.read_text())[preset]
