"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fiberlink import channel as chmod
from fiberlink import polcore, quantum
from fiberlink.output import read_csv_rows


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


def rotation_to_axis_angle(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Axis (unit vector) and angle in [0, pi] of a rotation matrix."""
    q = polcore._quaternion_of_rotation(m)
    w = min(1.0, max(-1.0, q[0]))
    angle = 2.0 * math.acos(w)
    v = np.array(q[1:])
    n = np.linalg.norm(v)
    if n < 1e-15:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return v / n, angle


def rotation_of_unitary(u: np.ndarray) -> np.ndarray:
    """Bloch rotation effected by conjugation with a 2x2 unitary."""
    m = np.empty((3, 3))
    for j, sj in enumerate(polcore.PAULI):
        t = u @ sj @ u.conj().T
        for i, si in enumerate(polcore.PAULI):
            m[i, j] = 0.5 * np.trace(si @ t).real
    return m


def bloch_of_ket(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.array([(ket.conj() @ (s @ ket)).real for s in polcore.PAULI])


def read_counts_csv(path) -> list[tuple[str, str, float, float]]:
    """Read a coincidence count table written by `quantum.write_counts_csv`."""
    header, rows = read_csv_rows(path)
    if tuple(header) != quantum.COUNTS_CSV_HEADER:
        raise ValueError(f"unexpected count-table header {tuple(header)}")
    return [(ba, bb, float(n), float(integration)) for ba, bb, n, integration in rows]


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
