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


def rotation_about_oracle(axis, angle) -> np.ndarray:
    """One right-handed rotation by `angle` (rad) about `axis` in the
    Rodrigues form, scalar: the reference for `polcore.rotation_about`."""
    a = np.asarray(axis, dtype=float)
    n = math.sqrt(a @ a)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    a = a / n
    k = np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def drift_step_oracle(ch, dt) -> tuple[np.ndarray, polcore.PdlElement]:
    """One drift step of `ch`, scalar: the reference for `ChannelState.walk`.

    A nonzero rate draws three axis normals (redrawn while the axis is too
    short to normalize) and one angle normal, and the step's rotation is
    `rotation_about_oracle`, all drawn from `ch.rng`; spikes on then draw
    one uniform from `ch.spike_rng`. Returns the rotation and the loss
    element after the step.
    """
    rate = ch.rate_at(ch.clock_s)
    if rate > 0.0:
        v = ch.rng.normal(size=3)
        while math.sqrt(v @ v) < 1e-12:
            v = ch.rng.normal(size=3)
        angle = ch.rng.normal(0.0, math.sqrt(2.0 * rate * dt))
        ch.rotation = rotation_about_oracle(v / math.sqrt(v @ v), angle) @ ch.rotation
    ch.clock_s += dt
    rate = ch.spikes.rate_per_s
    if rate > 0.0 and ch.spike_rng.random() < 1.0 - math.exp(-rate * dt):
        ch._spike_until_s = ch.clock_s + ch.spikes.duration_s
    return ch.rotation, ch.current_pdl()


def piezo_quaternion_oracle(axes, gains, voltages) -> tuple[float, float, float, float]:
    """Net quaternion (w, x, y, z) of four piezo channels, from scratch.

    Channel i is the quaternion (cos h, sin h * a_i) with half angle
    h = gain_i * U_i / 2 about its axis a_i, which must be of unit length.
    Channel 1 acts first, so the product is q4 q3 q2 q1, each factor
    multiplied from the left. The terms of each component are summed in
    a fixed order, so equal inputs give equal floats.
    """
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    for (ax, ay, az), gain, volt in zip(axes, gains, voltages):
        h = 0.5 * float(gain) * float(volt)
        c, s = math.cos(h), math.sin(h)
        bx, by, bz = s * float(ax), s * float(ay), s * float(az)
        w, x, y, z = (
            c * w - bx * x - by * y - bz * z,
            c * x + bx * w + by * z - bz * y,
            c * y - bx * z + by * w + bz * x,
            c * z + bx * y - by * x + bz * w,
        )
    return w, x, y, z


def quaternion_of_rotation_oracle(m) -> tuple[float, float, float, float]:
    """Unit quaternion (w >= 0) of one rotation matrix, in scalar arithmetic:
    the reference for `polcore._quaternion_of_rotation`.

    The branch is picked by the trace, then by the largest diagonal element
    (the first one on ties).
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m, dtype=float).tolist()
    t = m00 + m11 + m22
    if t > 0:
        r = math.sqrt(1.0 + t)
        s = 0.5 / r
        w, x, y, z = 0.5 * r, (m21 - m12) * s, (m02 - m20) * s, (m10 - m01) * s
    elif m00 >= m11 and m00 >= m22:
        r = math.sqrt(1.0 + m00 - m11 - m22)
        s = 0.5 / r
        w, x, y, z = (m21 - m12) * s, 0.5 * r, (m10 + m01) * s, (m20 + m02) * s
    elif m11 >= m22:
        r = math.sqrt(1.0 + m11 - m22 - m00)
        s = 0.5 / r
        w, x, y, z = (m02 - m20) * s, (m01 + m10) * s, 0.5 * r, (m21 + m12) * s
    else:
        r = math.sqrt(1.0 + m22 - m00 - m11)
        s = 0.5 / r
        w, x, y, z = (m10 - m01) * s, (m02 + m20) * s, (m12 + m21) * s, 0.5 * r
    if w < 0:
        w, x, y, z = -w, -x, -y, -z
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


def su2_of_rotation_oracle(m) -> np.ndarray:
    """SU(2) lift of one rotation matrix, U = w I - i (x sigma_hv + y sigma_da
    + z sigma_rl) from `quaternion_of_rotation_oracle`: the reference for
    `polcore.su2_of_rotation`."""
    w, x, y, z = quaternion_of_rotation_oracle(m)
    return np.array([
        [complex(w, -x), complex(-z, -y)],
        [complex(z, -y), complex(w, x)],
    ])


def on_arm_b_oracle(rho, op) -> np.ndarray:
    """(I (x) op) rho (I (x) op)^dag by the kron sandwich: the reference for
    `quantum.on_arm_b_superoperator` with `quantum.arm_b_superoperator(op)`."""
    k = np.kron(np.eye(2, dtype=complex), op)
    return k @ rho @ k.conj().T


def process_design_oracle(inputs) -> np.ndarray:
    """Process-tomography design built column by column: the reference for
    `quantum._process_design`.

    Column 4 m + n stacks the flattened P_m rho_i P_n of every input i, one
    2x2 product pair at a time, over the Paulis (identity, H/V flip, D/A
    flip, R/L flip).
    """
    paulis = (np.eye(2, dtype=complex),) + polcore.PAULI
    columns = []
    for m in range(4):
        for n in range(4):
            col = []
            for rho_in in inputs:
                term = paulis[m] @ np.asarray(rho_in, dtype=complex) @ paulis[n]
                col.append(term.reshape(4))
            columns.append(np.concatenate(col))
    return np.column_stack(columns)


def assert_same_floats(got, want) -> None:
    """Equal floats, with equal signs of zero, entry by entry."""
    got, want = list(got), list(want)
    assert got == want
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


def assert_same_complex(got, want) -> None:
    """Equal complex arrays: equal real and imaginary parts, with equal signs
    of zero, entry by entry."""
    def parts(a):
        return [part for v in np.asarray(a).ravel().tolist() for part in (v.real, v.imag)]
    assert_same_floats(parts(got), parts(want))


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
