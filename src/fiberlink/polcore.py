"""Exact polarization calculus on the Poincaré sphere.

Stokes convention used throughout the package:

    s1 : H/V axis, horizontal = (1, 0, 0)
    s2 : D/A axis, diagonal   = (0, 1, 0)
    s3 : R/L axis, right-hand circular = (0, 0, 1)

Classical Stokes vectors and single-qubit Bloch vectors share this
representation. The matching Pauli triple is (sigma_hv, sigma_da, sigma_rl) =
(diag(1,-1), sigma_x, sigma_y) in the {|H>, |V>} ket basis, which preserves
the cyclic commutators, so all standard SU(2) <-> SO(3) formulas apply
unchanged.

A lossy polarization element is parametrized by its amplitude transmission
T of the worst-transmitted state and the loss vector Gamma pointing along
the fully transmitted (pass) state, with |Gamma| = (1 - T^2)/(1 + T^2).
The corresponding 2x2 operator is B = T*I + (1-T)|P><P|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "S_H",
    "S_D",
    "S_R",
    "PAULI",
    "FullyExtinguished",
    "InvalidTransmission",
    "NonUnitProbe",
    "PdlElement",
    "bloch_of_density",
    "density_of_bloch",
    "ket_of_bloch",
    "pdl_apply_bloch",
    "pdl_db",
    "pdl_fidelity_bound",
    "pdl_gamma",
    "process_fidelity",
    "process_fidelity_from_trace",
    "random_rotation",
    "rotation_about",
    "su2_of_rotation",
    "trace_from_probe_pair",
]

# Reference probe polarizations (unit Stokes vectors), shared read-only.
S_H = np.array([1.0, 0.0, 0.0])
S_D = np.array([0.0, 1.0, 0.0])
S_R = np.array([0.0, 0.0, 1.0])
for _s in (S_H, S_D, S_R):
    _s.flags.writeable = False
del _s

# Pauli triple matching the (s1, s2, s3) axes in the {|H>, |V>} basis.
PAULI = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
)

_PROBE_NORM_TOL = 1e-3


class NonUnitProbe(ValueError):
    """Measured probe Stokes vector is too far from unit norm."""


class InvalidTransmission(ValueError):
    """Intensity transmissions outside 0 < t_min <= t_max."""


class FullyExtinguished(ValueError):
    """State is orthogonal to the pass state of a perfect polarizer."""


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

def rotation_about(axis: np.ndarray, angle) -> np.ndarray:
    """Right-handed rotations by `angle` (rad) about `axis` (Rodrigues form):
    axes (..., 3) and as many angles give (..., 3, 3). Norms by `np.vecdot`
    and numpy's sines and cosines give `math`'s bits, so a rotation has the
    same bits in a stack as alone.
    """
    a = np.asarray(axis, dtype=float)
    lead = a.shape[:-1]
    a = a.reshape(-1, 3)
    norms = np.sqrt(np.vecdot(a, a))
    if not norms.all():
        raise ValueError("rotation axis must be nonzero")
    a = a / norms[:, None]
    angles = np.ravel(angle)
    sin = np.sin(angles)[:, None, None]
    one_minus_cos = (1.0 - np.cos(angles))[:, None, None]
    k = np.zeros((len(a), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -a[:, 2], a[:, 1]
    k[:, 1, 0], k[:, 1, 2] = a[:, 2], -a[:, 0]
    k[:, 2, 0], k[:, 2, 1] = -a[:, 1], a[:, 0]
    return (np.eye(3) + sin * k + one_minus_cos * (k @ k)).reshape(lead + (3, 3))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn from the Haar (uniform) measure via a random quaternion."""
    q = rng.normal(size=4)
    q /= math.sqrt(q @ q)
    return _rotation_of_quaternion(q)


def _rotation_of_quaternion(q) -> np.ndarray:
    return np.array(_rotation_entries(q)).reshape(3, 3)


def _rotation_entries(q) -> tuple:
    """Row-major entries of the rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


# Row-major indices (0 = m00, ..., 8 = m22) of the entries the quaternion
# formulas read. Row i of _DIAGONALS is the diagonal started at m_ii, so
# row 0 is (m00, m11, m22), and branch i + 1 has radicand
# 1 + row[0] - row[1] - row[2].
_DIAGONALS = np.array([[0, 4, 8], [4, 8, 0], [8, 0, 4]])
# The six off-diagonal parts m21 - m12, m02 - m20, m10 - m01, m10 + m01,
# m20 + m02 and m21 + m12, as a + sign * b.
_OFF_A = np.array([7, 2, 3, 3, 6, 7])
_OFF_B = np.array([5, 6, 1, 1, 2, 5])
_OFF_SIGNS = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
# Branch k's quaternion, before its sign flip and normalization, takes these
# entries of (0.5 r, the six parts times s = 0.5 / r): row k of a symmetric
# matrix with 0.5 r on its diagonal.
_BRANCH_ENTRIES = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
# (w, -x, -z, -y, z, -y, w, x): the (real, imaginary) parts of the SU(2) lift.
_SU2_ENTRIES = np.array([0, 1, 3, 2, 3, 2, 0, 1])
_SU2_SIGNS = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0])


def _quaternion_of_rotation(m: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z) with w >= 0, shape (..., 4), of rotation
    matrices, shape (..., 3, 3); stable in all branches.

    Each matrix picks its branch by its trace (branch 0), then by its
    largest diagonal element (branch 1, 2 or 3, the first one on ties).
    Every step is elementwise over the stack, in the order of the scalar
    formulas (a subtraction as the addition of a negated term), so each
    matrix gets the bits it would get alone.
    """
    m = np.asarray(m, dtype=float)
    lead = m.shape[:-2]
    e = m.reshape(-1, 9)
    rows = np.arange(len(e))
    diag = e.take(_DIAGONALS, axis=1)
    t = diag[:, 0, 0] + diag[:, 0, 1] + diag[:, 0, 2]
    branch = np.where(t > 0, 0, diag[:, :, 0].argmax(axis=1) + 1)
    radicands = np.concatenate([(1.0 + t)[:, None], 1.0 + diag[..., 0] - diag[..., 1] - diag[..., 2]], axis=1)
    r = np.sqrt(radicands[rows, branch])
    parts = e.take(_OFF_A, axis=1) + e.take(_OFF_B, axis=1) * _OFF_SIGNS
    entries = np.concatenate([(0.5 * r)[:, None], parts * (0.5 / r)[:, None]], axis=1)
    q = entries[rows[:, None], _BRANCH_ENTRIES[branch]]
    np.negative(q, out=q, where=q[:, :1] < 0)
    sq = q * q
    n = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])
    return (q / n[:, None]).reshape(lead + (4,))


def su2_of_rotation(m: np.ndarray) -> np.ndarray:
    """SU(2) lifts, shape (..., 2, 2), of Bloch rotations, shape (..., 3, 3);
    each sign is fixed by trace >= 0.

    Returns U with U (v . sigma) U^dag = (m v) . sigma for every Bloch
    vector v. The global sign is unobservable in every implemented protocol.
    """
    q = _quaternion_of_rotation(m)
    # U = w I - i (x sigma_hv + y sigma_da + z sigma_rl), written out as
    # (real, imaginary) pairs, so no complex product touches a sign of zero
    parts = q.take(_SU2_ENTRIES, axis=-1) * _SU2_SIGNS
    return parts.view(complex).reshape(q.shape[:-1] + (2, 2))


# ---------------------------------------------------------------------------
# Bloch <-> ket/density helpers
# ---------------------------------------------------------------------------

def density_of_bloch(lam: np.ndarray) -> np.ndarray:
    """2x2 density matrix (I + lam . sigma)/2."""
    lam = np.asarray(lam, dtype=float)
    rho = np.eye(2, dtype=complex)
    for comp, s in zip(lam, PAULI):
        rho = rho + comp * s
    return rho / 2.0


def bloch_of_density(rho: np.ndarray) -> np.ndarray:
    return np.array([np.trace(rho @ s).real for s in PAULI])


def ket_of_bloch(n: np.ndarray) -> np.ndarray:
    """Unit ket whose Bloch vector is the unit vector n."""
    n = np.asarray(n, dtype=float)
    if n[0] < -1.0 + 1e-12:
        return np.array([0.0, 1.0], dtype=complex)
    ket = np.array([1.0 + n[0], n[1] + 1.0j * n[2]])
    return ket / np.linalg.norm(ket)


# ---------------------------------------------------------------------------
# Process fidelity
# ---------------------------------------------------------------------------

def process_fidelity(m: np.ndarray) -> float | np.ndarray:
    """Overlap of rotation-only channels (..., 3, 3) with the identity
    process, F = (1 + tr m) / 4: 1 for the identity, 0 for any half-turn."""
    return process_fidelity_from_trace(np.trace(m, axis1=-2, axis2=-1))


def process_fidelity_from_trace(trace: float) -> float:
    """Process fidelity (1 + tr) / 4 from an already-measured matrix trace."""
    return (1.0 + trace) / 4.0


def trace_from_probe_pair(s1_out: np.ndarray, s2_out: np.ndarray) -> float:
    """Rotation-matrix trace recovered from the H and D probe outputs.

    With outputs S1 = m @ S_H and S2 = m @ S_D of a rotation m,

        tr m = S1[0] + S2[1] + S1[0]*S2[1] - S1[1]*S2[0]

    which needs only the two measured output vectors.

    Raises NonUnitProbe if either output norm deviates from 1 by more
    than 1e-3 (a rotation cannot produce non-unit outputs; large deviation
    indicates a broken measurement).
    """
    s1 = np.asarray(s1_out, dtype=float)
    s2 = np.asarray(s2_out, dtype=float)
    for s in (s1, s2):
        n = math.sqrt(s @ s)
        if abs(n - 1.0) > _PROBE_NORM_TOL:
            raise NonUnitProbe(f"probe output norm {n:.6f} deviates from 1")
    return float(_trace_of_unit_pair(s1, s2))


def _trace_of_unit_pair(s1, s2) -> float:
    """The trace formula of `trace_from_probe_pair`, without its norm check."""
    return s1[0] + s2[1] + s1[0] * s2[1] - s1[1] * s2[0]


# ---------------------------------------------------------------------------
# Polarization-dependent loss
# ---------------------------------------------------------------------------

def pdl_db(t_max: float, t_min: float) -> float:
    """Loss figure 10*log10(t_max/t_min) in dB from intensity transmissions."""
    if t_min <= 0.0 or t_max < t_min:
        raise InvalidTransmission(
            f"need 0 < t_min <= t_max, got t_max={t_max}, t_min={t_min}"
        )
    return 10.0 * math.log10(t_max / t_min)


def pdl_gamma(amplitude_transmission: float) -> float:
    """Loss-vector magnitude (1 - T^2)/(1 + T^2) for amplitude transmission T."""
    t2 = amplitude_transmission * amplitude_transmission
    return (1.0 - t2) / (1.0 + t2)


def pdl_fidelity_bound(amplitude_transmission: float) -> float:
    """Worst-case process fidelity (1 + T)^2 / 4 of a lossy element alone."""
    return (1.0 + amplitude_transmission) ** 2 / 4.0


@dataclass(frozen=True, eq=False)
class PdlElement:
    """Polarization-dependent loss element.

    gamma_vec points along the fully transmitted (pass) state and has
    magnitude (1 - T^2)/(1 + T^2); amplitude_transmission T in [0, 1] is the
    amplitude transmission of the orthogonal (extinguished) state. Use
    `PdlElement.from_axis` or `PdlElement.from_db` instead of filling the
    fields by hand.

    The element keeps a read-only float copy of `gamma_vec`, checked to be a
    finite 3-vector, so an element never changes once built. Elements
    compare and hash by identity.
    """

    gamma_vec: np.ndarray
    amplitude_transmission: float

    def __post_init__(self) -> None:
        t = self.amplitude_transmission
        if not 0.0 <= t <= 1.0:
            raise InvalidTransmission(f"amplitude transmission {t} outside [0, 1]")
        vec = np.array(self.gamma_vec, dtype=float)
        if vec.shape != (3,) or not np.all(np.isfinite(vec)):
            raise ValueError(f"gamma_vec {self.gamma_vec!r} must be a finite 3-vector")
        vec.flags.writeable = False
        object.__setattr__(self, "gamma_vec", vec)
        g = np.linalg.norm(vec)
        if abs(g - pdl_gamma(t)) > 1e-10:
            raise ValueError(
                f"|gamma_vec| = {g} inconsistent with transmission {t}"
            )

    @classmethod
    def from_axis(cls, axis: np.ndarray, amplitude_transmission: float) -> PdlElement:
        """Element with pass state along `axis` (any nonzero 3-vector)."""
        g = pdl_gamma(amplitude_transmission)
        axis = np.asarray(axis, dtype=float)
        if g == 0.0:
            vec = np.zeros(3)
        else:
            n = np.linalg.norm(axis)
            if n == 0.0:
                raise ValueError("pass axis must be nonzero for a lossy element")
            vec = g * axis / n
        return cls(gamma_vec=vec, amplitude_transmission=float(amplitude_transmission))

    @classmethod
    def from_db(cls, axis: np.ndarray, loss_db: float) -> PdlElement:
        """Element whose worst/best intensity ratio equals `loss_db`."""
        if loss_db < 0.0:
            raise InvalidTransmission(f"loss {loss_db} dB is negative")
        return cls.from_axis(axis, 10.0 ** (-loss_db / 20.0))

    @property
    def gamma(self) -> float:
        return float(np.linalg.norm(self.gamma_vec))

    @property
    def loss_db(self) -> float:
        return pdl_db(1.0, self.amplitude_transmission ** 2)

    def pass_axis(self) -> np.ndarray:
        g = self.gamma
        if g == 0.0:
            raise ValueError("lossless element has no preferred axis")
        return self.gamma_vec / g

    def operator(self) -> np.ndarray:
        """2x2 loss operator B = T*I + (1-T)|P><P| (non-trace-preserving)."""
        if self.gamma == 0.0:
            return np.eye(2, dtype=complex)
        t = self.amplitude_transmission
        p = ket_of_bloch(self.pass_axis())
        return t * np.eye(2, dtype=complex) + (1.0 - t) * np.outer(p, p.conj())


def pdl_apply_bloch(lambda_in: np.ndarray, pdl: PdlElement) -> np.ndarray:
    """Post-selected Bloch-vector map of a lossy element.

    Implements

        lam_out = [sqrt(1-g^2) lam + ((1-sqrt(1-g^2))/g^2 (lam.G) + 1) G]
                  / (1 + lam.G)

    with G = gamma_vec and g = |G|; the middle coefficient is evaluated in
    the equivalent form 1/(1 + sqrt(1-g^2)) which is exact at g = 0. Pure
    states stay pure; the pass state +G/g and the extinguished state -G/g
    are the only fixed points.
    """
    lam = np.asarray(lambda_in, dtype=float)
    g_vec = pdl.gamma_vec
    g2 = float(g_vec @ g_vec)
    dot = float(lam @ g_vec)
    denom = 1.0 + dot
    if denom <= 1e-12:
        raise FullyExtinguished(
            "input state is fully blocked by the polarizing element"
        )
    root = math.sqrt(max(0.0, 1.0 - g2))
    coeff = 1.0 / (1.0 + root)  # equals (1 - sqrt(1-g^2)) / g^2
    return (root * lam + (coeff * dot + 1.0) * g_vec) / denom
