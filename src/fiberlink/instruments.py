"""Measurement and actuation hardware models.

Covers the polarimeter at the receiver, which reads the switched H/D
reference light from the sender, and the four-channel piezo polarization
controller (the paper's fixed squeezer stack: four alternating axes, one
gain). Settings are
checked and fixed at construction; an instance is still stateful (the
polarimeter's generator, the controller's voltages) and must be serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import polcore
from .channel import _require

__all__ = [
    "Polarimeter",
    "PiezoController",
    "VoltageOutOfRange",
]

# The squeezer geometry: physical squeeze axes alternating 0 deg / 45 deg,
# i.e. Poincare rotation axes alternating between the s1 and s2 directions,
# as unit float triples. Two orthogonal equatorial axes with four channels
# give full rotation coverage (verified by the controllability test).
PIEZO_AXES_DEFAULT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
# The twelve axis components in channel order, for the fold in `quaternion`.
_AXIS_COMPONENTS = tuple(c for axis in PIEZO_AXES_DEFAULT for c in axis)

_setattr = object.__setattr__  # past the frozen guard; looked up once per module


class VoltageOutOfRange(ValueError):
    """Requested piezo voltage exceeds the controller limits."""


@dataclass(frozen=True, eq=False)
class Polarimeter:
    """Stokes polarimeter with iid Gaussian read noise per component.

    `read_pair` reads the H and D probe outputs together, in straight-line
    Python-float arithmetic, from one draw of six normals: the same
    generator stream as two successive `read` calls.

    `latency_s` is one probe read, the switch to its reference light
    included. The 45 ms default makes one measure-feedback cycle (H probe
    read + D probe read + voltage update) take the 90 ms the stabilization
    receiver needs per cycle. `sigma` and `latency_s` must be finite and
    >= 0.
    """

    sigma: float = 0.0
    latency_s: float = 0.045
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        _require(">= 0", lambda v: v >= 0.0, sigma=self.sigma, latency_s=self.latency_s)

    def read(self, s_true: np.ndarray) -> np.ndarray:
        """Noisy Stokes read; renormalized only if the noisy norm exceeds 1.

        The renormalization keeps reads inside the physical ball. It shifts
        the reported degree of polarization of pure inputs inward by
        O(sigma) but leaves the polarization direction unbiased to
        O(sigma^2), which is what the downstream two-probe fidelity
        estimate consumes.
        """
        x, y, z = np.asarray(s_true, dtype=float).tolist()
        if self.sigma > 0.0:
            ex, ey, ez = self.rng.normal(0.0, self.sigma, size=3).tolist()
            x, y, z = x + ex, y + ey, z + ez
        return np.array(_in_ball(x, y, z))

    def read_pair(self, s1, s2) -> list[tuple[float, float, float]]:
        """Reads of two Stokes vectors (three floats each), first s1 then s2."""
        x1, y1, z1 = s1
        x2, y2, z2 = s2
        if self.sigma > 0.0:
            e1, e2, e3, e4, e5, e6 = self.rng.normal(0.0, self.sigma, size=6).tolist()
            x1, y1, z1, x2, y2, z2 = x1 + e1, y1 + e2, z1 + e3, x2 + e4, y2 + e5, z2 + e6
        return [_in_ball(x1, y1, z1), _in_ball(x2, y2, z2)]


def _in_ball(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z), divided by its norm if that exceeds 1."""
    n = math.sqrt(x * x + y * y + z * z)
    if n > 1.0:
        return x / n, y / n, z / n
    return x, y, z


@dataclass(frozen=True, eq=False)
class PiezoController:
    """Four-channel piezo polarization controller: a fixed squeezer stack.

    Channel i rotates the Poincare sphere by gain * U_i about its axis in
    `PIEZO_AXES_DEFAULT` (s1, s2, s1, s2); every channel has the one gain
    `gain_rad_per_v`, and the channels act on the light in order 1 -> 4.
    `quaternion()` multiplies the four channels' half-angle quaternions
    (q4 q3 q2 q1) in scalar arithmetic, and `rotation()` builds one matrix
    from the product; the stabilizer's probes use the quaternion directly.
    Voltages are clamped at +/- limit_v; a non-finite voltage is out of
    range everywhere. `set_voltages` raises on out-of-range requests while
    `apply_clamped` clamps after attempting a full-period re-centering (a
    2*pi/|gain| shift leaves the rotation unchanged) and logs the event.

    The settings are checked and fixed at construction: `gain_rad_per_v`
    must be finite and nonzero, `limit_v` finite and > 0, and `settle_s`
    finite and >= 0. Only the constructor, `set_voltages`, `apply_clamped`
    and `bias_neutral` store voltages: each checks them and stores a fresh
    tuple of four floats as `voltages` (item assignment raises TypeError).
    A read changes nothing: each `quaternion()` call multiplies the four
    half-angle factors afresh from the gain and `voltages`.
    """

    voltages: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    gain_rad_per_v: float = 0.5
    limit_v: float = 10.0
    settle_s: float = 0.0
    clamp_events: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        _require(">= 0", lambda v: v >= 0.0, settle_s=self.settle_s)
        _require("> 0", lambda v: v > 0.0, limit_v=self.limit_v)
        _require("nonzero", lambda v: v != 0.0, gain_rad_per_v=self.gain_rad_per_v)
        u = _four_voltages(self.voltages)
        if not _within(u, self.limit_v):
            raise VoltageOutOfRange("initial voltages exceed limits")
        _setattr(self, "voltages", u)

    def bias_neutral(self) -> None:
        """Move to the neutral operating point (net identity, full-rank control).

        At zero voltage the two equatorial rotation axes span only the
        equatorial tangent directions, so a small circular-axis error is not
        first-order correctable there. Biasing channels 2 and 4 by -/+ a
        quarter turn keeps the net rotation at identity while making all
        three rotation directions actuatable, like idling a squeezer at
        mid-range.
        """
        q, g = 0.5 * math.pi, self.gain_rad_per_v
        # 0.0 / g keeps the sign of zero that numpy's division gives
        bias = (0.0 / g, -q / g, 0.0 / g, q / g)
        if not _within(bias, self.limit_v):
            raise VoltageOutOfRange("neutral bias exceeds voltage limits")
        _setattr(self, "voltages", bias)

    def set_voltages(self, u) -> None:
        u = _four_voltages(u)
        if not _within(u, self.limit_v + 1e-12):
            raise VoltageOutOfRange(f"requested voltages {u} exceed +/-{self.limit_v} V")
        _setattr(self, "voltages", u)

    def apply_clamped(self, u) -> tuple[float, float, float, float]:
        """Set voltages, re-centering by full rotation periods where possible.

        Returns the stored voltages.
        """
        volts = list(_four_voltages(u))
        if not all(map(math.isfinite, volts)):
            raise VoltageOutOfRange(f"requested voltages {volts} are not finite")
        for i, v in enumerate(volts):
            if abs(v) > self.limit_v:
                period = 2.0 * math.pi / abs(self.gain_rad_per_v)
                shifted = v - math.copysign(period, v)
                volts[i] = shifted if abs(shifted) <= self.limit_v else math.copysign(self.limit_v, v)
                _setattr(self, "clamp_events", self.clamp_events + 1)
        _setattr(self, "voltages", tuple(volts))
        return self.voltages

    def rotation(self) -> np.ndarray:
        """Net Stokes rotation of the controller at its current voltages."""
        return polcore._rotation_of_quaternion(self.quaternion())

    def quaternion(self) -> tuple[float, float, float, float]:
        """Net unit quaternion (w, x, y, z) of the controller's rotation."""
        # Channel i turns by gain * U_i about its unit axis a_i, i.e. the
        # quaternion (cos h, sin h * a_i) with h the half angle. Channel 1
        # acts first, so the net quaternion is q4 q3 q2 q1, each factor
        # multiplied from the left, written out channel by channel. The zero
        # components of the axes stay in the sums: dropping them could flip
        # the sign of a zero.
        a1x, a1y, a1z, a2x, a2y, a2z, a3x, a3y, a3z, a4x, a4y, a4z = _AXIS_COMPONENTS
        cos, sin, half = math.cos, math.sin, 0.5 * self.gain_rad_per_v
        u1, u2, u3, u4 = self.voltages
        w, x, y, z = 1.0, 0.0, 0.0, 0.0
        h = half * u1
        c, s = cos(h), sin(h)
        bx, by, bz = s * a1x, s * a1y, s * a1z
        w, x, y, z = (c * w - bx * x - by * y - bz * z, c * x + bx * w + by * z - bz * y,
                      c * y - bx * z + by * w + bz * x, c * z + bx * y - by * x + bz * w)
        h = half * u2
        c, s = cos(h), sin(h)
        bx, by, bz = s * a2x, s * a2y, s * a2z
        w, x, y, z = (c * w - bx * x - by * y - bz * z, c * x + bx * w + by * z - bz * y,
                      c * y - bx * z + by * w + bz * x, c * z + bx * y - by * x + bz * w)
        h = half * u3
        c, s = cos(h), sin(h)
        bx, by, bz = s * a3x, s * a3y, s * a3z
        w, x, y, z = (c * w - bx * x - by * y - bz * z, c * x + bx * w + by * z - bz * y,
                      c * y - bx * z + by * w + bz * x, c * z + bx * y - by * x + bz * w)
        h = half * u4
        c, s = cos(h), sin(h)
        bx, by, bz = s * a4x, s * a4y, s * a4z
        return (c * w - bx * x - by * y - bz * z, c * x + bx * w + by * z - bz * y,
                c * y - bx * z + by * w + bz * x, c * z + bx * y - by * x + bz * w)


def _four_voltages(u) -> tuple[float, float, float, float]:
    """The four voltages `u` as a tuple of floats."""
    try:
        volts = tuple(map(float, u))
    except TypeError:  # a scalar, or rows of a 2-D request
        volts = ()
    if len(volts) != 4:
        raise ValueError(f"need 4 voltages, got {u!r}")
    return volts


def _within(volts, limit: float) -> bool:
    """True if all four voltages `volts` lie in [-limit, limit]; NaN lies nowhere."""
    u1, u2, u3, u4 = volts
    return abs(u1) <= limit and abs(u2) <= limit and abs(u3) <= limit and abs(u4) <= limit

