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

from .channel import _require

__all__ = [
    "Polarimeter",
    "PiezoController",
    "VoltageOutOfRange",
]

# Read-noise normals a polarimeter draws at once: 64 probe pairs (about 12 KB
# as Python floats). Any block of at least six gives the same reads.
_NOISE_BLOCK = 384

_setattr = object.__setattr__  # past the frozen guard; looked up once per module


class VoltageOutOfRange(ValueError):
    """Requested piezo voltage exceeds the controller limits."""


@dataclass(frozen=True, eq=False)
class Polarimeter:
    """Stokes polarimeter with iid Gaussian read noise per component.

    `read_pair` reads the H and D probe outputs together, in straight-line
    Python-float arithmetic, from the next six normals of the noise stream:
    the same values as two successive `read` calls. The stream draws
    `_NOISE_BLOCK` normals from `rng` at a time, on the first noisy read and
    whenever a read runs past the block, and hands them out in stream
    order: one numpy `Generator` gives the same values from one block draw
    as from per-read draws. So `rng` runs up to one block ahead of the
    reads: a caller that also draws from it gets other values than if each
    read drew its own normals. A polarimeter with `sigma = 0` never draws.

    `latency_s` is one probe read, the switch to its reference light
    included. The 45 ms default makes one measure-feedback cycle (H probe
    read + D probe read + voltage update) take the 90 ms the stabilization
    receiver needs per cycle. `sigma` and `latency_s` must be finite and
    >= 0.
    """

    sigma: float = 0.0
    latency_s: float = 0.045
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    _noise: _NoiseStream = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _require(">= 0", lambda v: v >= 0.0, sigma=self.sigma, latency_s=self.latency_s)
        _setattr(self, "_noise", _NoiseStream(self.rng, self.sigma))

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
            ex, ey, ez = self._noise.take(3)
            x, y, z = x + ex, y + ey, z + ez
        return np.array(_in_ball(x, y, z))

    def read_pair(self, s1, s2) -> list[tuple[float, float, float]]:
        """Reads of two Stokes vectors (three floats each), first s1 then s2."""
        x1, y1, z1 = s1
        x2, y2, z2 = s2
        if self.sigma > 0.0:
            e1, e2, e3, e4, e5, e6 = self._noise.take(6)
            x1, y1, z1, x2, y2, z2 = x1 + e1, y1 + e2, z1 + e3, x2 + e4, y2 + e5, z2 + e6
        return [_in_ball(x1, y1, z1), _in_ball(x2, y2, z2)]


class _NoiseStream:
    """A polarimeter's read noise: normals of scale `sigma` from `rng`,
    drawn `_NOISE_BLOCK` at a time and handed out in stream order."""

    __slots__ = ("rng", "sigma", "block", "pos")

    def __init__(self, rng: np.random.Generator, sigma: float):
        self.rng, self.sigma, self.block, self.pos = rng, sigma, [], 0

    def take(self, k: int) -> list[float]:
        """The next `k` (at most `_NOISE_BLOCK`) normals of the stream."""
        pos = self.pos
        end = pos + k
        if end <= len(self.block):
            self.pos = end
            return self.block[pos:end]
        head = self.block[pos:]
        self.block = self.rng.normal(0.0, self.sigma, size=_NOISE_BLOCK).tolist()
        self.pos = k - len(head)
        return head + self.block[:self.pos]


def _in_ball(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z), divided by its norm if that exceeds 1."""
    n = math.sqrt(x * x + y * y + z * z)
    if n > 1.0:
        return x / n, y / n, z / n
    return x, y, z


@dataclass(frozen=True, eq=False)
class PiezoController:
    """Four-channel piezo polarization controller: a fixed squeezer stack.

    The squeeze axes alternate 0 deg / 45 deg, so channel i turns the
    Poincare sphere by gain * U_i about s1 (channels 1 and 3) or s2
    (channels 2 and 4); every channel has the one gain `gain_rad_per_v`,
    and the channels act on the light in order 1 -> 4. Two orthogonal
    equatorial axes with four channels give full rotation coverage.
    `turn_pair` turns two Stokes vectors channel by channel in scalar
    arithmetic (the stabilizer's probes), and `rotation()` is the matrix of
    the same turns. Voltages are clamped at +/- limit_v; a non-finite
    voltage is out of range everywhere. `set_voltages` raises on
    out-of-range requests while `apply_clamped` clamps after attempting a
    full-period re-centering (a 2*pi/|gain| shift leaves the rotation
    unchanged) and logs the event.

    The settings are checked and fixed at construction: `gain_rad_per_v`
    must be finite and nonzero, `limit_v` finite and > 0, and `settle_s`
    finite and >= 0. Only the constructor, `set_voltages`, `apply_clamped`
    and `bias_neutral` store voltages: each checks them and stores a fresh
    tuple of four floats as `voltages` (item assignment raises TypeError).
    A read changes nothing: each turn is taken afresh from the gain and
    `voltages`.
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
        """Net Stokes rotation of the controller at its current voltages:
        its columns are the turned s1, s2 and s3 axes."""
        e1, e2 = self.turn_pair((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        e3, _ = self.turn_pair((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
        return np.column_stack((e1, e2, e3))

    def turn_pair(self, s, t) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """Stokes vectors `s` and `t` (three floats each) turned by the four
        channels, channel 1 first."""
        (x1, y1, z1), (x2, y2, z2) = s, t
        cos, sin, g = math.cos, math.sin, self.gain_rad_per_v
        u1, u2, u3, u4 = self.voltages
        for a, b in ((g * u1, g * u2), (g * u3, g * u4)):
            # by angle a about s1: (y, z) -> (c y - n z, n y + c z), c = cos a, n = sin a
            c, n = cos(a), sin(a)
            y1, z1, y2, z2 = c * y1 - n * z1, n * y1 + c * z1, c * y2 - n * z2, n * y2 + c * z2
            # by angle b about s2: (z, x) -> (c z - n x, n z + c x)
            c, n = cos(b), sin(b)
            z1, x1, z2, x2 = c * z1 - n * x1, n * z1 + c * x1, c * z2 - n * x2, n * z2 + c * x2
        return (x1, y1, z1), (x2, y2, z2)


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

