"""Time-dependent model of the deployed fiber link.

The link (`ChannelState`) is a slowly drifting polarization rotation (an
isotropic angular random walk with a day/night diffusion-rate schedule)
followed by a weak polarization-dependent loss element (static axis by
default, optional transient spikes). The propagation-delay drift of the
overhead section (`DelayDriftModel`), the static attenuation budget in dB
and the Poisson background source at the receiver are modelled on their own.

One ChannelState instance is a single logical timeline: `walk` (or
`advance`, one step of it) and the transmit calls must be serialized per
instance. Independent instances with independent generators may run in
parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import polcore
from .polcore import PdlElement

__all__ = [
    "AttenuationBudget",
    "BackgroundSource",
    "ChannelState",
    "DaySchedule",
    "DelayDriftModel",
    "EmptySeries",
    "PdlSpikeProcess",
    "doppler_delay_step",
    "sample_background",
    "temperature_delay_prediction",
    "total_loss_db",
]

# Diffusion-rate defaults (rad^2/s), calibrated so the night-regime
# 99 %-quantile process-fidelity curve stays above 0.99 for at least 60 s
# and the 90 %-quantile stays above 0.98 at 160 s.
DAY_RATE_DEFAULT = 1.5e-6
NIGHT_RATE_DEFAULT = 2.0e-7


class EmptySeries(ValueError):
    """A time series argument contained no samples."""


def _require(bound: str, ok, **values: float) -> None:
    """Raise ValueError naming the first value that is not finite or not `ok`."""
    for name, value in values.items():
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(f"{name} must be finite and {bound}, got {value}")


@dataclass(frozen=True)
class DaySchedule:
    """Daily window with elevated drift, in seconds since local midnight.

    A window whose start lies after its end wraps past midnight: 22:00 to
    06:00 is day from 22:00 until 06:00 the next morning. Both bounds must
    be finite and in [0, 86400].
    """

    day_start_s: float = 7.5 * 3600.0
    day_end_s: float = 18.0 * 3600.0

    def __post_init__(self) -> None:
        _require("in [0, 86400]", lambda v: 0.0 <= v <= 86400.0,
                 day_start_s=self.day_start_s, day_end_s=self.day_end_s)

    def is_day(self, clock_s: float) -> bool:
        t = clock_s % 86400.0
        if self.day_start_s > self.day_end_s:
            return t >= self.day_start_s or t < self.day_end_s
        return self.day_start_s <= t < self.day_end_s


@dataclass(frozen=True)
class AttenuationBudget:
    """Ordered list of (label, loss_db) components of the link attenuation."""

    components: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for label, loss in self.components:
            _require(">= 0", lambda v: v >= 0.0, **{f"component {label!r} loss_db": loss})

    @classmethod
    def of(cls, *components: tuple[str, float]) -> AttenuationBudget:
        return cls(components=tuple(components))


def total_loss_db(budget: AttenuationBudget) -> float:
    """Sum of all budget components in dB."""
    if not budget.components:
        raise ValueError("budget has no components")
    return float(sum(loss for _, loss in budget.components))


@dataclass(frozen=True)
class BackgroundSource:
    """Poisson background at the receiver, counts per second."""

    rate_per_s: float

    def __post_init__(self) -> None:
        _require(">= 0", lambda v: v >= 0.0, rate_per_s=self.rate_per_s)


def sample_background(bg: BackgroundSource, window_s: float, rng: np.random.Generator) -> int:
    """Poisson count in one integration window."""
    if window_s <= 0.0:
        raise ValueError("window must be > 0")
    return int(rng.poisson(bg.rate_per_s * window_s))


@dataclass(frozen=True)
class DelayDriftModel:
    """Propagation-delay drift of the overhead fiber section.

    overhead_km is the one-way overhead length; loop measurements double it
    internally. The temperature sensitivity is per km and kelvin; nu0 is the
    optical carrier frequency and gate_time_s the sampling gate of the
    frequency counter reading Doppler shifts.
    """

    overhead_km: float = 1.278
    sensitivity_ps_per_km_k: float = 37.4
    nu0_hz: float = 1.9986e14
    gate_time_s: float = 0.01

    def __post_init__(self) -> None:
        _require("> 0", lambda v: v > 0.0, overhead_km=self.overhead_km,
                 sensitivity_ps_per_km_k=self.sensitivity_ps_per_km_k,
                 nu0_hz=self.nu0_hz, gate_time_s=self.gate_time_s)


def doppler_delay_step(m: DelayDriftModel, delta_nu_d_hz: float) -> float:
    """Per-gate time delay delta_nu / (2 nu0) * t_gate in seconds."""
    return delta_nu_d_hz / (2.0 * m.nu0_hz) * m.gate_time_s


def temperature_delay_prediction(
    m: DelayDriftModel,
    temp_series: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Loop delay change in ps predicted from a (t, kelvin) series.

    Uses delta(t) = sensitivity * (2 * overhead length) * (T(t) - T(0)),
    the factor 2 accounting for the out-and-back loop geometry.
    """
    if not temp_series:
        raise EmptySeries("temperature series is empty")
    times = [t for t, _ in temp_series]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("timestamps must be monotone non-decreasing")
    t0_temp = temp_series[0][1]
    scale = m.sensitivity_ps_per_km_k * 2.0 * m.overhead_km
    return [(t, scale * (temp - t0_temp)) for t, temp in temp_series]


@dataclass(frozen=True)
class PdlSpikeProcess:
    """Transient loss spikes triggered at Poisson times (mechanical events).

    `rate_per_s` and `extra_db` must be finite and >= 0, `duration_s`
    finite and > 0.
    """

    rate_per_s: float = 0.0
    extra_db: float = 0.5
    duration_s: float = 30.0

    def __post_init__(self) -> None:
        _require(">= 0", lambda v: v >= 0.0, rate_per_s=self.rate_per_s, extra_db=self.extra_db)
        _require("> 0", lambda v: v > 0.0, duration_s=self.duration_s)


@dataclass
class ChannelState:
    """The link: a drifting rotation followed by a weak loss element.

    The rotation follows an isotropic angular random walk: each drift step
    of `walk` multiplies it from the left by a small rotation about a
    uniformly random axis, with angle drawn from Normal(0, sqrt(2 * rate *
    dt)), where the rate is the day or night rate of the schedule at the
    step's clock (`rate_at`). The rotation walk draws from `rng` and the
    spike times from `spike_rng` (seeded 0 by default), each generator
    advancing only with its own draws. So a chain of walks is deterministic per stream,
    however it is split into walks, and spikes never move the rotation.

    The link keeps its rotation read-only: the constructor stores a checked
    float copy of `rotation`, and `walk` stores the rotation it ends on, so
    an in-place write to either raises ValueError. A rotation assigned
    from outside is kept as it is. The constructor requires both rates to
    be finite and >= 0.
    """

    rng: np.random.Generator
    pdl: PdlElement = field(default_factory=lambda: PdlElement.from_axis(np.zeros(3), 1.0))
    day_rate: float = DAY_RATE_DEFAULT
    night_rate: float = NIGHT_RATE_DEFAULT
    schedule: DaySchedule = field(default_factory=DaySchedule)
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    clock_s: float = 0.0
    spikes: PdlSpikeProcess = field(default_factory=PdlSpikeProcess)
    spike_rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    _spike_until_s: float = field(default=-1.0, repr=False)

    def __post_init__(self) -> None:
        _require(">= 0", lambda v: v >= 0.0, day_rate=self.day_rate, night_rate=self.night_rate)
        rotation = np.array(self.rotation, dtype=float)
        if rotation.shape != (3, 3) or not np.all(np.isfinite(rotation)):
            raise ValueError(f"rotation must be a finite 3x3 matrix, got {self.rotation!r}")
        rotation.flags.writeable = False
        self.rotation = rotation

    def rate_at(self, clock_s: float) -> float:
        """The diffusion rate (rad^2/s) the schedule sets at `clock_s`."""
        return self.day_rate if self.schedule.is_day(clock_s) else self.night_rate

    def advance(self, dt: float) -> None:
        """Advance the link timeline by dt seconds of free drift."""
        self.walk(dt, 1)

    def walk(self, dt: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Advance by n drift steps of dt; return the rotation after each
        step, shape (n, 3, 3), and the spike mask, shape (n,): whether the
        step's loss element (`current_pdl()`) is `spike_pdl()`, not `pdl`.

        `rng` draws only normals: the k steps with a nonzero rate take one
        (k, 4) block, three axis normals and then the angle's normal per
        step, and a zero-rate step draws nothing. Only if a drawn axis is too
        short to normalize does the walk redraw the block step by step, in
        stream order, redrawing each short axis. With spikes on, `spike_rng`
        draws one uniform per step, as one block. The steps' rotations are
        one `polcore.rotation_about` stack. A rotation the walk made is
        stored read-only.
        """
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        rates = []
        clock = self.clock_s
        for _ in range(n):
            rates.append(self.rate_at(clock))
            clock += dt
        sigmas = [math.sqrt(2.0 * rate * dt) for rate in rates if rate > 0.0]
        state = self.rng.bit_generator.state
        z = self.rng.standard_normal((len(sigmas), 4))
        # row by row: a vectorized norm moves rotations in the last bit
        norms = [math.sqrt(v @ v) for v in z[:, :3]]
        if min(norms, default=1.0) < 1e-12:
            self.rng.bit_generator.state = state
            for i in range(len(sigmas)):
                v = self.rng.standard_normal(3)
                while (norm := math.sqrt(v @ v)) < 1e-12:
                    v = self.rng.standard_normal(3)
                z[i, :3], z[i, 3], norms[i] = v, self.rng.standard_normal(), norm
        # The drawn axis, normalized here and again in rotation_about, and
        # the angle 0 + sigma * z give the bits every drift step has had.
        angles = [0.0 + sigma * x for sigma, x in zip(sigmas, z[:, 3].tolist())]
        steps = iter(polcore.rotation_about(z[:, :3] / np.array(norms)[:, None], angles))
        spike_p = 1.0 - math.exp(-self.spikes.rate_per_s * dt)
        uniforms = self.spike_rng.random(n).tolist() if self.spikes.rate_per_s > 0.0 else [1.0] * n
        m = start = self.rotation
        rotations, spiked = np.empty((n, 3, 3)), np.empty(n, dtype=bool)
        for i, (rate, u) in enumerate(zip(rates, uniforms)):
            if rate > 0.0:
                m = next(steps) @ m
            rotations[i] = m
            self.clock_s += dt
            if u < spike_p:
                self._spike_until_s = self.clock_s + self.spikes.duration_s
            spiked[i] = self._spike_until_s >= self.clock_s
        if m is not start:
            m.flags.writeable = False
            self.rotation = m
        return rotations, spiked

    def spike_pdl(self) -> PdlElement:
        """The loss element during a spike: `spikes.extra_db` lossier than
        `pdl`, along its pass axis (`polcore.S_H` if it has none)."""
        pdl, extra_db = self.pdl, self.spikes.extra_db
        if pdl.gamma > 0.0:
            return PdlElement.from_db(pdl.pass_axis(), pdl.loss_db + extra_db)
        return PdlElement.from_db(polcore.S_H, extra_db)

    def current_pdl(self) -> PdlElement:
        """The loss element now: `pdl`, or during a spike `spike_pdl()`."""
        return self.pdl if self._spike_until_s < self.clock_s else self.spike_pdl()


def transmit_probe(ch: ChannelState, s_in: np.ndarray) -> np.ndarray:
    """Stokes vector after the link: rotation first, then the loss element."""
    rotation, s_in = np.asarray(ch.rotation, dtype=float), np.asarray(s_in, dtype=float)
    return polcore.pdl_apply_bloch(rotation @ s_in, ch.current_pdl())


def transmit_qubit_kraus(rotation: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Single-qubit operators K = B U, shape (..., 2, 2), of rotations
    (..., 3, 3) and their loss operators B (`PdlElement.operator()`),
    shape (..., 2, 2).

    U is the SU(2) lift of the rotation; the post-selected state map is
    rho -> K rho K^dag / tr(K rho K^dag) with success probability
    tr(K rho K^dag) in [T^2, 1].
    """
    return loss @ polcore.su2_of_rotation(rotation)
