"""Closed-loop polarization stabilization.

A gradient-descent loop on the four piezo voltages minimizes the probe
error function

    f(U) = ||S1(U) - S_H||^2 + ||S2(U) - S_D||^2

where S1, S2 are the measured receiver polarizations for injected H and D
reference light after the link and the compensator. The finite-difference
direction

    (Df(U))_i = (f(U - e_i dU) - f(U + e_i dU)) / (2 |dU|)

already points downhill, so the update U <- U + D * Df(U) descends. After
every update the process fidelity is evaluated from the same probe pair via
the two-probe trace formula; step size D and search voltage dU shrink
linearly in (1 - F) once fidelity crosses the crossover value, and the loop
terminates when fidelity reaches the configured threshold.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import polcore
from .channel import ChannelState, transmit_probe
from .instruments import PiezoController, Polarimeter, VoltageOutOfRange
from .output import write_csv

__all__ = [
    "Outcome",
    "StabilizerConfig",
    "StabilizerRun",
    "TRACE_HEADER",
    "WindowRecord",
    "adapt_parameters",
    "duty_cycle_run",
    "error_function",
    "gradient",
    "measure_probe_pair",
    "probe_link",
    "stabilize",
    "window_plan",
]

TRACE_HEADER = ("iteration", "u1_v", "u2_v", "u3_v", "u4_v", "error_f", "process_fidelity", "time_s")


class Outcome(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class StabilizerConfig:
    """Loop parameters.

    fp_threshold is the termination fidelity, fp_crossover the fidelity at
    which the step size D and search voltage du start shrinking toward their
    minimum values d1 and du1_v. The step parameters are empirical knobs;
    the defaults pass the Monte Carlo convergence targets with the default
    piezo model.
    """

    fp_threshold: float = 0.99
    fp_crossover: float = 0.95
    d0: float = 2.0
    d1: float = 0.1
    du0_v: float = 0.2
    du1_v: float = 0.02
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.fp_crossover < self.fp_threshold <= 1.0:
            raise ValueError("need 0 < fp_crossover < fp_threshold <= 1")
        for name in ("d0", "d1", "du0_v", "du1_v"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"step parameter {name} must be finite and > 0, got {value}")
        try:
            iterations = operator.index(self.max_iterations)
        except TypeError:
            iterations = 0
        if iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")


@dataclass
class StabilizerRun:
    """Iteration trace and outcome of one stabilization call."""

    outcome: Outcome
    iterations: int
    final_fp: float
    duration_s: float
    trace: list[tuple] = field(default_factory=list)
    clamp_events: int = 0

    def write_trace_csv(self, path) -> Path:
        return write_csv(path, TRACE_HEADER, self.trace)


class _Clock:
    """Accumulates simulated time from instrument latencies: a probe pair is
    two reads (each with its reference switch, `Polarimeter.latency_s`), a
    voltage update one piezo settle."""

    def __init__(self, polarimeter: Polarimeter, piezo: PiezoController):
        self.t = 0.0
        self._read = polarimeter.latency_s
        self._settle = piezo.settle_s

    def probe_pair(self) -> None:
        self.t += 2.0 * self._read

    def piezo_apply(self) -> None:
        self.t += self._settle


def probe_link(ch: ChannelState) -> tuple[list[float], list[float]]:
    """The link's outputs for the H and D reference light `polcore.S_H` and
    `S_D`, as float triples. A link held still gives the same pair to every probe."""
    return transmit_probe(ch, polcore.S_H).tolist(), transmit_probe(ch, polcore.S_D).tolist()


def measure_probe_pair(
    link: tuple[list[float], list[float]],
    piezo: PiezoController,
    polarimeter: Polarimeter,
) -> list[tuple[float, float, float]]:
    """Read both receiver polarizations of the link outputs `link`
    (`probe_link`) after the compensator: both are turned by the
    controller's channels (`PiezoController.turn_pair`) and read with one
    paired polarimeter draw. Returns the H and D reads as float triples.
    """
    return polarimeter.read_pair(*piezo.turn_pair(*link))


def _error_of_pair(s1, s2) -> float:
    # Squared distances of the H read from S_H = (1, 0, 0) and of the D read
    # from S_D = (0, 1, 0).
    (x1, y1, z1), (x2, y2, z2) = s1, s2
    dx, dy = x1 - 1.0, y2 - 1.0
    return (dx * dx + y1 * y1 + z1 * z1) + (x2 * x2 + dy * dy + z2 * z2)


def _fidelity_of_pair(s1, s2) -> float:
    (x1, y1, z1), (x2, y2, z2) = s1, s2
    n1 = math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
    n2 = math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
    if n1 < 1e-12 or n2 < 1e-12:
        return 0.0
    return polcore.process_fidelity_from_trace(
        polcore._trace_of_unit_pair((x1 / n1, y1 / n1), (x2 / n2, y2 / n2))
    )


def error_function(
    link: tuple[list[float], list[float]],
    piezo: PiezoController,
    polarimeter: Polarimeter,
) -> float:
    """Probe error f(U) of the link outputs `link` at the controller's
    current voltages."""
    s1, s2 = measure_probe_pair(link, piezo, polarimeter)
    return _error_of_pair(s1, s2)


def gradient(
    link: tuple[list[float], list[float]],
    piezo: PiezoController,
    polarimeter: Polarimeter,
    delta_u_v: float,
    clock: _Clock | None = None,
) -> np.ndarray:
    """Finite-difference descent direction over the four voltages.

    Probes that would exceed the voltage limits fall back to a one-sided
    difference with the in-range probe only. Each probe's piezo settling
    and probe-pair reads are charged to `clock`.
    """
    if not (math.isfinite(delta_u_v) and delta_u_v > 0.0):
        raise ValueError(f"delta_u_v must be finite and > 0, got {delta_u_v}")
    clock = clock or _Clock(polarimeter, piezo)

    def probe(u: list[float]) -> float:
        piezo.set_voltages(u)
        clock.piezo_apply()
        clock.probe_pair()
        return error_function(link, piezo, polarimeter)

    u0 = piezo.voltages
    f0 = None
    out = []
    for i in range(4):
        lo, hi = list(u0), list(u0)
        lo[i] -= delta_u_v
        hi[i] += delta_u_v
        f_lo = probe(lo) if abs(lo[i]) <= piezo.limit_v else None
        f_hi = probe(hi) if abs(hi[i]) <= piezo.limit_v else None
        if f_lo is None and f_hi is None:
            raise VoltageOutOfRange(
                f"search step {delta_u_v} V exceeds limits on both sides of channel {i + 1}"
            )
        if f_lo is None or f_hi is None:
            if f0 is None:
                f0 = probe(u0)
            if f_lo is None:
                out.append((f0 - f_hi) / delta_u_v)
            else:
                out.append((f_lo - f0) / delta_u_v)
        else:
            out.append((f_lo - f_hi) / (2.0 * delta_u_v))
    piezo.set_voltages(u0)
    return np.array(out)


def adapt_parameters(cfg: StabilizerConfig, current_fp: float) -> tuple[float, float]:
    """Step size and search voltage for the next iteration.

    Below the crossover fidelity the initial values are kept; from the
    crossover on, both shrink as (1-F)/(1-F_crossover) * initial + minimum.
    """
    if current_fp < cfg.fp_crossover:
        return cfg.d0, cfg.du0_v
    ratio = (1.0 - current_fp) / (1.0 - cfg.fp_crossover)
    return ratio * cfg.d0 + cfg.d1, ratio * cfg.du0_v + cfg.du1_v


def stabilize(
    ch: ChannelState,
    piezo: PiezoController,
    polarimeter: Polarimeter,
    cfg: StabilizerConfig | None = None,
) -> StabilizerRun:
    """Run the feedback loop until fidelity reaches the threshold.

    Records one trace row per iteration (voltages, error, fidelity,
    simulated time). The channel is held still during the run, so its H and
    D outputs are mapped once and every probe reads that pair.
    """
    cfg = cfg or StabilizerConfig()
    clock = _Clock(polarimeter, piezo)
    clamp_before = piezo.clamp_events

    link = probe_link(ch)
    trace: list[tuple] = []
    outcome = Outcome.MAX_ITERATIONS
    # Iteration 0 only probes; step 1 takes d0 and du0_v whatever that probe read.
    for iteration in range(cfg.max_iterations + 1):
        if iteration > 0:
            d_step, du = adapt_parameters(cfg, fp) if iteration > 1 else (cfg.d0, cfg.du0_v)
            direction = gradient(link, piezo, polarimeter, du, clock)
            piezo.apply_clamped([u + d_step * g for u, g in zip(piezo.voltages, direction.tolist())])
            clock.piezo_apply()

        clock.probe_pair()
        s1, s2 = measure_probe_pair(link, piezo, polarimeter)
        fp = _fidelity_of_pair(s1, s2)
        trace.append((iteration, *piezo.voltages, _error_of_pair(s1, s2), fp, clock.t))
        if fp >= cfg.fp_threshold:
            outcome = Outcome.CONVERGED
            break

    return StabilizerRun(
        outcome=outcome,
        iterations=iteration,
        final_fp=fp,
        duration_s=clock.t,
        trace=trace,
        clamp_events=piezo.clamp_events - clamp_before,
    )


@dataclass
class WindowRecord:
    """One window: its boundary stabilization and the compensator rotation
    the piezo holds through the window. `fp_before` is the stabilization's
    first read; a window that took no step records 0 iterations, no time
    and `fp_after == fp_before`."""

    fp_before: float
    stab_iterations: int
    stab_duration_s: float
    fp_after: float
    compensator: np.ndarray


def window_plan(transmit_window_s: float, total_s: float, drift_dt_s: float) -> tuple[int | float, int | float]:
    """(windows, drift steps per window) of a duty cycle of `total_s` in
    windows of `transmit_window_s`, each walked in steps of about `drift_dt_s`.
    A ratio that overflows to inf is returned as inf, which no int holds."""
    # Counted once, not by summing window starts: 2.1 / 0.7 is 3 windows. A
    # ratio that underflows to 0 still runs one window.
    windows, steps = total_s / transmit_window_s * (1.0 - 1e-9), transmit_window_s / drift_dt_s
    return (max(1, math.ceil(windows)) if windows < math.inf else windows,
            max(1, round(steps)) if steps < math.inf else steps)


def duty_cycle_run(
    ch: ChannelState,
    piezo: PiezoController,
    polarimeter: Polarimeter,
    cfg: StabilizerConfig,
    transmit_window_s: float,
    total_s: float,
    drift_dt_s: float = 1.0,
) -> tuple[list[WindowRecord], np.ndarray, np.ndarray]:
    """Alternate free-drift transmission windows with stabilization runs;
    returns one record per window, in window order, from which the caller
    counts stabilizations and their durations, and the link's rotation and
    spike mask after each drift step, shapes (windows, steps, 3, 3) and
    (windows, steps).

    Each boundary is one `stabilize` call, whose iteration-0 probe is the
    boundary read (a window at or above the threshold takes no step and
    records no time). Each window is then one `ch.walk` of its drift steps,
    which fills its slice of both arrays. The piezo is idle for a whole
    window, so its rotation is read once, as the record's compensator.
    """
    if transmit_window_s <= 0.0 or total_s <= 0.0:
        raise ValueError("windows must be > 0")
    records: list[WindowRecord] = []
    n_windows, n_steps = window_plan(transmit_window_s, total_s, drift_dt_s)
    dt = transmit_window_s / n_steps
    rotations, spiked = np.empty((n_windows, n_steps, 3, 3)), np.empty((n_windows, n_steps), dtype=bool)
    for window in range(n_windows):
        run = stabilize(ch, piezo, polarimeter, cfg)
        duration = run.duration_s if run.iterations else 0.0
        fp_before = run.trace[0][TRACE_HEADER.index("process_fidelity")]
        rotations[window], spiked[window] = ch.walk(dt, n_steps)
        records.append(WindowRecord(fp_before, run.iterations, duration, run.final_fp, piezo.rotation()))
    return records, rotations, spiked
