"""Scenario configuration: parsing, validation and object assembly.

Scenarios are INI files with explicit units in the key names, e.g.

    [scenario]
    protocol = stabilize
    seed = 20260401

    [channel]
    night_rate_rad2_per_s = 2e-7
    pdl_db = 0.08

Every key has a documented default; unknown keys are rejected so typos
surface at validate time instead of silently falling back. `validate`
returns a list of Issue records with best-effort line numbers; `load`
raises ConfigInvalid on the first set of problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from configparser import ConfigParser
from pathlib import Path

import numpy as np

from . import seeding
from .channel import ChannelState, DaySchedule, PdlSpikeProcess
from .instruments import PiezoController, Polarimeter, ReferenceSwitch
from .polcore import PdlElement
from .protocols import PROTOCOLS, drift_lag
from .quantum import BASIS_KETS, IonMemory, SpdcSource
from .stabilizer import StabilizerConfig

__all__ = ["ConfigInvalid", "Issue", "Scenario", "load", "loads", "validate_file"]


class ConfigInvalid(ValueError):
    """Scenario file is missing, malformed, or out of physical range."""

    def __init__(self, issues: list[Issue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


@dataclass(frozen=True)
class Issue:
    section: str
    key: str
    message: str
    line: int | None = None

    def __str__(self) -> str:
        loc = f"line {self.line}: " if self.line else ""
        return f"{loc}[{self.section}] {self.key}: {self.message}"


def _positive(x: float) -> bool:
    return x > 0.0


def _non_negative(x: float) -> bool:
    return x >= 0.0


def _fraction(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _unit_open(x: float) -> bool:
    return 0.0 < x <= 1.0


def _time_of_day(seconds: float) -> bool:
    return 0.0 <= seconds <= 86400.0


# (section, key) -> (parser, default, predicate, constraint description)
_FIELDS: dict[tuple[str, str], tuple] = {
    ("scenario", "name"): (str, "", None, ""),
    ("scenario", "seed"): (int, 12345, lambda v: 0 <= v < 2**64, "in [0, 2^64)"),
    ("scenario", "protocol"): (str, None, lambda v: v in PROTOCOLS, f"one of {tuple(PROTOCOLS)}"),
    ("scenario", "out_dir"): (str, "", None, ""),

    ("channel", "day_rate_rad2_per_s"): (float, 1.5e-6, _non_negative, ">= 0"),
    ("channel", "night_rate_rad2_per_s"): (float, 2.0e-7, _non_negative, ">= 0"),
    ("channel", "day_start_hms"): ("hms", "07:30", _time_of_day, "in [00:00, 24:00]"),
    ("channel", "day_end_hms"): ("hms", "18:00", _time_of_day, "in [00:00, 24:00]"),
    ("channel", "start_clock_s"): (float, 0.0, _non_negative, ">= 0"),
    ("channel", "drift_dt_s"): (float, 1.0, _positive, "> 0"),
    ("channel", "pdl_db"): (float, 0.08, _non_negative, ">= 0"),
    ("channel", "pdl_axis"): ("vec3", "1,0,0", lambda v: np.any(v != 0.0), "nonzero"),
    ("channel", "spike_rate_per_s"): (float, 0.0, _non_negative, ">= 0"),
    ("channel", "spike_extra_db"): (float, 0.5, _non_negative, ">= 0"),
    ("channel", "spike_duration_s"): (float, 30.0, _positive, "> 0"),
    ("channel", "overhead_km"): (float, 1.278, _positive, "> 0"),
    ("channel", "temp_sensitivity_ps_per_km_k"): (float, 37.4, _positive, "> 0"),

    ("instruments", "polarimeter_sigma"): (float, 1e-3, _non_negative, ">= 0"),
    ("instruments", "polarimeter_latency_s"): (float, 0.045, _non_negative, ">= 0"),
    ("instruments", "switch_latency_s"): (float, 0.0, _non_negative, ">= 0"),
    ("instruments", "piezo_gain_rad_per_v"): (float, 0.5, lambda v: v != 0 and math.isfinite(v), "finite nonzero"),
    ("instruments", "piezo_limit_v"): (float, 10.0, _positive, "> 0"),
    ("instruments", "piezo_settle_s"): (float, 0.0, _non_negative, ">= 0"),

    ("stabilizer", "fp_threshold"): (float, 0.99, _unit_open, "in (0, 1]"),
    ("stabilizer", "fp_crossover"): (float, 0.95, lambda v: 0 < v < 1, "in (0, 1)"),
    ("stabilizer", "d0"): (float, 2.0, _positive, "> 0"),
    ("stabilizer", "d1"): (float, 0.1, _positive, "> 0"),
    ("stabilizer", "du0_v"): (float, 0.2, _positive, "> 0"),
    ("stabilizer", "du1_v"): (float, 0.02, _positive, "> 0"),
    ("stabilizer", "max_iterations"): (int, 200, lambda v: v >= 1, ">= 1"),

    ("source", "phase_rad"): (float, 0.0, None, ""),
    ("source", "noise_p"): (float, 0.2187, _fraction, "in [0, 1]"),
    ("source", "pair_rate_per_s"): (float, 144.4, _non_negative, ">= 0"),

    ("ion", "exposure_window_us"): (float, 400.0, _positive, "> 0"),
    ("ion", "decay_per_s"): (float, 313.4, _non_negative, ">= 0"),

    # pdl-characterize
    ("protocol", "n_samples"): (int, 500, lambda v: v >= 2, ">= 2"),
    ("protocol", "sample_period_s"): (float, 91.0, _positive, "> 0"),
    ("protocol", "link_pdl_mean_db"): (float, 0.08, _non_negative, ">= 0"),
    ("protocol", "link_pdl_sigma_db"): (float, 0.045, _non_negative, ">= 0"),
    ("protocol", "det_pdl_mean_db"): (float, 0.23, _non_negative, ">= 0"),
    ("protocol", "det_pdl_sigma_db"): (float, 0.02, _non_negative, ">= 0"),
    # drift-characterize
    ("protocol", "total_s"): (float, 4000.0, _positive, "> 0"),
    ("protocol", "trace_period_s"): (float, 10.0, _positive, "> 0"),
    ("protocol", "tau_grid_s"): ("floats", "10,20,40,80,160", None, ""),
    # stabilize
    ("protocol", "n_trials"): (int, 50, lambda v: v >= 1, ">= 1"),
    # distribute-entanglement
    ("protocol", "intervals_s"): ("floats", "5,20,60,160", None, ""),
    ("protocol", "total_per_interval_s"): (float, 3200.0, _positive, "> 0"),
    ("protocol", "counts_per_basis"): (float, 0.0, _non_negative, ">= 0 (0 = exact)"),
    ("protocol", "correct_background"): (bool, True, None, ""),
    ("protocol", "accidental_rate_a_per_s"): (float, 0.0, _non_negative, ">= 0"),
    ("protocol", "accidental_rate_b_per_s"): (float, 0.0, _non_negative, ">= 0"),
    ("protocol", "coincidence_window_s"): (float, 1e-9, _positive, "> 0"),
    # ion-photon / teleport
    ("protocol", "apply_link_to_arm_b"): (bool, True, None, ""),
    ("protocol", "stabilize_first"): (bool, True, None, ""),
    ("protocol", "input_states"): (
        "labels", "H,V,D,R", lambda v: set(v) <= set(BASIS_KETS), f"labels from {','.join(BASIS_KETS)}"
    ),
    # delay-drift
    ("protocol", "days"): (float, 2.0, _positive, "> 0"),
    ("protocol", "temp_amplitude_k"): (float, 4.0, _non_negative, ">= 0"),
    ("protocol", "temp_period_s"): (float, 86400.0, _positive, "> 0"),
    ("protocol", "temp_trend_k_per_day"): (float, 0.5, None, ""),
    ("protocol", "temp_noise_k"): (float, 0.02, _non_negative, ">= 0"),
    ("protocol", "measurement_noise_ps"): (float, 1.0, _non_negative, ">= 0"),
    ("protocol", "series_period_s"): (float, 120.0, _positive, "> 0"),
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _parse_value(kind, raw: str):
    if kind is str:
        return raw.strip()
    if kind is int:
        return int(raw.strip())
    if kind is float:
        return _finite(raw)
    if kind is bool:
        low = raw.strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind == "vec3":
        parts = [_finite(x) for x in raw.split(",")]
        if len(parts) != 3:
            raise ValueError("need 3 comma-separated components")
        return np.array(parts)
    if kind == "floats":
        return tuple(_finite(x) for x in raw.split(","))
    if kind == "labels":
        return tuple(x.strip().upper() for x in raw.split(","))
    if kind == "hms":
        h, _, m = raw.partition(":")
        try:
            return float(h) * 3600.0 + float(m or 0) * 60.0
        except ValueError:
            raise ValueError(f"not a time of day HH:MM: {raw.strip()!r}") from None
    raise AssertionError(kind)


def parse_value(section: str, key: str, raw: str):
    """`raw` parsed as the value of `[section] key`; a ValueError names the
    bound it violates."""
    kind, _, predicate, bound = _FIELDS[(section, key)]
    value = _parse_value(kind, raw)
    if predicate is not None and not predicate(value):
        raise ValueError(f"value {raw.strip()!r} violates bound {bound}")
    return value


@dataclass
class Scenario:
    """Fully parsed scenario: typed values plus the raw file text."""

    name: str
    seed: int
    protocol: str
    out_dir: str
    values: dict[tuple[str, str], object]
    text: str

    def __getitem__(self, section_key: tuple[str, str]):
        return self.values[section_key]

    def protocol_value(self, key: str):
        return self.values[("protocol", key)]

    # -- assembly ----------------------------------------------------------

    def rng(self, label: str) -> np.random.Generator:
        return seeding.stream(self.seed, label)

    def make_channel(self, label: str = "channel.drift", rotation=None) -> ChannelState:
        """The configured link, its drift walk on stream `label`, starting at
        `rotation` (identity by default)."""
        v = self.values
        pdl_db = v[("channel", "pdl_db")]
        if pdl_db > 0.0:
            pdl = PdlElement.from_db(v[("channel", "pdl_axis")], pdl_db)
        else:
            pdl = PdlElement.from_axis(np.zeros(3), 1.0)
        return ChannelState(
            rng=self.rng(label),
            pdl=pdl,
            day_rate=v[("channel", "day_rate_rad2_per_s")],
            night_rate=v[("channel", "night_rate_rad2_per_s")],
            schedule=DaySchedule(
                day_start_s=v[("channel", "day_start_hms")],
                day_end_s=v[("channel", "day_end_hms")],
            ),
            rotation=np.eye(3) if rotation is None else rotation,
            clock_s=v[("channel", "start_clock_s")],
            spikes=PdlSpikeProcess(
                rate_per_s=v[("channel", "spike_rate_per_s")],
                extra_db=v[("channel", "spike_extra_db")],
                duration_s=v[("channel", "spike_duration_s")],
            ),
        )

    def make_polarimeter(self, label: str = "polarimeter") -> Polarimeter:
        return Polarimeter(
            sigma=self.values[("instruments", "polarimeter_sigma")],
            latency_s=self.values[("instruments", "polarimeter_latency_s")],
            rng=self.rng(label),
        )

    def make_piezo(self) -> PiezoController:
        v = self.values
        piezo = PiezoController(
            gains_rad_per_v=np.full(4, v[("instruments", "piezo_gain_rad_per_v")]),
            limit_v=v[("instruments", "piezo_limit_v")],
            settle_s=v[("instruments", "piezo_settle_s")],
        )
        piezo.bias_neutral()
        return piezo

    def make_switch(self) -> ReferenceSwitch:
        return ReferenceSwitch(latency_s=self.values[("instruments", "switch_latency_s")])

    def make_stabilizer_config(self) -> StabilizerConfig:
        v = self.values
        return StabilizerConfig(
            fp_threshold=v[("stabilizer", "fp_threshold")],
            fp_crossover=v[("stabilizer", "fp_crossover")],
            d0=v[("stabilizer", "d0")],
            d1=v[("stabilizer", "d1")],
            du0_v=v[("stabilizer", "du0_v")],
            du1_v=v[("stabilizer", "du1_v")],
            max_iterations=v[("stabilizer", "max_iterations")],
        )

    def make_source(self) -> SpdcSource:
        v = self.values
        return SpdcSource(
            phase_rad=v[("source", "phase_rad")],
            pair_rate_per_s=v[("source", "pair_rate_per_s")],
            noise_p=v[("source", "noise_p")],
        )

    def make_ion(self) -> IonMemory:
        v = self.values
        return IonMemory(
            exposure_window_s=v[("ion", "exposure_window_us")] * 1e-6,
            decay_per_s=v[("ion", "decay_per_s")],
        )


def _find_line(text: str, section: str, key: str) -> int | None:
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
        elif current == section and stripped.split("=")[0].strip() == key and "=" in stripped:
            return lineno
    return None


# The drift-characterize run holds one rotation per trace period in memory.
_MAX_TRACE_STEPS = 10**6


def _drift_lag_issues(text: str, values) -> list[Issue]:
    """The trace may hold at most _MAX_TRACE_STEPS periods, and each
    tau_grid_s entry must be > 0 and give its own lag, in trace periods,
    that the run's int(total_s / trace_period_s) periods cover."""
    total = values.get(("protocol", "total_s"))
    period = values.get(("protocol", "trace_period_s"))
    taus = values.get(("protocol", "tau_grid_s"))
    if None in (total, period, taus):
        return []
    steps = total / period  # a float, so inf where int() would overflow
    if steps > _MAX_TRACE_STEPS:
        return [Issue("protocol", "trace_period_s",
                      f"total_s / trace_period_s = {steps:g} trace periods; "
                      f"at most {_MAX_TRACE_STEPS} per run",
                      _find_line(text, "protocol", "trace_period_s"))]
    longest = int(steps)
    if longest < min(drift_lag(tau, period) for tau in taus):
        return [Issue("protocol", "total_s",
                      "too short for every tau_grid_s lag at this trace_period_s",
                      _find_line(text, "protocol", "total_s"))]
    line = _find_line(text, "protocol", "tau_grid_s")
    issues = []
    seen: dict[int, float] = {}
    for tau in taus:
        lag = drift_lag(tau, period)
        if tau <= 0.0:
            message = f"entry {tau:g} must be > 0"
        elif lag > longest:
            message = (f"entry {tau:g} is a lag of {lag} trace periods; total_s covers "
                       f"{longest}")
        elif lag in seen:
            message = f"entries {seen[lag]:g} and {tau:g} both round to a lag of {lag} trace periods"
        else:
            seen[lag] = tau
            continue
        issues.append(Issue("protocol", "tau_grid_s", message, line))
    return issues


def _collect(text: str) -> tuple[dict[tuple[str, str], object], list[Issue]]:
    parser = ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (all lower case)
    issues: list[Issue] = []
    try:
        parser.read_string(text)
    except Exception as exc:  # configparser raises several subclasses
        return {}, [Issue("scenario", "(file)", f"parse error: {exc}")]

    values: dict[tuple[str, str], object] = {}
    for (section, key), (kind, default, _, _) in _FIELDS.items():
        if parser.has_option(section, key):
            try:
                values[(section, key)] = parse_value(section, key, parser.get(section, key))
            except ValueError as exc:
                issues.append(Issue(section, key, str(exc), _find_line(text, section, key)))
        else:
            values[(section, key)] = (
                _parse_value(kind, default) if isinstance(default, str) and kind not in (str,)
                else default
            )

    known = {s for s, _ in _FIELDS}
    for section in parser.sections():
        if section not in known:
            issues.append(Issue(section, "(section)", "unknown section"))
            continue
        for key in parser.options(section):
            if (section, key) not in _FIELDS:
                issues.append(Issue(section, key, "unknown key", _find_line(text, section, key)))

    if values.get(("scenario", "protocol")) is None:
        issues.append(Issue("scenario", "protocol", "required key is missing"))

    fp_th = values.get(("stabilizer", "fp_threshold"))
    fp_x = values.get(("stabilizer", "fp_crossover"))
    if fp_th is not None and fp_x is not None and not fp_x < fp_th:
        issues.append(Issue("stabilizer", "fp_crossover", f"must be < fp_threshold ({fp_th})"))

    # The controller idles at a quarter turn on two channels (`bias_neutral`).
    gain = values.get(("instruments", "piezo_gain_rad_per_v"))
    limit = values.get(("instruments", "piezo_limit_v"))
    if gain is not None and limit is not None and 0.5 * math.pi / abs(gain) > limit:
        issues.append(
            Issue("instruments", "piezo_limit_v",
                  f"below the neutral bias pi/(2*|piezo_gain_rad_per_v|) = "
                  f"{0.5 * math.pi / abs(gain):g} V",
                  _find_line(text, "instruments", "piezo_limit_v"))
        )

    # `adapt_parameters` never searches further than du0_v + du1_v, so from
    # any in-range voltage `gradient` has at least one in-range probe.
    du0 = values.get(("stabilizer", "du0_v"))
    du1 = values.get(("stabilizer", "du1_v"))
    if None not in (du0, du1, limit) and du0 + du1 > limit:
        issues.append(
            Issue("stabilizer", "du0_v", f"du0_v + du1_v must be <= piezo_limit_v ({limit:g} V)",
                  _find_line(text, "stabilizer", "du0_v"))
        )

    protocol = values.get(("scenario", "protocol"))
    if protocol in PROTOCOLS and parser.has_section("protocol"):
        allowed = PROTOCOLS[protocol].keys
        for key in parser.options("protocol"):
            if (("protocol", key) in _FIELDS) and key not in allowed:
                issues.append(
                    Issue("protocol", key, f"not a parameter of protocol {protocol!r}",
                          _find_line(text, "protocol", key))
                )

    if protocol == "drift-characterize":
        issues += _drift_lag_issues(text, values)
    if (protocol == "distribute-entanglement" and values.get(("protocol", "counts_per_basis")) == 0.0
            and values.get(("source", "pair_rate_per_s")) == 0.0):
        issues.append(
            Issue("source", "pair_rate_per_s",
                  "must be > 0 for exact counts (counts_per_basis = 0): every count table is empty",
                  _find_line(text, "source", "pair_rate_per_s"))
        )
    return values, issues


def loads(text: str, name: str = "scenario") -> Scenario:
    values, issues = _collect(text)
    if issues:
        raise ConfigInvalid(issues)
    scen_name = values[("scenario", "name")] or name
    out_dir = values[("scenario", "out_dir")] or f"runs/{scen_name}"
    return Scenario(
        name=scen_name,
        seed=values[("scenario", "seed")],
        protocol=values[("scenario", "protocol")],
        out_dir=out_dir,
        values=values,
        text=text,
    )


def load(path) -> Scenario:
    p = Path(path)
    if not p.is_file():
        raise ConfigInvalid([Issue("scenario", "(file)", f"no such file: {p}")])
    return loads(p.read_text(), name=p.stem)


def validate_file(path) -> list[Issue]:
    """Schema and physical-range check without running; empty list means valid."""
    p = Path(path)
    if not p.is_file():
        return [Issue("scenario", "(file)", f"no such file: {p}")]
    _, issues = _collect(p.read_text())
    return issues
