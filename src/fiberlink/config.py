"""Scenario configuration: parsing, validation and object assembly.

Scenarios are INI files with explicit units in the key names, e.g.

    [scenario]
    protocol = distribute-entanglement
    seed = 20260401

    [channel]
    night_rate_rad2_per_s = 2e-7
    pdl_db = 0.08

Every key has a documented default. A scenario may set only the
`[scenario]` keys, its protocol's `[protocol]` keys and the shared keys its
protocol reads (`Protocol.reads`); any other key is rejected, so a typo or a
key the run would ignore surfaces at validate time. So is a read key that
the other values leave unread (`Protocol.ignores`). `validate`
returns a list of Issue records with best-effort line numbers; `load`
raises ConfigInvalid on the first set of problems.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from configparser import ConfigParser
from pathlib import Path

import numpy as np

from . import seeding
from .channel import ChannelState, DaySchedule, PdlSpikeProcess
from .instruments import PiezoController, Polarimeter
from .polcore import PdlElement
from .protocols import _MAX_TRACE_STEPS, PROTOCOLS, non_negative, positive
from .quantum import IonMemory, SpdcSource
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


def _fraction(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _unit_open(x: float) -> bool:
    return 0.0 < x <= 1.0


# H, HH, H:MM or HH:MM in ASCII digits
_HMS = re.compile(r"([0-9]{1,2})(?::([0-9]{2}))?")


# (section, key) -> (parser, default, predicate, constraint description) for
# the sections every scenario shares; each protocol declares its own
# `[protocol]` keys in `PROTOCOLS`
_FIELDS: dict[tuple[str, str], tuple] = {
    ("scenario", "name"): (str, "", None, ""),
    ("scenario", "seed"): (int, 12345, lambda v: 0 <= v < 2**64, "in [0, 2^64)"),
    ("scenario", "protocol"): (str, None, lambda v: v in PROTOCOLS, f"one of {tuple(PROTOCOLS)}"),
    ("scenario", "out_dir"): (str, "", None, ""),

    ("channel", "day_rate_rad2_per_s"): (float, 1.5e-6, non_negative, ">= 0"),
    ("channel", "night_rate_rad2_per_s"): (float, 2.0e-7, non_negative, ">= 0"),
    ("channel", "day_start_hms"): ("hms", "07:30", None, ""),
    ("channel", "day_end_hms"): ("hms", "18:00", None, ""),
    ("channel", "start_clock_s"): (float, 0.0, non_negative, ">= 0"),
    ("channel", "drift_dt_s"): (float, 1.0, positive, "> 0"),
    ("channel", "pdl_db"): (float, 0.08, non_negative, ">= 0"),
    ("channel", "pdl_axis"): ("vec3", "1,0,0", lambda v: np.any(v != 0.0), "nonzero"),
    ("channel", "spike_rate_per_s"): (float, 0.0, non_negative, ">= 0"),
    ("channel", "spike_extra_db"): (float, 0.5, non_negative, ">= 0"),
    ("channel", "spike_duration_s"): (float, 30.0, positive, "> 0"),
    ("channel", "overhead_km"): (float, 1.278, positive, "> 0"),
    ("channel", "temp_sensitivity_ps_per_km_k"): (float, 37.4, positive, "> 0"),

    ("instruments", "polarimeter_sigma"): (float, 1e-3, non_negative, ">= 0"),
    ("instruments", "polarimeter_latency_s"): (float, 0.045, non_negative, ">= 0"),
    ("instruments", "switch_latency_s"): (float, 0.0, non_negative, ">= 0"),
    ("instruments", "piezo_gain_rad_per_v"): (float, 0.5, lambda v: v != 0 and math.isfinite(v), "finite nonzero"),
    ("instruments", "piezo_limit_v"): (float, 10.0, positive, "> 0"),
    ("instruments", "piezo_settle_s"): (float, 0.0, non_negative, ">= 0"),

    ("stabilizer", "fp_threshold"): (float, 0.99, _unit_open, "in (0, 1]"),
    ("stabilizer", "fp_crossover"): (float, 0.95, lambda v: 0 < v < 1, "in (0, 1)"),
    ("stabilizer", "d0"): (float, 2.0, positive, "> 0"),
    ("stabilizer", "d1"): (float, 0.1, positive, "> 0"),
    ("stabilizer", "du0_v"): (float, 0.2, positive, "> 0"),
    ("stabilizer", "du1_v"): (float, 0.02, positive, "> 0"),
    ("stabilizer", "max_iterations"): (int, 200, lambda v: 1 <= v <= _MAX_TRACE_STEPS,
                                       f"in [1, {_MAX_TRACE_STEPS}]"),

    ("source", "phase_rad"): (float, 0.0, None, ""),
    ("source", "noise_p"): (float, 0.2187, _fraction, "in [0, 1]"),
    ("source", "pair_rate_per_s"): (float, 144.4, non_negative, ">= 0"),

    ("ion", "exposure_window_us"): (float, 400.0, positive, "> 0"),
    ("ion", "decay_per_s"): (float, 313.4, non_negative, ">= 0"),
}

# protocol -> the fields a scenario that runs it may set: [scenario], the
# shared keys its runner reads and its [protocol] keys
_PROTOCOL_FIELDS = {
    name: {**{k: spec for k, spec in _FIELDS.items() if k[0] == "scenario" or k in protocol.reads},
           **{("protocol", key): spec for key, spec in protocol.fields.items()}}
    for name, protocol in PROTOCOLS.items()
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
        match = _HMS.fullmatch(raw.strip())
        h, m = (int(match[1]), int(match[2] or 0)) if match else (-1, 0)
        if not (0 <= h <= 23 and m <= 59 or h == 24 and m == 0):
            raise ValueError(f"not a time of day HH:MM in [00:00, 24:00]: {raw.strip()!r}")
        return h * 3600.0 + m * 60.0
    raise AssertionError(kind)


def _parse_field(spec, raw: str):
    """`raw` parsed by the field spec; a ValueError names the bound it
    violates."""
    kind, _, predicate, bound = spec
    value = _parse_value(kind, raw)
    if predicate is not None and not predicate(value):
        raise ValueError(f"value {raw.strip()!r} violates bound {bound}")
    return value


@dataclass
class Scenario:
    """Fully parsed scenario: typed values plus the raw file text.

    `name`, `protocol`, `out_dir` and `seed` read `values`; `stem` names
    the scenario when `[scenario] name` is empty. `set_keys` holds the keys
    the file or an override set.
    """

    stem: str
    values: dict[tuple[str, str], object]
    text: str
    set_keys: frozenset[tuple[str, str]] = frozenset()

    @property
    def name(self) -> str:
        return self.values[("scenario", "name")] or self.stem

    @property
    def protocol(self) -> str:
        return self.values[("scenario", "protocol")]

    @property
    def out_dir(self) -> str:
        return self.values[("scenario", "out_dir")] or f"runs/{self.name}"

    @property
    def seed(self) -> int:
        return self.values[("scenario", "seed")]

    def __getitem__(self, section_key: tuple[str, str]):
        return self.values[section_key]

    def protocol_value(self, key: str):
        return self.values[("protocol", key)]

    def override(self, section: str, key: str, raw: str) -> None:
        """Set `[section] key` from `raw`, held to the bound of its field, to
        the bounds that span fields and to the keys the protocol leaves unread
        (`Protocol.ignores`) among those set; a ValueError names what it
        breaks. The protocol chooses the schema, so `[scenario] protocol` is
        fixed."""
        if (section, key) == ("scenario", "protocol"):
            raise ValueError("[scenario] protocol cannot be overridden")
        spec = _PROTOCOL_FIELDS[self.protocol][(section, key)]
        values = {**self.values, (section, key): _parse_field(spec, raw)}
        set_keys = self.set_keys | {(section, key)}
        issues = _checks(self.text, self.protocol, values)
        issues += _ignored(self.text, self.protocol, values, set_keys)
        if issues:
            raise ValueError("; ".join(i.message if (i.section, i.key) == (section, key)
                                       else f"[{i.section}] {i.key}: {i.message}" for i in issues))
        self.values, self.set_keys = values, set_keys

    # -- assembly ----------------------------------------------------------

    def rng(self, label: str) -> np.random.Generator:
        return seeding.stream(self.seed, label)

    def make_channel(self, label: str = "channel.drift", rotation=None) -> ChannelState:
        """The configured link, its drift walk on stream `label` and its loss
        spikes on `label.spikes`, starting at `rotation` (identity by default)."""
        v = self.values
        return ChannelState(
            rng=self.rng(label),
            pdl=PdlElement.from_db(v[("channel", "pdl_axis")], v[("channel", "pdl_db")]),
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
            spike_rng=self.rng(f"{label}.spikes"),
        )

    def make_polarimeter(self, label: str = "polarimeter") -> Polarimeter:
        """The polarimeter; each read waits for the reference switch too."""
        v = self.values
        return Polarimeter(
            sigma=v[("instruments", "polarimeter_sigma")],
            latency_s=v[("instruments", "switch_latency_s")] + v[("instruments", "polarimeter_latency_s")],
            rng=self.rng(label),
        )

    def make_piezo(self) -> PiezoController:
        v = self.values
        piezo = PiezoController(
            gain_rad_per_v=v[("instruments", "piezo_gain_rad_per_v")],
            limit_v=v[("instruments", "piezo_limit_v")],
            settle_s=v[("instruments", "piezo_settle_s")],
        )
        piezo.bias_neutral()
        return piezo

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


def _collect(text: str) -> tuple[dict[tuple[str, str], object], list[Issue], frozenset]:
    """The file's values, its issues and the keys it sets."""
    parser = ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (all lower case)
    issues: list[Issue] = []
    try:
        parser.read_string(text)
    except Exception as exc:  # configparser raises several subclasses
        return {}, [Issue("scenario", "(file)", f"parse error: {exc}")], frozenset()

    # A file whose protocol is missing or unknown leaves [protocol] unread.
    protocol = parser.get("scenario", "protocol", fallback="").strip()
    fields = _PROTOCOL_FIELDS.get(protocol, _FIELDS)
    schema = {**_FIELDS, **fields}  # the keys it does not set keep their defaults
    values: dict[tuple[str, str], object] = {}
    for (section, key), spec in schema.items():
        if (section, key) in fields and parser.has_option(section, key):
            try:
                values[(section, key)] = _parse_field(spec, parser.get(section, key))
            except ValueError as exc:
                issues.append(Issue(section, key, str(exc), _find_line(text, section, key)))
        else:
            kind, default = spec[:2]
            values[(section, key)] = (
                _parse_value(kind, default) if isinstance(default, str) and kind not in (str,)
                else default
            )

    known = {s for s, _ in schema}
    for section in parser.sections():
        if section == "protocol" and protocol not in PROTOCOLS:
            continue
        if section not in known:
            issues.append(Issue(section, "(section)", "unknown section"))
            continue
        for key in parser.options(section):
            if (section, key) not in fields:
                message = (f"not a parameter of protocol {protocol!r}" if section == "protocol"
                           else f"not read by protocol {protocol!r}" if (section, key) in _FIELDS
                           else "unknown key")
                issues.append(Issue(section, key, message, _find_line(text, section, key)))

    if not protocol:
        issues.append(Issue("scenario", "protocol", "required key is missing"))

    set_keys = frozenset((section, key) for section in parser.sections()
                         for key in parser.options(section))
    if len(values) == len(schema):  # the bounds across fields need every value
        issues += _checks(text, protocol, values) + _ignored(text, protocol, values, set_keys)
    return values, issues, set_keys


def _ignored(text: str, protocol: str, values, set_keys) -> list[Issue]:
    """An issue per key of `set_keys` that the protocol leaves unread at `values`."""
    if protocol not in PROTOCOLS:
        return []
    return [Issue(section, key, f"not read by protocol {protocol!r} {condition}",
                  _find_line(text, section, key))
            for section, key, condition in PROTOCOLS[protocol].ignores(values)
            if (section, key) in set_keys]


def _checks(text: str, protocol: str, values) -> list[Issue]:
    """The bounds across fields: the shared sections', then the protocol's."""
    found = []
    fp_th = values[("stabilizer", "fp_threshold")]
    if not values[("stabilizer", "fp_crossover")] < fp_th:
        found.append(("stabilizer", "fp_crossover", f"must be < fp_threshold ({fp_th})"))

    # The controller idles at a quarter turn on two channels (`bias_neutral`).
    neutral = 0.5 * math.pi / abs(values[("instruments", "piezo_gain_rad_per_v")])
    limit = values[("instruments", "piezo_limit_v")]
    if neutral > limit:
        found.append(("instruments", "piezo_limit_v",
                      f"below the neutral bias pi/(2*|piezo_gain_rad_per_v|) = {neutral:g} V"))

    # `adapt_parameters` never searches further than du0_v + du1_v, so from
    # any in-range voltage `gradient` has at least one in-range probe.
    if values[("stabilizer", "du0_v")] + values[("stabilizer", "du1_v")] > limit:
        found.append(("stabilizer", "du0_v", f"du0_v + du1_v must be <= piezo_limit_v ({limit:g} V)"))

    if protocol in PROTOCOLS:
        found += PROTOCOLS[protocol].checks(values)
    return [Issue(section, key, message, _find_line(text, section, key))
            for section, key, message in found]


def loads(text: str, name: str = "scenario") -> Scenario:
    values, issues, set_keys = _collect(text)
    if issues:
        raise ConfigInvalid(issues)
    return Scenario(stem=name, values=values, text=text, set_keys=set_keys)


def _read(path: Path) -> tuple[str, list[Issue]]:
    """The text of a scenario file read as UTF-8, or the issue that kept it
    from being read."""
    if not path.is_file():
        return "", [Issue("scenario", "(file)", f"no such file: {path}")]
    try:
        return path.read_text(encoding="utf-8"), []
    except (OSError, UnicodeDecodeError) as exc:
        return "", [Issue("scenario", "(file)", f"cannot read {path}: {exc}")]


def load(path) -> Scenario:
    text, issues = _read(Path(path))
    if issues:
        raise ConfigInvalid(issues)
    return loads(text, name=Path(path).stem)


def validate_file(path) -> list[Issue]:
    """Schema and physical-range check without running; empty list means valid."""
    text, issues = _read(Path(path))
    return issues or _collect(text)[1]
