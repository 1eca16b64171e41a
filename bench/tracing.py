"""Span tracing of fiberlink's layers from outside the package.

`Tracer.install` replaces each traced function with a wrapper at the place
where its caller looks the name up: a module attribute, a name bound by
`from ... import` in the calling module, a method on its class, or an entry
of the protocol runner table. Each wrapper records a span (name, parent
span, start, end); a span's self time is its duration minus the durations
of its direct children. Nothing under `src/` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

import benchstats

# (module, attribute path in that module, span name). Several entries patch
# the same function under one span name because callers bind it in
# different modules.
PATCHES = (
    ("polcore", "rotation_about", "polcore.rotation_about"),
    ("polcore", "su2_of_rotation", "polcore.su2_of_rotation"),
    ("polcore", "pdl_apply_bloch", "polcore.pdl_apply_bloch"),
    ("polcore", "process_fidelity", "polcore.process_fidelity"),
    ("instruments", "PiezoController.rotation", "instruments.piezo_rotation"),
    ("instruments", "Polarimeter.read", "instruments.polarimeter_read"),
    ("channel", "ChannelState.advance", "channel.advance"),
    ("stabilizer", "transmit_probe", "channel.transmit_probe"),
    ("channel", "transmit_qubit_kraus", "channel.transmit_qubit_kraus"),
    ("quantum", "transmit_qubit_kraus", "channel.transmit_qubit_kraus"),
    ("stabilizer", "stabilize", "stabilizer.stabilize"),
    ("stabilizer", "gradient", "stabilizer.gradient"),
    ("stabilizer", "measure_probe_pair", "stabilizer.measure_probe_pair"),
    ("stabilizer", "duty_cycle_run", "stabilizer.duty_cycle_run"),
    ("stabilizer", "StabilizerRun.write_trace_csv", "stabilizer.write_trace_csv"),
    ("quantum", "tomography_2q", "quantum.tomography_2q"),
    ("quantum", "coincidence_probabilities", "quantum.coincidence_probabilities"),
    ("quantum", "mc_uncertainty", "quantum.mc_uncertainty"),
    ("quantum", "subtract_expected_accidentals", "quantum.subtract_expected_accidentals"),
    ("quantum", "write_counts_csv", "quantum.write_counts_csv"),
    ("analysis", "quantile_surface", "analysis.quantile_surface"),
    ("analysis", "delay_correlation", "analysis.delay_correlation"),
    ("analysis", "write_quantile_surface_csv", "analysis.write_quantile_surface_csv"),
    ("protocols", "write_csv", "output.write_csv"),
    ("protocols", "write_json", "output.write_json"),
    ("cli", "write_json", "output.write_json"),
    ("cli", "sha256_file", "output.sha256_file"),
    ("config", "load", "config.load"),
)

# Functions traced for calls and self time; `cli.main` is wrapped by the
# benchmark at its own call site.
CALL_SPANS = tuple(dict.fromkeys(name for _, _, name in PATCHES)) + ("cli.main",)

RUNNERS = (
    "run_pdl_characterize",
    "run_drift_characterize",
    "run_stabilize",
    "run_distribute_entanglement",
    "run_ion_photon",
    "run_teleport",
    "run_delay_drift",
)

# Writers and the number of files one call writes.
WRITERS = {
    "output.write_csv": 1,
    "output.write_json": 1,
    "quantum.write_counts_csv": 1,
    "stabilizer.write_trace_csv": 1,
    "analysis.write_quantile_surface_csv": 2,
}


def _layer_metric_specs():
    specs = []
    for name in CALL_SPANS:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    specs += [(f"protocols.{r}.self_s", "s", "lower") for r in RUNNERS]
    specs += [
        ("quantum.tomography_2q.fallback_ratio", "ratio", "lower"),
        ("stabilizer.stabilize.ms.p50", "ms", "lower"),
        ("stabilizer.stabilize.ms.p90", "ms", "lower"),
        ("stabilizer.iterations_per_call", "count", "lower"),
        ("stabilizer.converged_ratio", "ratio", "higher"),
        ("stabilizer.clamp_events", "count", "lower"),
        ("output.bytes_written", "bytes", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = _layer_metric_specs()


def self_times(parents, durations) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(durations)
    for parent, dur in zip(parents, durations):
        if parent >= 0:
            child[parent] += dur
    return [d - c for d, c in zip(durations, child)]


class Tracer:
    """In-memory span recorder with per-name aggregation."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names: list[str] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.active = True
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.stabilize_s: list[float] = []  # duration of each stabilize call

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """Wrapper of `fn` that records one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self._names)
            self._names.append(name)
            self._parents.append(self._stack[-1] if self._stack else -1)
            self._ends.append(0.0)
            self._stack.append(idx)
            self._starts.append(self._clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._ends[idx] = self._clock()
                self._stack.pop()
            if observe is not None:
                observe(self.counters, result)
            return result

        return wrapper

    def enclosing(self, prefix: str) -> str | None:
        """Name of the innermost open span whose name starts with prefix."""
        for idx in reversed(self._stack):
            if self._names[idx].startswith(prefix):
                return self._names[idx]
        return None

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run unrecorded (used by correctness checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def drain(self) -> tuple[Counter, dict[str, float]]:
        """Fold the spans recorded since the last drain into the totals.

        Returns the calls and self seconds per name of the drained spans.
        Call only between operations, when no span is open.
        """
        if self._stack:
            raise RuntimeError("drain with open spans")
        durations = [e - s for s, e in zip(self._starts, self._ends)]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for name, dur, own in zip(self._names, durations, self_times(self._parents, durations)):
            calls[name] += 1
            self_s[name] += own
            if name == "stabilizer.stabilize":
                self.stabilize_s.append(dur)
        self.calls.update(calls)
        for name, value in self_s.items():
            self.self_s[name] += value
        self._names, self._parents, self._starts, self._ends = [], [], [], []
        return calls, dict(self_s)

    # -- patching -------------------------------------------------------

    def _replace(self, owner, attr: str, name: str, observe=None) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, observe)
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, original, observe))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Patch every traced name of the fiberlink package."""
        observers = {
            "stabilizer.stabilize": _observe_stabilize,
            "quantum.tomography_2q": _observe_tomography,
        }
        for module_name, path, span in PATCHES:
            owner = importlib.import_module(f"fiberlink.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            if span == "stabilizer.duty_cycle_run":
                self._replace(owner, attr, span, None)
                self._attribute_callbacks(owner, attr)
            else:
                self._replace(owner, attr, span, observers.get(span))
        protocols = importlib.import_module("fiberlink.protocols")
        for key, runner in list(protocols.RUNNERS.items()):
            if runner.__name__ not in RUNNERS:
                raise RuntimeError(f"untraced protocol runner {runner.__name__}")
            self._replace(protocols.RUNNERS, key, f"protocols.{runner.__name__}")

    def _attribute_callbacks(self, owner, attr: str) -> None:
        """Count `duty_cycle_run` callbacks as time of the calling runner.

        The callbacks are the runner's own code (the arm-B accumulation of
        distribute-entanglement), so their spans carry the runner's name.
        """
        traced = getattr(owner, attr)

        @functools.wraps(traced)
        def duty_cycle_run(*args, **kwargs):
            runner = self.enclosing("protocols.")
            if runner is not None and self.active:
                for key in ("on_step", "on_window_complete"):
                    if kwargs.get(key) is not None:
                        kwargs[key] = self.wrap(runner, kwargs[key])
            return traced(*args, **kwargs)

        setattr(owner, attr, duty_cycle_run)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def _observe_stabilize(counters: Counter, run) -> None:
    counters["stabilize.iterations"] += run.iterations
    counters["stabilize.converged"] += run.outcome.value == "converged"
    counters["stabilize.clamp_events"] += run.clamp_events


_MIXED = np.eye(4, dtype=complex) / 4.0


def _observe_tomography(counters: Counter, rho) -> None:
    counters["tomography_2q.fallback"] += bool(np.array_equal(rho, _MIXED))


def files_written(calls) -> int:
    """Number of output files the traced writer calls produced."""
    return sum(calls.get(name, 0) * n for name, n in WRITERS.items())


def layer_report(tracer: Tracer, overhead_ratio: float) -> dict[str, dict]:
    """Per-layer metrics from a tracer's totals, keyed as in LAYER_METRICS."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    n_stab = calls.get("stabilizer.stabilize", 0)
    n_tomo = calls.get("quantum.tomography_2q", 0)
    stab_ms = [d * 1e3 for d in tracer.stabilize_s]
    values = {}
    for name in CALL_SPANS:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for runner in RUNNERS:
        values[f"protocols.{runner}.self_s"] = self_s.get(f"protocols.{runner}", 0.0)
    values.update({
        "quantum.tomography_2q.fallback_ratio":
            counters["tomography_2q.fallback"] / n_tomo if n_tomo else 0.0,
        "stabilizer.stabilize.ms.p50": benchstats.percentile(stab_ms, 50.0) if stab_ms else 0.0,
        "stabilizer.stabilize.ms.p90": benchstats.percentile(stab_ms, 90.0) if stab_ms else 0.0,
        "stabilizer.iterations_per_call":
            counters["stabilize.iterations"] / n_stab if n_stab else 0.0,
        "stabilizer.converged_ratio":
            counters["stabilize.converged"] / n_stab if n_stab else 0.0,
        "stabilizer.clamp_events": counters["stabilize.clamp_events"],
        "output.bytes_written": counters["output.bytes_written"],
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
