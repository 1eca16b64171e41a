"""The benchmark's workloads: inputs from a seed, one timed call per
operation, and the correctness checks on each operation's outputs.

Every workload splits an operation into `prepare` (untimed: inputs and
output directory), `execute` (the timed call into fiberlink) and `check`
(untimed: verifies the outputs and returns what the report needs). Inputs
depend only on the workload seed and the operation index.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fiberlink import cli, config, quantum


class CheckFailed(AssertionError):
    """An operation's outputs violate a property that holds for any seed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def op_seed(seed: int, index: int) -> int:
    """Scenario seed of operation `index` of a run with workload seed `seed`."""
    digest = hashlib.sha256(f"fiberlink-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class OpResult:
    items: int
    digest: bytes = b""
    # Span name -> call count the traced run must observe for this operation;
    # "files" is the number of files the writers must have produced.
    expected_calls: dict = field(default_factory=dict)
    bytes_written: int = 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _in_unit_interval(x: float) -> bool:
    return 0.0 <= x <= 1.0


# ---------------------------------------------------------------------------
# Workloads that run shipped presets through the command line
# ---------------------------------------------------------------------------

class CliWorkload:
    """Operations are `fiberlink run <preset>` calls through `cli.main`.

    Every workload class sets `min_ops`: each run executes at least that
    many operations, and the output digest and the traced run cover exactly
    those. `pass_size` operations make one pass.
    """

    presets: tuple[str, ...] = ()
    trials: int | None = None
    pass_size = 1

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.out_root = out_root
        self.scenarios: dict[str, config.Scenario] = {}

    def setup(self) -> None:
        for name in self.presets:
            path = cli._resolve(name)
            require(path is not None, f"preset {name} not found")
            issues = config.validate_file(path)
            require(not issues, f"preset {name} invalid: {issues}")
            self.scenarios[name] = config.load(path)

    def preset_of(self, index: int) -> str:
        return self.presets[index % len(self.presets)]

    def prepare(self, index: int) -> dict:
        preset = self.preset_of(index)
        out = self.out_root / f"op{index}"
        if out.exists():
            shutil.rmtree(out)
        argv = ["run", preset, "--seed", str(op_seed(self.seed, index)),
                "--out", str(out), "--quiet"]
        if self.trials is not None:
            argv += ["--trials", str(self.trials)]
        return {"preset": preset, "out": out, "argv": argv}

    def execute(self, op: dict, main=None):
        return (main or cli.main)(op["argv"])

    def check(self, op: dict, rc) -> OpResult:
        out = op["out"]
        try:
            require(rc == 0, f"{op['preset']}: exit code {rc}")
            manifest_path = out / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            outputs = manifest["outputs"]
            on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            require(on_disk == sorted(outputs), f"{op['preset']}: files {on_disk} vs manifest {sorted(outputs)}")
            for name, digest in outputs.items():
                require(_sha256(out / name) == digest, f"{op['preset']}: hash mismatch for {name}")
            result = self.check_outputs(op, out)
            result.digest = manifest_path.read_bytes()
            result.expected_calls["output.sha256_file"] = len(outputs)
            result.expected_calls["files"] = len(outputs) + 1
            result.bytes_written = sum(p.stat().st_size for p in out.iterdir())
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check_outputs(self, op: dict, out: Path) -> OpResult:
        return OpResult(items=1)


class DutyCycle(CliWorkload):
    """`ppe_dutycycle` shortened to `trials` seconds per interval, all intervals kept."""

    presets = ("ppe_dutycycle",)
    trials = 5
    min_ops = 10

    def check_outputs(self, op: dict, out: Path) -> OpResult:
        scn = self.scenarios[op["preset"]]
        rows = _read_csv(out / "dutycycle.csv")
        for interval in scn.protocol_value("intervals_s"):
            windows = [int(r["window"]) for r in rows if float(r["interval_s"]) == float(interval)]
            n = math.ceil(self.trials / interval)
            require(windows == list(range(n)),
                    f"interval {interval:g}: windows {windows[:5]}... expected {n}")
        require(len(rows) == sum(math.ceil(self.trials / i) for i in scn.protocol_value("intervals_s")),
                "rows for unknown intervals")
        for r in rows:
            for key in ("fp_before", "fp_after", "fidelity_raw", "fidelity_corrected"):
                require(_in_unit_interval(float(r[key])), f"{key}={r[key]} outside [0, 1]")
        per_window = 2 if scn.protocol_value("correct_background") else 1
        return OpResult(
            items=len(rows),
            expected_calls={"quantum.tomography_2q": per_window * len(rows)},
        )


class StabilizeCampaign(CliWorkload):
    """`stabilize_demo` campaigns of `trials` random static channels each."""

    presets = ("stabilize_demo",)
    trials = 6
    min_ops = 20

    def check_outputs(self, op: dict, out: Path) -> OpResult:
        rows = _read_csv(out / "stabilize_trials.csv")
        with open(out / "stabilize_summary.json") as fh:
            summary = json.load(fh)
        require([int(r["trial"]) for r in rows] == list(range(self.trials)), "trial rows")
        require(summary["n_trials"] == self.trials, "summary n_trials")
        outcomes = [r["outcome"] for r in rows]
        require(set(outcomes) <= {"converged", "max_iterations"}, f"outcomes {set(outcomes)}")
        converged = outcomes.count("converged")
        require(summary["converged"] == converged, "summary converged count")
        require(summary["convergence_rate"] == converged / self.trials, "summary convergence rate")
        iterations = [int(r["iterations"]) for r in rows]
        durations = [float(r["duration_s"]) for r in rows]
        require(math.isclose(summary["mean_iterations"], sum(iterations) / len(rows), rel_tol=1e-12),
                "summary mean iterations")
        require(math.isclose(summary["mean_duration_s"], sum(durations) / len(rows), rel_tol=1e-12),
                "summary mean duration")
        for r in rows:
            require(_in_unit_interval(float(r["final_fp"])), f"final_fp={r['final_fp']}")
        return OpResult(
            items=self.trials,
            expected_calls={"stabilizer.stabilize": self.trials},
        )


class PresetSweep(CliWorkload):
    """Every other shipped preset at its own size, each run with a fresh seed."""

    presets = (
        "pdl_characterize",
        "drift_characterize",
        "ion_photon",
        "teleport_ideal",
        "teleport_noisy",
        "delay_drift",
    )
    pass_size = len(presets)
    min_ops = 3 * len(presets)


# ---------------------------------------------------------------------------
# Library-level tomography with Monte Carlo error bars
# ---------------------------------------------------------------------------

_SQ2 = math.sqrt(2.0)
_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "R": np.array([1.0, 1.0j], dtype=complex) / _SQ2,
}
SETTINGS = tuple((a, b) for a in "HVDR" for b in "HVDR")
_PROJECTORS = {
    (a, b): np.kron(np.outer(_KETS[a], _KETS[a].conj()), np.outer(_KETS[b], _KETS[b].conj()))
    for a, b in SETTINGS
}
_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / _SQ2
_PAULI = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
)
# Mean coincidences per setting: sparse tables exercise zero counts and
# eigenvalue clipping, dense ones the near-exact reconstruction.
COUNT_SCALES = (20, 200, 2000)
MC_RESAMPLES = 100
STATE_TOL = 1e-10
ROUND_TRIP_TOL = 1e-9


@dataclass
class Table:
    rho: np.ndarray
    counts: list
    exact: list
    accidentals: float


def make_table(seed: int, index: int) -> Table:
    """Noisy Bell pair through a random arm-B link rotation, as a count table.

    The state is (1-p)|psi+><psi+| + p I/4 with p uniform in [0.02, 0.3],
    rotated by a Haar-random SU(2) on arm B. Each of the 16 settings gets
    Poisson counts with mean 4 * scale * probability plus a flat accidental
    mean; `exact` holds the noise-free probabilities.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    noise = rng.uniform(0.02, 0.3)
    rho = (1.0 - noise) * np.outer(_PSI_PLUS, _PSI_PLUS.conj()) + noise * np.eye(4) / 4.0
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    u = q[0] * np.eye(2, dtype=complex) - 1.0j * sum(c * s for c, s in zip(q[1:], _PAULI))
    k = np.kron(np.eye(2, dtype=complex), u)
    rho = k @ rho @ k.conj().T
    scale = COUNT_SCALES[index % len(COUNT_SCALES)]
    accidentals = scale * rng.uniform(0.005, 0.05)
    probs = [float(np.trace(_PROJECTORS[s] @ rho).real) for s in SETTINGS]
    counts = [
        (a, b, float(rng.poisson(4.0 * scale * max(p, 0.0) + accidentals)), 1.0)
        for (a, b), p in zip(SETTINGS, probs)
    ]
    exact = [(a, b, p, 1.0) for (a, b), p in zip(SETTINGS, probs)]
    return Table(rho=rho, counts=counts, exact=exact, accidentals=accidentals)


def _require_state(rho: np.ndarray, what: str) -> None:
    require(np.allclose(rho, rho.conj().T, rtol=0.0, atol=STATE_TOL), f"{what}: not Hermitian")
    require(abs(np.trace(rho).real - 1.0) <= STATE_TOL, f"{what}: trace {np.trace(rho).real}")
    require(np.linalg.eigvalsh(rho).min() >= -STATE_TOL, f"{what}: not positive semidefinite")


class TomographyMc:
    """Per table: tomography, accidental-corrected tomography, Monte Carlo error bars."""

    pass_size = len(COUNT_SCALES)
    min_ops = 2 * len(COUNT_SCALES)
    # Tables generated during set-up; further ones are made between timed operations.
    pregenerated = 60

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.tables: dict[int, Table] = {}

    def setup(self) -> None:
        for i in range(self.pregenerated):
            self.tables[i] = make_table(self.seed, i)

    def prepare(self, index: int) -> dict:
        table = self.tables.pop(index, None) or make_table(self.seed, index)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index, 1]))
        return {"table": table, "rng": rng}

    def execute(self, op: dict, main=None):
        t = op["table"]
        rho_raw = quantum.tomography_2q(t.counts)
        corrected = quantum.subtract_expected_accidentals(t.counts, t.accidentals)
        rho_corr = quantum.tomography_2q(corrected)
        mc = quantum.mc_uncertainty(t.counts, MC_RESAMPLES, op["rng"])
        return rho_raw, rho_corr, mc

    def check(self, op: dict, result) -> OpResult:
        rho_raw, rho_corr, mc = result
        _require_state(rho_raw, "raw state")
        _require_state(rho_corr, "corrected state")
        values = np.asarray(mc.values)
        require(values.shape == (MC_RESAMPLES,), "resample count")
        require(bool(np.all((values >= -STATE_TOL) & (values <= 1.0 + STATE_TOL))), "fidelity outside [0, 1]")
        require(math.isfinite(mc.sigma) and mc.sigma >= 0.0, f"sigma {mc.sigma}")
        t = op["table"]
        back = quantum.tomography_2q(t.exact)
        err = float(np.abs(back - t.rho).max())
        require(err <= ROUND_TRIP_TOL, f"exact-probability round trip off by {err:.3g}")
        digest = rho_raw.tobytes() + rho_corr.tobytes() + values.tobytes()
        return OpResult(
            items=1,
            digest=digest,
            expected_calls={
                "quantum.tomography_2q": 2 + 1 + MC_RESAMPLES,
                "quantum.subtract_expected_accidentals": 1,
                "quantum.mc_uncertainty": 1,
            },
        )


WORKLOADS = {
    "dutycycle": DutyCycle,
    "stabilize_campaign": StabilizeCampaign,
    "tomography_mc": TomographyMc,
    "preset_sweep": PresetSweep,
}
