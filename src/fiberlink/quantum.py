"""Two-qubit density-matrix engine for the network protocols.

Conventions
-----------
Single-qubit kets are written in the {|H>, |V>} basis; two-qubit states are
ordered arm A (x) arm B (kron of the single-qubit spaces). Polarization
labels map to kets as H=(1,0), V=(0,1), D=(H+V)/sqrt2, A=(H-V)/sqrt2,
R=(H+iV)/sqrt2, L=(H-iV)/sqrt2, matching the Stokes axes of `polcore`.

The pair source emits (|HV> + e^{-i phi} |VH>)/sqrt2 mixed with a white
admixture p. The arm-B ket phase reference is chosen so that phi = 0 gives
the maximally entangled state with +|VH> (the convention the source is
calibrated to in situ); a unit test pins this choice.

The ion memory qubit lives in the Zeeman pair {|-1/2>, |+1/2>}, stored as
basis order (e0, e1) = (|-1/2>, |+1/2>). Heralded absorption maps an
incoming photon onto the memory such that the ideal pair input produces
(|-1/2>|R> - |+1/2>|L>)/sqrt2; the natural photonic partner basis of the
memory is therefore circular, and process matrices of the teleportation are
reported in the Pauli order (identity, H/V flip, D/A flip, R/L flip) whose
last element is the "z" rotation of the memory basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import _require
# No code here calls it; the benchmark's tracer patches it by this module's name.
from .channel import transmit_qubit_kraus  # noqa: F401
from .output import write_csv
from .polcore import PAULI

__all__ = [
    "BASIS_KETS",
    "BELL_PSI_PLUS",
    "CountTable",
    "ION_PHOTON_TARGET",
    "TOMO_BASES_1Q",
    "TOMO_BASES_2Q",
    "IonMemory",
    "McResult",
    "SingularDesign",
    "SpdcSource",
    "arm_b_superoperator",
    "bsm_branches",
    "check_state",
    "coincidence_probabilities",
    "fidelity",
    "heralded_absorption",
    "mc_uncertainty",
    "on_arm_b_superoperator",
    "process_fidelity_element",
    "process_matrix_from_io",
    "process_tomography",
    "purity",
    "write_counts_csv",
    "spdc_state",
    "tomography_2q",
]

_SQ2 = math.sqrt(2.0)

BASIS_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "A": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "R": np.array([1.0, 1.0j], dtype=complex) / _SQ2,
    "L": np.array([1.0, -1.0j], dtype=complex) / _SQ2,
}

TOMO_BASES_1Q = ("H", "V", "D", "R")
TOMO_BASES_2Q = tuple(
    (a, b) for a in TOMO_BASES_1Q for b in TOMO_BASES_1Q
)

# Read-only (4, 2, 2) stack of the Pauli set (identity, H/V flip, D/A flip,
# R/L flip); see module docstring.
_PAULI4 = np.stack((np.eye(2, dtype=complex),) + PAULI)
_PAULI4.flags.writeable = False
PAULI_LABELS = ("i", "hv", "da", "rl")

BELL_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / _SQ2

# Ideal memory-photon state after absorption of one pair photon:
# (|-1/2>|R> - |+1/2>|L>)/sqrt2 with memory order (|-1/2>, |+1/2>).
ION_PHOTON_TARGET = (
    np.kron(np.array([1.0, 0.0]), BASIS_KETS["R"])
    - np.kron(np.array([0.0, 1.0]), BASIS_KETS["L"])
) / _SQ2

# Absorption isometry: photon polarization -> memory qubit, fixed by the
# requirement that the ideal pair input maps onto ION_PHOTON_TARGET.
_ABSORB = np.array([[1.0j, 1.0], [1.0j, -1.0]], dtype=complex) / _SQ2
# The isometry acting on arm A of a pair state.
_ABSORB_ARM_A = np.kron(_ABSORB, np.eye(2, dtype=complex))

# Preparation encoding making the ideal teleportation the identity channel:
# the memory amplitudes carry the circular components of the target state.
_ENCODE = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / _SQ2

_BELL_MINUS_MEM = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / _SQ2
_BELL_PLUS_MEM = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / _SQ2


def _bell_projector(bell: np.ndarray) -> np.ndarray:
    """Read-only |B><B| (x) I on the (memory, arm A, arm B) qubits."""
    proj = np.kron(np.outer(bell, bell.conj()), np.eye(2, dtype=complex))
    proj.flags.writeable = False
    return proj


# (herald name, projector) of the two distinguished Bell states
_BSM_PROJECTORS = (
    ("phi_minus", _bell_projector(_BELL_MINUS_MEM)),
    ("phi_plus", _bell_projector(_BELL_PLUS_MEM)),
)


class SingularDesign(ValueError):
    """Measurement set is not informationally complete."""


def check_state(rho: np.ndarray, context: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    # np.allclose(rho, h, atol=1e-10)'s formula; nan fails here.
    h = rho.conj().T
    if not (np.abs(rho - h) <= 1e-10 + 1e-5 * np.abs(h)).all():
        raise ValueError(f"{context}: not Hermitian")
    if abs(rho.trace().real - 1.0) > 1e-10:
        raise ValueError(f"{context}: trace {rho.trace().real} != 1")
    if not np.isfinite(rho).all():
        raise ValueError(f"{context}: entries not finite")
    spectrum = np.linalg.eigvalsh(rho)
    if not np.isfinite(spectrum).all():
        raise ValueError(f"{context}: spectrum not finite")
    if spectrum.min() < -1e-9:
        raise ValueError(f"{context}: negative eigenvalue")
    return rho


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


def fidelity(rho: np.ndarray, target_ket: np.ndarray) -> float:
    """Overlap <psi| rho |psi> with a pure target."""
    k = np.asarray(target_ket, dtype=complex)
    return float((k.conj() @ (rho @ k)).real)


# ---------------------------------------------------------------------------
# Pair source and channel action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpdcSource:
    """Cavity-enhanced pair source with adjustable phase and white admixture.

    The phase must be finite, the pair rate finite and >= 0, and the
    admixture `noise_p` in [0, 1].
    """

    phase_rad: float = 0.0
    pair_rate_per_s: float = 144.4
    noise_p: float = 0.0

    def __post_init__(self) -> None:
        _require("real", lambda v: True, phase_rad=self.phase_rad)
        _require(">= 0", lambda v: v >= 0.0, pair_rate_per_s=self.pair_rate_per_s)
        _require("in [0, 1]", lambda v: 0.0 <= v <= 1.0, noise_p=self.noise_p)


def spdc_state(src: SpdcSource) -> np.ndarray:
    """Source state (1-p) |psi(phi)><psi(phi)| + p I/4.

    psi(phi) = (|HV> + e^{-i phi} |VH>)/sqrt2 in the calibrated arm-B phase
    reference, so phi = 0 yields the maximally entangled state whose
    fidelity is measured in the experiments.
    """
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0 / _SQ2
    ket[2] = np.exp(-1.0j * src.phase_rad) / _SQ2
    rho = (1.0 - src.noise_p) * np.outer(ket, ket.conj()) + src.noise_p * np.eye(4) / 4.0
    return check_state(rho, "spdc_state")


def arm_b_superoperator(op: np.ndarray) -> np.ndarray:
    """op (x) conj(op) as a (2,2,2,2) array S[i, j, k, l] = op[i, k] conj(op[j, l]).

    S is the map X -> op X op^dag on the arm-B indices of a two-qubit
    matrix, and the sum of such arrays is the sum of their maps, so a run
    of arm-B operators can be summed here and applied once with
    `on_arm_b_superoperator`. A stack of operators, shape (..., 2, 2),
    gives the stack of their arrays, shape (..., 2, 2, 2, 2).
    """
    op = np.asarray(op, dtype=complex)
    return op[..., :, None, :, None] * op.conj()[..., None, :, None, :]


def on_arm_b_superoperator(rho: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply an arm-B superoperator (a sum of `arm_b_superoperator` terms)."""
    rho4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("ijkl,akbl->aibj", s, rho4).reshape(4, 4)


# ---------------------------------------------------------------------------
# Ion memory: heralded absorption and teleportation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IonMemory:
    """Abstract memory qubit with exponential dephasing in the Zeeman basis.

    decay_per_s is the effective dephasing rate after the spin echo; the
    coherence factor over the exposure window is exp(-decay * window). The
    window must be finite and > 0, the rate finite and >= 0.
    """

    exposure_window_s: float = 400e-6
    decay_per_s: float = 0.0

    def __post_init__(self) -> None:
        _require("> 0", lambda v: v > 0.0, exposure_window_s=self.exposure_window_s)
        _require(">= 0", lambda v: v >= 0.0, decay_per_s=self.decay_per_s)

    def coherence(self) -> float:
        return math.exp(-self.decay_per_s * self.exposure_window_s)


# Z on the first of two qubits, Z (x) I, read-only.
_Z_FIRST = np.kron(PAULI[0], np.eye(2, dtype=complex))
_Z_FIRST.flags.writeable = False


def _dephase_first_qubit(rho: np.ndarray, coherence: float) -> np.ndarray:
    """Phase damping of the first qubit of a one- or two-qubit state."""
    if coherence >= 1.0:
        return rho
    z = _Z_FIRST if len(rho) == 4 else PAULI[0]
    return 0.5 * (1.0 + coherence) * rho + 0.5 * (1.0 - coherence) * (z @ rho @ z)


def heralded_absorption(rho_pair: np.ndarray, ion: IonMemory) -> np.ndarray:
    """Map the arm-A photon onto the memory qubit, then dephase it.

    Returns the (memory (x) photon-B) state; a perfect pair input yields the
    ideal memory-photon target up to the dephasing of the exposure window.
    """
    out = _ABSORB_ARM_A @ np.asarray(rho_pair, dtype=complex) @ _ABSORB_ARM_A.conj().T
    out = _dephase_first_qubit(out, ion.coherence())
    return check_state(out, "heralded_absorption")


def _encode_prepared(prepared: np.ndarray) -> np.ndarray:
    """Memory density matrix for a prepared qubit state (ket or 2x2)."""
    prepared = np.asarray(prepared, dtype=complex)
    if prepared.ndim == 1:
        rho = np.outer(prepared, prepared.conj())
    else:
        rho = prepared
    return _ENCODE @ rho @ _ENCODE.conj().T


def bsm_branches(
    prepared: np.ndarray,
    rho_pair: np.ndarray,
    ion: IonMemory,
) -> dict[str, tuple[float, np.ndarray]]:
    """Born probabilities and unnormalized photon-B states per herald.

    The memory is prepared (with dephasing over the exposure window), the
    arm-A photon is absorbed, and the joint memory pair is projected onto
    the two distinguished Bell states. Values are (probability,
    probability * conditional_state), so the second entry is the linear
    (trace = probability) branch output used for process reconstruction.
    The two (|B><B| (x) I) projectors are read-only constants built at
    import.
    """
    rho_m = _dephase_first_qubit(_encode_prepared(prepared), ion.coherence())

    rho_ab = _ABSORB_ARM_A @ np.asarray(rho_pair, dtype=complex) @ _ABSORB_ARM_A.conj().T
    joint = np.kron(rho_m, rho_ab)  # qubits (m, a, B)

    branches = {}
    for name, proj in _BSM_PROJECTORS:
        sub = proj @ joint @ proj
        prob = float(np.trace(sub).real)
        rho_b = _partial_trace_to_last(sub)
        branches[name] = (prob, rho_b)
    return branches


def _partial_trace_to_last(rho8: np.ndarray) -> np.ndarray:
    """Trace out the first two qubits of a three-qubit state."""
    r = rho8.reshape(4, 2, 4, 2)
    return np.einsum("kikj->ij", r)


# ---------------------------------------------------------------------------
# State tomography
# ---------------------------------------------------------------------------

def _projector(label: str) -> np.ndarray:
    try:
        ket = BASIS_KETS[label]
    except KeyError:
        raise SingularDesign(f"unknown basis label {label!r}") from None
    return np.outer(ket, ket.conj())


def _projector_2q(ba: str, bb: str) -> np.ndarray:
    """Two-qubit projector P_a (x) P_b; an unknown label raises SingularDesign."""
    return np.kron(_projector(ba), _projector(bb))


# read-only (16, 4, 4) stack of the projectors of TOMO_BASES_2Q
_TOMO_PROJECTORS = np.stack([_projector_2q(ba, bb) for ba, bb in TOMO_BASES_2Q])
_TOMO_PROJECTORS.flags.writeable = False


def coincidence_probabilities(rho: np.ndarray) -> dict[tuple[str, str], float]:
    """Forward model: coincidence probability per setting of TOMO_BASES_2Q.

    The 16 projectors are one read-only stack built at import, so a call is
    one stacked product and one stacked trace.
    """
    rho = np.asarray(rho, dtype=complex)
    probs = np.trace(_TOMO_PROJECTORS @ rho, axis1=1, axis2=2).real.tolist()
    return dict(zip(TOMO_BASES_2Q, probs))


@functools.lru_cache(maxsize=16)
def _inversion_map(settings: tuple[tuple[str, str], ...]) -> np.ndarray:
    """Read-only map from a setting list's rates to the 16 entries of X.

    Row nu of the design matrix is vec(P_nu^T), since tr(P_nu X) =
    vec(P_nu^T) . vec(X); the map is its pseudo-inverse. It is built, and
    the design's rank checked, once per distinct setting tuple; a
    rank-deficient or unknown setting list raises SingularDesign and is
    never cached, so every call with it raises again.
    """
    design = np.stack([_projector_2q(ba, bb).T.reshape(16) for ba, bb in settings])
    if np.linalg.matrix_rank(design, tol=1e-10) < 16:
        raise SingularDesign("measurement settings are not informationally complete")
    inversion = np.linalg.pinv(design)
    inversion.flags.writeable = False
    return inversion


def _table_is_valid(counts: list[float], times: list[float]) -> bool:
    """Every count finite and >= 0, every time finite and > 0, in Python
    floats (a fraction of four numpy reductions); nan fails each comparison."""
    for v in counts:
        if not 0.0 <= v < math.inf:
            return False
    for v in times:
        if not 0.0 < v < math.inf:
            return False
    return True


@dataclass(frozen=True, eq=False)
class CountTable:
    """A coincidence count table. `settings` holds each row's (basis_a,
    basis_b) and keys the inversion map's cache; `counts` and `integration_s`
    are read-only float copies, one entry per row. The constructor checks the
    table once: a ValueError names the first row whose count is negative or
    not finite, or whose integration time is not finite and > 0."""

    settings: tuple[tuple[str, str], ...]
    counts: np.ndarray
    integration_s: np.ndarray

    def __post_init__(self) -> None:
        n, t = np.array(self.counts, dtype=float), np.array(self.integration_s, dtype=float)
        n.flags.writeable = t.flags.writeable = False
        if not n.shape == t.shape == (len(self.settings),):
            raise ValueError(f"count table: {len(self.settings)} settings, {n.shape} counts, {t.shape} times")
        object.__setattr__(self, "counts", n)
        object.__setattr__(self, "integration_s", t)
        # The row is sought only on failure.
        if not _table_is_valid(n.tolist(), t.tolist()):
            i = int(np.argmin((0.0 <= n) & (n < math.inf) & (0.0 < t) & (t < math.inf)))
            raise ValueError(f"count row {(*self.settings[i], float(n[i]), float(t[i]))!r}: counts "
                             "must be finite and >= 0 and the integration time finite and > 0")

    @classmethod
    def of(cls, table) -> CountTable:
        """`table` if it is a CountTable, else the table of its (basis_a, basis_b,
        counts[, integration_s]) rows; a 3-field row is integrated for 1 s."""
        if isinstance(table, cls):
            return table
        rows = [(*row, 1.0) if len(row) == 3 else row for row in table]
        settings = tuple((str(ba), str(bb)) for ba, bb, _, _ in rows)
        return cls(settings, *(np.array([r[k] for r in rows], dtype=float) for k in (2, 3)))


def tomography_2q(counts) -> np.ndarray:
    """Two-qubit state from a 16-setting coincidence table.

    `counts` is a CountTable or its rows (`CountTable.of`). Counts are
    converted to rates, the unnormalized Hermitian operator X with
    tr(P_nu X) = rate_nu is solved for by linear inversion, and X is
    normalized and projected onto the physical cone (eigenvalue clipping).
    Exact probabilities of any physical state round-trip to that state.

    The inversion depends only on the settings, not on the counts: one
    linear map from rates to X is built and rank-checked once per distinct
    setting tuple and kept in a small bounded, read-only cache, so a call
    is one matrix-vector product (James et al., PRA 64, 052312, 2001).

    Raises SingularDesign when the setting list does not span the two-qubit
    operator space, and ValueError when the count rates overflow the state.
    """
    table = CountTable.of(counts)
    if len(table.settings) < 16:
        raise SingularDesign(f"need at least 16 settings, got {len(table.settings)}")
    inversion = _inversion_map(table.settings)
    rates = table.counts / table.integration_s
    x = (inversion @ rates).reshape(4, 4)
    total = float(x.trace().real)
    if total <= 0.0:
        # Pathological data (e.g. all-zero counts): fall back to the
        # maximally mixed state rather than dividing by a non-positive trace.
        return np.eye(4, dtype=complex) / 4.0
    x = x / total
    x = 0.5 * (x + x.conj().T)
    if not (total < math.inf and np.isfinite(x).all()):  # finite counts: the rates overflow
        raise ValueError(f"tomography_2q: count rates (max {rates.max():g}/s, trace {total:g}/s) overflow the state")
    return _project_physical(x)


def _project_physical(rho: np.ndarray) -> np.ndarray:
    """Clip the spectrum of a finite Hermitian `rho` of unit trace at zero
    and rescale it to unit trace. The state V diag(clipped) V^dag / sum is
    Hermitian, positive and of unit trace to rounding whenever that sum is
    finite and > 0, so the sum is all that is checked (ValueError).
    """
    evals, evecs = np.linalg.eigh(rho)
    evals = np.maximum(evals, 0.0)
    total = evals.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"tomography_2q: clipped spectrum sums to {total}")
    return (evecs * (evals / total)) @ evecs.conj().T


@dataclass
class McResult:
    """Monte Carlo resampling summary of a tomography-derived quantity."""

    mean: float
    sigma: float
    values: np.ndarray
    point_estimate: float
    warnings: list[str] = field(default_factory=list)


def mc_uncertainty(
    counts,
    n_resamples: int,
    rng: np.random.Generator,
) -> McResult:
    """Poisson-resample the count table and propagate through tomography.

    Each count is resampled as Poisson(count), all resamples drawn as one
    (n_resamples, n_rows) block; the tomography and the Bell fidelity (to
    the maximally entangled pair state BELL_PSI_PLUS) are re-run per
    resample, one `tomography_2q` call each. Deterministic given the
    generator state.
    """
    if n_resamples < 100:
        raise ValueError("need n_resamples >= 100 for a meaningful spread")
    table = CountTable.of(counts)
    warnings = []
    nonzero = int(np.count_nonzero(table.counts))
    if nonzero < 16:
        warnings.append(
            f"degenerate design: only {nonzero} of {len(table.settings)} settings have counts"
        )
    point = fidelity(tomography_2q(table), BELL_PSI_PLUS)
    # One (n_resamples, n_rows) block consumes the stream exactly as
    # resample-by-resample, row-by-row scalar rng.poisson(n) calls would.
    draws = rng.poisson(table.counts, size=(n_resamples, len(table.settings))).astype(float)
    values = np.empty(n_resamples)
    for k, counts_k in enumerate(draws):
        resampled = CountTable(table.settings, counts_k, table.integration_s)
        values[k] = fidelity(tomography_2q(resampled), BELL_PSI_PLUS)
    return McResult(
        mean=float(values.mean()),
        sigma=float(values.std(ddof=1)),
        values=values,
        point_estimate=point,
        warnings=warnings,
    )


def subtract_expected_accidentals(counts, expected_per_setting: float) -> CountTable:
    """Subtract a flat expected accidental count from every setting.

    For accidentals of singles rates a and b in a coincidence window w over
    an integration time t, the expectation is a * b * w * t. Corrected
    counts are clamped at zero.
    """
    table = CountTable.of(counts)
    corrected = np.maximum(table.counts - expected_per_setting, 0.0)
    return CountTable(table.settings, corrected, table.integration_s)


COUNTS_CSV_HEADER = ("basis_a", "basis_b", "counts", "integration_s")


def write_counts_csv(path, counts) -> Path:
    """Write a coincidence count table with the fixed four-column schema."""
    t = CountTable.of(counts)
    return write_csv(path, COUNTS_CSV_HEADER,
                     zip(*zip(*t.settings), t.counts.tolist(), t.integration_s.tolist()))


# ---------------------------------------------------------------------------
# Process tomography
# ---------------------------------------------------------------------------

def process_matrix_from_io(
    inputs: list[np.ndarray],
    outputs: list[np.ndarray],
) -> np.ndarray:
    """Pauli-basis process matrix from input/output density-matrix pairs.

    Outputs may be unnormalized (trace = branch probability). chi is
    Hermitized, clipped to the positive cone and rescaled to unit trace,
    the convention used for the heralded teleportation branches.

    The design (`_process_design`) is one stacked product over the
    read-only stack of the four Paulis built at import.

    Raises SingularDesign when the inputs do not span the single-qubit
    operator space, or when the reconstructed chi has no positive trace.
    """
    if len(inputs) != len(outputs) or len(inputs) < 4:
        raise SingularDesign("need >= 4 input/output pairs")
    _check_input_completeness(inputs)
    a = _process_design(inputs)
    b = np.concatenate([np.asarray(o, dtype=complex).reshape(4) for o in outputs])
    chi_vec, *_ = np.linalg.lstsq(a, b, rcond=None)
    chi = chi_vec.reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    evals, evecs = np.linalg.eigh(chi)
    evals = np.clip(evals, 0.0, None)
    chi = (evecs * evals) @ evecs.conj().T
    t = float(np.trace(chi).real)
    if t <= 0.0:
        raise SingularDesign("reconstructed process has non-positive trace")
    return chi / t


def _process_design(inputs: list[np.ndarray]) -> np.ndarray:
    """(4 n, 16) design of n inputs: row 4 i + e, column 4 m + n holds
    entry e of P_m rho_i P_n, in the Pauli order of `_PAULI4`."""
    rho_in = np.stack([np.asarray(r, dtype=complex) for r in inputs])
    terms = _PAULI4[:, None, None] @ rho_in[None, :, None] @ _PAULI4[None, None, :]
    return terms.reshape(4, len(inputs), 4, 4).transpose(1, 3, 0, 2).reshape(-1, 16)


def process_tomography(
    channel_fn,
    input_labels: tuple[str, ...] = TOMO_BASES_1Q,
) -> np.ndarray:
    """Process matrix of a single-qubit map probed with an input set.

    channel_fn maps a 2x2 density matrix to a (possibly unnormalized) 2x2
    output; the default input set {H, V, D, R} is informationally complete.
    """
    inputs, outputs = [], []
    for label in input_labels:
        rho_in = _projector(label)
        inputs.append(rho_in)
        outputs.append(np.asarray(channel_fn(rho_in), dtype=complex))
    return process_matrix_from_io(inputs, outputs)


def _check_input_completeness(inputs: list[np.ndarray]) -> None:
    stack = np.stack([np.asarray(r).reshape(4) for r in inputs])
    flat = np.column_stack([stack.real, stack.imag]).T
    if np.linalg.matrix_rank(flat, tol=1e-10) < 4:
        raise SingularDesign("input set does not span the single-qubit operator space")


def process_fidelity_element(chi: np.ndarray, label: str) -> float:
    """Diagonal chi element for the named Pauli ('i', 'hv', 'da', 'rl')."""
    idx = PAULI_LABELS.index(label)
    return float(chi[idx, idx].real)
