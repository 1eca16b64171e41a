"""Protocol runners: compose channel, instruments, stabilizer and quantum
state engine into reproducible experiments.

Each runner takes a parsed Scenario and an output directory, writes its
protocol-specific CSV/JSON files, and returns the list of files written.
All randomness comes from labeled streams of the scenario seed, so outputs
are byte-identical across runs of the same configuration. `PROTOCOLS` is
the one table of protocols, each with its runner, the `[protocol]` keys it
declares, the shared keys it reads and its checks across fields: the
configuration schema and the CLI read it.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import analysis, channel as chmod, polcore, quantum, stabilizer
from .output import matrix_payload, write_csv, write_json

if TYPE_CHECKING:
    from .config import Scenario

__all__ = ["PROTOCOLS", "Protocol", "ProtocolFailed", "drift_lag", "run_protocol", "RUNNERS"]


class ProtocolFailed(RuntimeError):
    """A protocol could not produce its outputs."""


# The longest run `validate` lets through: trace periods, series samples,
# drift steps, loss samples, stabilization trials or stabilizer iterations,
# each held or walked in turn, and the most fidelities a drift-characterize
# run holds for its quantile surface.
_MAX_TRACE_STEPS = 10**6
_MAX_DRIFT_SAMPLES = 10**7

# The largest delay swing `validate` lets a delay-drift run reach: the
# correlation's squared deviations, (2 * 1e150)^2 for each of at most
# _MAX_TRACE_STEPS + 1 samples, then sum to a finite number.
_MAX_DELAY_SWING_PS = 1e150

# Drift steps whose arm-B operators one stack holds: whole windows, or
# chunks of one longer window, so no stack outgrows it at the step bound.
_ARM_B_BLOCK_STEPS = 8192


def _too_long(key: str, steps: float, formula: str, unit: str) -> list[tuple[str, str, str]]:
    """One issue on `[protocol] key` if a run of `steps` `unit` exceeds
    _MAX_TRACE_STEPS. `steps` is a float, so inf where int() would overflow."""
    if steps <= _MAX_TRACE_STEPS:
        return []
    return [("protocol", key, f"{formula} = {steps:g} {unit}; at most {_MAX_TRACE_STEPS} per run")]


def _stabilization_checks(values, runs: float, count: str) -> list[tuple[str, str, str]]:
    """One issue on the largest timing key if `runs` stabilizations, the most
    whose times a run sums (`count` names them), could take an infinite time.

    A stabilization reads at most 10 * max_iterations + 1 probe pairs (up to
    nine per `gradient` call, one per iteration) and settles no more often.
    """
    timing = {key: values[("instruments", key)]
              for key in ("switch_latency_s", "polarimeter_latency_s", "piezo_settle_s")}
    switch, read, settle = timing.values()
    longest = (10 * values[("stabilizer", "max_iterations")] + 1) * (2.0 * (switch + read) + settle)
    if math.isfinite(runs * longest):
        return []
    return [("instruments", max(timing, key=timing.get),
             f"{count} ({runs:g}) times the longest stabilization, (10 * max_iterations + 1) * "
             f"(2 * (switch_latency_s + polarimeter_latency_s) + piezo_settle_s) = {longest:g} s, "
             "must be finite")]


# ---------------------------------------------------------------------------
# pdl-characterize
# ---------------------------------------------------------------------------

def _pdl_checks(values) -> list[tuple[str, str, str]]:
    """The last sample time, (n_samples - 1) * sample_period_s, must be finite."""
    last = (values[("protocol", "n_samples")] - 1) * values[("protocol", "sample_period_s")]
    if math.isfinite(last):
        return []
    return [("protocol", "sample_period_s",
             f"(n_samples - 1) * sample_period_s = {last:g} s; must be finite")]


def run_pdl_characterize(scn: Scenario, out: Path) -> list[Path]:
    rng = scn.rng("protocol.pdl")
    n = scn.protocol_value("n_samples")
    period = scn.protocol_value("sample_period_s")
    link_mean = scn.protocol_value("link_pdl_mean_db")
    link_sigma = scn.protocol_value("link_pdl_sigma_db")
    det_mean = scn.protocol_value("det_pdl_mean_db")
    det_sigma = scn.protocol_value("det_pdl_sigma_db")

    link = np.clip(rng.normal(link_mean, link_sigma, size=n), 0.0, None)
    det = np.clip(rng.normal(det_mean, det_sigma, size=n), 0.0, None)
    det_campaign = np.clip(rng.normal(det_mean, det_sigma, size=n), 0.0, None)
    tot = 2.0 * link + det

    mean_db, sigma_db = analysis.pdl_statistics(tot, det_campaign)
    bounds = [polcore.pdl_fidelity_bound(10.0 ** (-l / 20.0)) for l in link.tolist()]

    rows = [
        (i, i * period, *cells)
        for i, cells in enumerate(zip(tot.tolist(), det_campaign.tolist(), bounds))
    ]
    files = [
        write_csv(
            out / "pdl_series.csv",
            ("sample", "t_s", "l_tot_db", "l_det_db", "fp_bound"),
            rows,
        ),
        write_json(
            out / "pdl_summary.json",
            {
                "single_fiber_mean_db": mean_db,
                "single_fiber_sigma_db": sigma_db,
                "fp_bound_at_mean": polcore.pdl_fidelity_bound(10.0 ** (-mean_db / 20.0)),
                "fp_bound_min": min(bounds),
                "n_samples": n,
            },
        ),
    ]
    return files


# ---------------------------------------------------------------------------
# drift-characterize
# ---------------------------------------------------------------------------

def drift_lag(tau: float, period: float) -> int:
    """The lag in trace periods at which drift-characterize samples tau."""
    return max(1, round(tau / period))


def _drift_checks(values) -> list[tuple[str, str, str]]:
    """The trace may hold at most _MAX_TRACE_STEPS periods, each tau_grid_s
    entry must be > 0 and give its own lag, in trace periods, that the run's
    int(total_s / trace_period_s) periods cover; together the lags may take
    at most _MAX_DRIFT_SAMPLES samples, trace points - lag each."""
    period, taus = values[("protocol", "trace_period_s")], values[("protocol", "tau_grid_s")]
    steps = values[("protocol", "total_s")] / period
    too_long = _too_long("trace_period_s", steps, "total_s / trace_period_s", "trace periods")
    if too_long:
        return too_long
    if steps < 1.0:  # every lag is at least one trace period
        return [("protocol", "total_s", "too short for every tau_grid_s lag at this trace_period_s")]
    longest = int(steps)
    issues = []
    seen: dict[int, float] = {}
    for tau in taus:
        # round() raises on an inf ratio; past longest + 1 the lag is past longest
        lag = drift_lag(tau, period) if tau / period <= longest + 1 else tau / period
        if tau <= 0.0:
            message = f"entry {tau:g} must be > 0"
        elif lag > longest:
            message = f"entry {tau:g} is a lag of {lag:g} trace periods; total_s covers {longest}"
        elif lag in seen:
            message = f"entries {seen[lag]:g} and {tau:g} both round to a lag of {lag} trace periods"
        else:
            seen[lag] = tau
            continue
        issues.append(("protocol", "tau_grid_s", message))
    held = sum(longest + 1 - lag for lag in seen)
    if held > _MAX_DRIFT_SAMPLES:
        issues.append(("protocol", "tau_grid_s", f"sum over tau_grid_s of (trace points - lag) = {held} "
                       f"samples; at most {_MAX_DRIFT_SAMPLES} per run"))
    return issues


def run_drift_characterize(scn: Scenario, out: Path) -> list[Path]:
    total = scn.protocol_value("total_s")
    period = scn.protocol_value("trace_period_s")
    tau_grid = scn.protocol_value("tau_grid_s")
    ch = scn.make_channel()

    n_points = int(total / period) + 1
    rotations = np.concatenate(([ch.rotation], ch.walk(period, n_points - 1)[0]))
    trace_rows = [
        (i * period, *h, *d)
        for i, (h, d) in enumerate(zip((rotations @ polcore.S_H).tolist(),
                                       (rotations @ polcore.S_D).tolist()))
    ]

    # per tau, the fidelity of each pair of rotations `lag` periods apart:
    # the process fidelity of the relative rotation R_{i+lag} R_i^T
    samples = {}
    for tau in tau_grid:
        lag = drift_lag(tau, period)
        samples[lag * period] = polcore.process_fidelity(rotations[lag:] @ rotations[:-lag].transpose(0, 2, 1))
    surface = analysis.quantile_surface(samples)

    files = [
        write_csv(
            out / "stokes_trace.csv",
            ("t_s", "h_s1", "h_s2", "h_s3", "d_s1", "d_s2", "d_s3"),
            trace_rows,
        ),
        *analysis.write_quantile_surface_csv(
            surface, out / "quantile_curves.csv", out / "incidence.csv"
        ),
    ]
    if surface.warnings:
        files.append(write_json(out / "warnings.json", {"warnings": surface.warnings}))
    return files


# ---------------------------------------------------------------------------
# stabilize
# ---------------------------------------------------------------------------

def _stabilize_checks(values) -> list[tuple[str, str, str]]:
    """The trials' summed stabilization time, for their mean, must be finite."""
    return _stabilization_checks(values, values[("protocol", "n_trials")], "n_trials")


def run_stabilize(scn: Scenario, out: Path) -> list[Path]:
    n_trials = scn.protocol_value("n_trials")
    cfg = scn.make_stabilizer_config()
    rot_rng = scn.rng("protocol.channels")

    rows = []
    first_run = None
    for trial in range(n_trials):
        rotation = polcore.random_rotation(rot_rng)
        ch = scn.make_channel(f"channel.drift.{trial}", rotation)
        piezo = scn.make_piezo()
        pol = scn.make_polarimeter(f"polarimeter.{trial}")
        run = stabilizer.stabilize(ch, piezo, pol, cfg)
        if first_run is None:
            first_run = run
        rows.append(
            (trial, run.outcome.value, run.iterations, run.final_fp,
             run.duration_s, run.clamp_events)
        )

    converged = sum(1 for r in rows if r[1] == stabilizer.Outcome.CONVERGED.value)
    files = [
        write_csv(
            out / "stabilize_trials.csv",
            ("trial", "outcome", "iterations", "final_fp", "duration_s", "clamp_events"),
            rows,
        ),
        write_json(
            out / "stabilize_summary.json",
            {
                "n_trials": n_trials,
                "converged": converged,
                "convergence_rate": converged / n_trials,
                "mean_iterations": float(np.mean([r[2] for r in rows])),
                "mean_duration_s": float(np.mean([r[4] for r in rows])),
            },
        ),
    ]
    files.append(first_run.write_trace_csv(out / "stabilize_trace.csv"))
    return files


# ---------------------------------------------------------------------------
# distribute-entanglement
# ---------------------------------------------------------------------------

def _window_counts(rho, n_per_basis, accidental_mean, rng):
    """Count table of the 16 tomography settings: the expected counts
    n_per_basis * p + accidental_mean, or a Poisson draw of them with `rng`."""
    means = n_per_basis * np.array(list(quantum.coincidence_probabilities(rho).values())) + accidental_mean
    counts = means if rng is None else rng.poisson(means).astype(float)
    return quantum.CountTable(quantum.TOMO_BASES_2Q, counts, np.ones(16))


def _hv_counts(table) -> float:
    """The counts of the HH, HV, VH and VV settings, rows 0, 1, 4 and 5 of a
    `_window_counts` table, summed left to right."""
    n = table.counts.tolist()
    return n[0] + n[1] + n[4] + n[5]


def _measured(table, what: str):
    """`table`, if its HH, HV, VH and VV settings saw counts. Without them
    the trace of the tomography's estimate is rounding residue of its
    inversion map, so the state it reports means nothing."""
    if _hv_counts(table) > 0.0:
        return table
    raise ProtocolFailed(f"{what} has no counts in the HH, HV, VH and VV settings "
                         f"({table.counts.sum():g} counts in all 16)")


def _corrected_counts(counts, noise_p, accidental_mean):
    if accidental_mean > 0.0:
        counts = quantum.subtract_expected_accidentals(counts, accidental_mean)
    return quantum.subtract_expected_accidentals(counts, _hv_counts(counts) * noise_p / 4.0)


def _noise_checks(values) -> list[tuple[str, str, str]]:
    """`_corrected_counts` takes noise_p of the HH, HV, VH and VV total for
    white noise. At noise_p = 1 it takes all of it, and what the corrected
    table keeps is the link's loss asymmetry and rounding, not a state."""
    if values[("source", "noise_p")] < 1.0:
        return []
    return [("source", "noise_p", "must be < 1 where the background is corrected: at 1 every pair is noise")]


def _duty_cycle_steps(values) -> float:
    """The drift steps `duty_cycle_run` walks over all intervals_s: exact
    within the bound, and past it an estimate that stays past it."""
    total, dt = values[("protocol", "total_per_interval_s")], values[("channel", "drift_dt_s")]
    steps = 0
    for interval in values[("protocol", "intervals_s")]:
        windows, per_window = total / interval, interval / dt
        # Floats first, so ceil() and round() never see inf: a ratio past
        # twice the bound puts its own count past the bound.
        if max(windows, per_window) <= 2 * _MAX_TRACE_STEPS:
            windows, per_window = stabilizer.window_plan(interval, total, dt)
        steps += max(1.0, windows) * max(1.0, per_window)
    return steps


def _interval_label(interval: float) -> str:
    """The label of an intervals_s entry's random streams: six significant digits."""
    return f"{interval:g}"


def _distribute_checks(values) -> list[tuple[str, str, str]]:
    issues = _noise_checks(values) if values[("protocol", "correct_background")] else []
    if values[("protocol", "counts_per_basis")] == values[("source", "pair_rate_per_s")] == 0.0:
        issues.append(("source", "pair_rate_per_s",
                       "must be > 0 for exact counts (counts_per_basis = 0): every count table is empty"))
    labels: dict[str, float] = {}
    for interval in values[("protocol", "intervals_s")]:
        label = _interval_label(interval)
        if label in labels:
            issues.append(("protocol", "intervals_s",
                           f"entries {labels[label]!r} and {interval!r} both label their random streams {label}"))
        labels.setdefault(label, interval)
    # An interval's windows number at most ceil(total / interval); the duty
    # ratio divides by the mean of their stabilization times.
    windows = values[("protocol", "total_per_interval_s")] / min(values[("protocol", "intervals_s")])
    windows = max(1, math.ceil(windows)) if math.isfinite(windows) else windows
    issues += _stabilization_checks(values, windows, "windows per interval")
    return issues + _too_long("total_per_interval_s", _duty_cycle_steps(values),
                              "sum over intervals_s of windows * drift steps per window", "drift steps")


def _distribute_ignores(values) -> list[tuple[str, str, str]]:
    # Drawn counts take counts_per_basis pairs per basis; only exact counts
    # scale with the pair rate.
    if values[("protocol", "counts_per_basis")] > 0.0:
        return [("source", "pair_rate_per_s", "when counts_per_basis > 0")]
    return []


def _arm_b_sums(rotations, spiked, ops):
    """Each window's arm-B link superoperator, in window order, from the
    rotations and spike mask `duty_cycle_run` returns and the loss
    operators `ops` of `pdl` and `spike_pdl()`.

    The link's operator after step t is K_t = B_t U_t. The idle piezo holds
    the window's compensator C, so sum_t (C K_t) rho (C K_t)^dag is
    C (sum_t K_t rho K_t^dag) C^dag, and the window's link superoperator is
    the sum over its steps of `quantum.arm_b_superoperator(K_t)`, in step
    order. A stack holds whole windows, at most `_ARM_B_BLOCK_STEPS` steps;
    a longer window is summed in chunks of that many steps, each with the
    running sum prepended.
    """
    n_windows, n_steps = spiked.shape
    per_block = max(1, _ARM_B_BLOCK_STEPS // n_steps)
    for start in range(0, n_windows, per_block):
        for lo in range(0, n_steps, _ARM_B_BLOCK_STEPS):
            chunk = np.s_[start:start + per_block, lo:lo + _ARM_B_BLOCK_STEPS]
            loss = np.where(spiked[chunk][..., None, None], ops[1], ops[0])
            terms = quantum.arm_b_superoperator(chmod.transmit_qubit_kraus(rotations[chunk], loss))
            if lo:  # the running sum first, so each window sums in step order
                terms = np.concatenate((sums[:, None], terms), axis=1)
            sums = np.add.reduce(terms, axis=1)
        yield from sums


def run_distribute_entanglement(scn: Scenario, out: Path) -> list[Path]:
    intervals = scn.protocol_value("intervals_s")
    total = scn.protocol_value("total_per_interval_s")
    counts_per_basis = scn.protocol_value("counts_per_basis")
    correct = scn.protocol_value("correct_background")
    acc_a = scn.protocol_value("accidental_rate_a_per_s")
    acc_b = scn.protocol_value("accidental_rate_b_per_s")
    coinc_w = scn.protocol_value("coincidence_window_s")
    cfg = scn.make_stabilizer_config()
    src = scn.make_source()
    rho_src = quantum.spdc_state(src)
    noise_p = src.noise_p

    rows = []
    summary = []
    for interval in intervals:
        label = _interval_label(interval)
        ch = scn.make_channel(
            f"channel.drift.{label}",
            polcore.random_rotation(scn.rng(f"protocol.initial.{label}")),
        )
        piezo = scn.make_piezo()
        pol = scn.make_polarimeter(f"polarimeter.{label}")
        count_rng = scn.rng(f"counts.{label}") if counts_per_basis > 0 else None

        integration = interval / 16.0
        n_per_basis = (
            counts_per_basis if counts_per_basis > 0
            else src.pair_rate_per_s * integration
        )
        accidental_mean = acc_a * acc_b * coinc_w * integration

        records, rotations, spiked = stabilizer.duty_cycle_run(
            ch, piezo, pol, cfg,
            transmit_window_s=float(interval),
            total_s=total,
            drift_dt_s=scn[("channel", "drift_dt_s")],
        )
        ops = np.array([ch.pdl.operator(), ch.spike_pdl().operator()])
        comps = polcore.su2_of_rotation(np.array([rec.compensator for rec in records]))

        fids_raw, fids_corr = [], []
        for window, (rec, link_sum, comp) in enumerate(zip(records, _arm_b_sums(rotations, spiked, ops), comps)):
            acc_rho = quantum.on_arm_b(quantum.on_arm_b_superoperator(rho_src, link_sum), comp)
            tr = float(np.trace(acc_rho).real)
            if tr <= 0.0:
                raise ProtocolFailed("window state fully extinguished")
            rho_bar = acc_rho / tr
            # Each step's trace is at most 1; rounding of the sum may not be.
            success = min(1.0, tr / spiked.shape[1])
            where = f"interval {label} s, window {window}"
            counts = _measured(_window_counts(rho_bar, n_per_basis, accidental_mean, count_rng),
                               f"{where}: the raw count table")
            fid_raw = quantum.bell_fidelity(quantum.tomography_2q(counts))
            if correct:
                corrected = _measured(_corrected_counts(counts, noise_p, accidental_mean),
                                      f"{where}: the corrected count table")
                fid_corr = quantum.bell_fidelity(quantum.tomography_2q(corrected))
            else:
                fid_corr = fid_raw
            fids_raw.append(fid_raw)
            fids_corr.append(fid_corr)
            rows.append(
                (interval, window, rec.fp_before, rec.fp_after,
                 rec.stab_iterations, rec.stab_duration_s,
                 fid_raw, fid_corr, success)
            )

        # the window per mean stabilization time; -1 if no run took any time
        runs = [r.stab_duration_s for r in records if r.stab_iterations > 0]
        duty_ratio = interval / (sum(runs) / len(runs)) if sum(runs) != 0.0 else math.inf
        summary.append(
            (
                interval,
                len(records),
                float(np.mean([r.fp_after for r in records])),
                float(np.mean(fids_raw)),
                float(np.mean(fids_corr)),
                len(runs),
                duty_ratio if math.isfinite(duty_ratio) else -1.0,
            )
        )

    return [
        write_csv(
            out / "dutycycle.csv",
            ("interval_s", "window", "fp_before", "fp_after", "stab_iterations",
             "stab_duration_s", "fidelity_raw", "fidelity_corrected", "success_prob"),
            rows,
        ),
        write_csv(
            out / "dutycycle_summary.csv",
            ("interval_s", "n_windows", "mean_fp_after", "mean_fidelity_raw",
             "mean_fidelity_corrected", "n_stabilizations", "duty_ratio"),
            summary,
        ),
    ]


# ---------------------------------------------------------------------------
# ion-photon
# ---------------------------------------------------------------------------

def _prepare_arm_b(scn: Scenario, rho_pair: np.ndarray):
    """Optionally transmit arm B through the link after one stabilization."""
    if not scn.protocol_value("apply_link_to_arm_b"):
        return rho_pair, 1.0, None
    ch = scn.make_channel(rotation=polcore.random_rotation(scn.rng("protocol.initial_rotation")))
    piezo = scn.make_piezo()
    run = stabilizer.stabilize(ch, piezo, scn.make_polarimeter(), scn.make_stabilizer_config())
    link, comp = polcore.su2_of_rotation(np.array([ch.rotation, piezo.rotation()]))
    rho = quantum.on_arm_b(rho_pair, comp @ (ch.current_pdl().operator() @ link))
    prob = float(np.trace(rho).real)
    if prob <= 1e-12:
        raise ProtocolFailed("arm-B photon fully blocked")
    return rho / prob, prob, run


def run_ion_photon(scn: Scenario, out: Path) -> list[Path]:
    counts_per_basis = scn.protocol_value("counts_per_basis")
    src = scn.make_source()
    ion = scn.make_ion()
    rho_pair, success, run = _prepare_arm_b(scn, quantum.spdc_state(src))
    rho = quantum.heralded_absorption(rho_pair, ion)

    rng = scn.rng("counts.ion_photon") if counts_per_basis > 0 else None
    n_per_basis = counts_per_basis if counts_per_basis > 0 else 1e6
    counts = _measured(_window_counts(rho, n_per_basis, 0.0, rng), "the raw count table")

    rho_hat = quantum.tomography_2q(counts)
    corrected = _measured(_corrected_counts(counts, src.noise_p, 0.0), "the corrected count table")
    rho_corr = quantum.tomography_2q(corrected)

    fid_raw = quantum.fidelity(rho_hat, quantum.ION_PHOTON_TARGET)
    fid_corr = quantum.fidelity(rho_corr, quantum.ION_PHOTON_TARGET)
    files = [
        quantum.write_counts_csv(out / "tomo_counts.csv", counts),
        write_json(out / "ion_photon_state.json", matrix_payload(rho_hat)),
        write_json(
            out / "ion_photon_summary.json",
            {
                "fidelity_raw": fid_raw,
                "fidelity_corrected": fid_corr,
                "purity_raw": quantum.purity(rho_hat),
                "purity_corrected": quantum.purity(rho_corr),
                "arm_b_success_prob": success,
                "stabilizer_iterations": run.iterations if run else 0,
                "ion_coherence": ion.coherence(),
            },
        ),
    ]
    return files


# ---------------------------------------------------------------------------
# teleport
# ---------------------------------------------------------------------------

# herald -> the Pauli its branch applies to the teleported qubit
_HERALD_PAULI = {"phi_minus": "i", "phi_plus": "rl"}


def _sampled_branch(prob, unnorm, n_events, rng):
    """Finite-statistics estimate of one heralded teleport branch: along each
    analysis axis (hv, da, rl), n_events protocol shots herald it with its
    Born probability `prob`, heralded shots are measured along the axis, and
    the conditional state is rebuilt from the port asymmetries."""
    rho_c = unnorm / prob if prob > 0 else np.eye(2, dtype=complex) / 2
    lam = polcore.bloch_of_density(rho_c)
    lam_hat = np.zeros(3)
    herald_counts = 0
    for idx in range(3):
        n_herald = rng.binomial(n_events, min(1.0, prob))
        herald_counts += n_herald
        p_port1 = 0.5 * (1.0 + lam[idx])
        n1 = rng.binomial(n_herald, min(1.0, max(0.0, p_port1)))
        lam_hat[idx] = 2.0 * n1 / n_herald - 1.0 if n_herald else 0.0
    norm = np.linalg.norm(lam_hat)
    if norm > 1.0:
        lam_hat /= norm
    return herald_counts / (3.0 * n_events) * polcore.density_of_bloch(lam_hat)


def run_teleport(scn: Scenario, out: Path) -> list[Path]:
    counts_per_basis = scn.protocol_value("counts_per_basis")
    labels = scn.protocol_value("input_states")
    src = scn.make_source()
    ion = scn.make_ion()
    rho_pair, success, _ = _prepare_arm_b(scn, quantum.spdc_state(src))
    rng = scn.rng("counts.teleport") if counts_per_basis > 0 else None

    # the draws run input by input, then herald by herald
    inputs = []
    probs, outputs = {h: [] for h in _HERALD_PAULI}, {h: [] for h in _HERALD_PAULI}
    for label in labels:
        ket = quantum.BASIS_KETS[label]
        rho_in = np.outer(ket, ket.conj())
        inputs.append(rho_in)
        branches = quantum.bsm_branches(rho_in, rho_pair, ion)
        for herald in _HERALD_PAULI:
            prob, unnorm = branches[herald]
            probs[herald].append(prob)
            outputs[herald].append(
                unnorm if rng is None else _sampled_branch(prob, unnorm, int(counts_per_basis), rng))
    chis = {herald: quantum.process_matrix_from_io(inputs, outs) for herald, outs in outputs.items()}
    herald_probs = {herald: float(np.mean(p)) for herald, p in probs.items()}

    rows = []
    files = []
    for herald, pauli in _HERALD_PAULI.items():
        fid = quantum.process_fidelity_element(chis[herald], pauli)
        rows.append((herald, pauli, fid, herald_probs[herald]))
        files.append(write_json(out / f"chi_{herald}.json", matrix_payload(chis[herald])))
    files.append(
        write_csv(
            out / "teleport_summary.csv",
            ("herald", "expected_pauli", "process_fidelity", "herald_probability"),
            rows,
        )
    )
    files.append(
        write_json(
            out / "teleport_meta.json",
            {
                "arm_b_success_prob": success,
                "input_states": list(labels),
                "counts_per_basis": counts_per_basis,
                "failure_probability": 1.0 - sum(herald_probs.values()),
            },
        )
    )
    return files


# ---------------------------------------------------------------------------
# delay-drift
# ---------------------------------------------------------------------------

def _delay_checks(values) -> list[tuple[str, str, str]]:
    samples = values[("protocol", "days")] * 86400.0 / values[("protocol", "series_period_s")]
    issues = _too_long("series_period_s", samples, "days * 86400 / series_period_s", "series samples")
    # The loop delay per kelvin, as `temperature_delay_prediction` scales it
    scale = values[("channel", "temp_sensitivity_ps_per_km_k")] * 2.0 * values[("channel", "overhead_km")]
    if not math.isfinite(scale):
        return issues + [("channel", "temp_sensitivity_ps_per_km_k",
                          f"temp_sensitivity_ps_per_km_k * 2 * overhead_km = {scale:g} ps/K must be finite")]
    # Both delay series stay within the swing of zero; noise is counted at ten
    # standard deviations, and the trend as the run forms it, trend * t / 86400.
    days, amp, trend, temp_noise, noise = (values[("protocol", key)] for key in (
        "days", "temp_amplitude_k", "temp_trend_k_per_day", "temp_noise_k", "measurement_noise_ps"))
    terms = {
        "temp_amplitude_k": scale * (2.0 * amp),
        "temp_trend_k_per_day": scale * (abs(trend) * days * 86400.0 / 86400.0),
        "temp_noise_k": scale * (20.0 * temp_noise),
        "measurement_noise_ps": 10.0 * noise,
    }
    swing = sum(terms.values())
    if swing <= _MAX_DELAY_SWING_PS:
        return issues
    # 0 * inf is NaN: a term that overflowed before the scale underflowed
    return issues + [("protocol", max(terms, key=lambda k: math.inf if math.isnan(terms[k]) else terms[k]),
                      "the delay swing temp_sensitivity_ps_per_km_k * 2 * overhead_km * (2 * temp_amplitude_k"
                      " + |temp_trend_k_per_day| * days + 20 * temp_noise_k) + 10 * measurement_noise_ps"
                      f" = {swing:g} ps; at most {_MAX_DELAY_SWING_PS:g} ps")]


def run_delay_drift(scn: Scenario, out: Path) -> list[Path]:
    rng = scn.rng("protocol.delay")
    days = scn.protocol_value("days")
    period = scn.protocol_value("series_period_s")
    amp = scn.protocol_value("temp_amplitude_k")
    t_period = scn.protocol_value("temp_period_s")
    trend = scn.protocol_value("temp_trend_k_per_day")
    temp_noise = scn.protocol_value("temp_noise_k")
    meas_noise = scn.protocol_value("measurement_noise_ps")

    model = chmod.DelayDriftModel(
        overhead_km=scn[("channel", "overhead_km")],
        sensitivity_ps_per_km_k=scn[("channel", "temp_sensitivity_ps_per_km_k")],
    )
    n = int(days * 86400.0 / period) + 1
    t = np.arange(n) * period
    temp_actual = (
        283.0
        + amp * np.sin(2.0 * math.pi * t / t_period)
        + trend * t / 86400.0
    )
    temp_observed = temp_actual + rng.normal(0.0, temp_noise, size=n)

    predicted = chmod.temperature_delay_prediction(model, np.column_stack((t, temp_observed)))
    true_delay = chmod.temperature_delay_prediction(model, np.column_stack((t, temp_actual)))
    measured = np.column_stack((t, true_delay[:, 1] + rng.normal(0.0, meas_noise, size=n)))

    r, rms = analysis.delay_correlation(measured, predicted)
    rows = np.column_stack((t, temp_observed, predicted[:, 1], measured[:, 1])).tolist()
    return [
        write_csv(
            out / "delay_series.csv",
            ("t_s", "temp_k", "predicted_ps", "measured_ps"),
            rows,
        ),
        write_json(
            out / "delay_summary.json",
            {
                "pearson_r": r,
                "residual_rms_ps": rms,
                "step_response_ps_per_k": model.sensitivity_ps_per_km_k * 2.0 * model.overhead_km,
            },
        ),
    ]


class Protocol(NamedTuple):
    runner: Callable[[Scenario, Path], list[Path]]
    # [protocol] key -> (parser, default, predicate, bound text), for each key
    # the runner reads; `config` rejects any other [protocol] key
    fields: dict[str, tuple]
    trials_key: str | None = None  # the [protocol] key that `--trials` sets
    # every parsed value -> (section, key, message) per bound that spans fields
    checks: Callable[[dict], list[tuple[str, str, str]]] = lambda values: []
    # the (section, key) pairs of the shared sections that the runner reads;
    # `config` rejects any other shared key and leaves it at its default
    reads: tuple[tuple[str, str], ...] = ()
    # every parsed value -> (section, key, condition) per key of `reads` that
    # the runner leaves unread at these values; `config` rejects the key
    # where the file sets it
    ignores: Callable[[dict], list[tuple[str, str, str]]] = lambda values: []


def positive(x: float) -> bool:
    return x > 0.0


def non_negative(x: float) -> bool:
    return x >= 0.0


_EXACT_COUNTS = (float, 0.0, non_negative, ">= 0 (0 = exact)")
_ARM_B = {"apply_link_to_arm_b": (bool, True, None, "")}


def _keys(section: str, names: str) -> tuple[tuple[str, str], ...]:
    return tuple((section, name) for name in names.split())


# Shared keys by the part of the testbed that reads them: the rotation walk reads
# no spike key, as spikes draw from a stream of their own, and a stabilization's
# duration reads the timing keys.
_DRIFT = _keys("channel", "day_rate_rad2_per_s night_rate_rad2_per_s day_start_hms day_end_hms "
               "start_clock_s")
_LOSS = _keys("channel", "pdl_db pdl_axis")
_CONTROL = (*_keys("instruments", "polarimeter_sigma piezo_gain_rad_per_v piezo_limit_v"),
            *_keys("stabilizer", "fp_threshold fp_crossover d0 d1 du0_v du1_v max_iterations"))
_TIMING = _keys("instruments", "polarimeter_latency_s switch_latency_s piezo_settle_s")
_PAIR = _keys("source", "phase_rad noise_p")
_ARM_B_READS = (*_LOSS, *_CONTROL, *_PAIR, *_keys("ion", "exposure_window_us decay_per_s"))


def _arm_b_ignores(values) -> list[tuple[str, str, str]]:
    # A local arm B meets no link: no loss element and no stabilization.
    if values[("protocol", "apply_link_to_arm_b")]:
        return []
    return [(section, key, "when apply_link_to_arm_b = false") for section, key in (*_LOSS, *_CONTROL)]


PROTOCOLS = {
    "pdl-characterize": Protocol(run_pdl_characterize, {
        "n_samples": (int, 500, lambda v: 2 <= v <= _MAX_TRACE_STEPS, f"in [2, {_MAX_TRACE_STEPS}]"),
        "sample_period_s": (float, 91.0, positive, "> 0"),
        "link_pdl_mean_db": (float, 0.08, non_negative, ">= 0"),
        "link_pdl_sigma_db": (float, 0.045, non_negative, ">= 0"),
        "det_pdl_mean_db": (float, 0.23, non_negative, ">= 0"),
        "det_pdl_sigma_db": (float, 0.02, non_negative, ">= 0"),
    }, "n_samples", _pdl_checks),
    "drift-characterize": Protocol(run_drift_characterize, {
        "total_s": (float, 4000.0, positive, "> 0"),
        "trace_period_s": (float, 10.0, positive, "> 0"),
        "tau_grid_s": ("floats", "10,20,40,80,160", None, ""),
    }, checks=_drift_checks, reads=_DRIFT),
    "stabilize": Protocol(run_stabilize, {
        "n_trials": (int, 50, lambda v: 1 <= v <= _MAX_TRACE_STEPS, f"in [1, {_MAX_TRACE_STEPS}]"),
    }, "n_trials", _stabilize_checks, reads=(*_LOSS, *_CONTROL, *_TIMING)),
    "distribute-entanglement": Protocol(run_distribute_entanglement, {
        "intervals_s": ("floats", "5,20,60,160", lambda v: min(v) > 0.0, "each > 0"),
        "total_per_interval_s": (float, 3200.0, positive, "> 0"),
        "counts_per_basis": _EXACT_COUNTS,
        "correct_background": (bool, True, None, ""),
        "accidental_rate_a_per_s": (float, 0.0, non_negative, ">= 0"),
        "accidental_rate_b_per_s": (float, 0.0, non_negative, ">= 0"),
        "coincidence_window_s": (float, 1e-9, positive, "> 0"),
    }, "total_per_interval_s", _distribute_checks, reads=(
        *_DRIFT, *_keys("channel", "drift_dt_s spike_rate_per_s spike_extra_db spike_duration_s"),
        *_LOSS, *_CONTROL, *_TIMING, *_PAIR, ("source", "pair_rate_per_s")),
        ignores=_distribute_ignores),
    "ion-photon": Protocol(run_ion_photon, {"counts_per_basis": _EXACT_COUNTS, **_ARM_B},
                           checks=_noise_checks, reads=_ARM_B_READS, ignores=_arm_b_ignores),
    "teleport": Protocol(run_teleport, {
        # counts_per_basis shots per axis, drawn by numpy as a C long
        "counts_per_basis": (float, 0.0, lambda v: v.is_integer() and 0.0 <= v < 2.0**63,
                             "0 (exact) or a whole number in [1, 2^63)"),
        **_ARM_B,
        "input_states": ("labels", "H,V,D,R", lambda v: set(v) <= set(quantum.BASIS_KETS),
                         f"labels from {','.join(quantum.BASIS_KETS)}"),
    }, reads=_ARM_B_READS, ignores=_arm_b_ignores),
    "delay-drift": Protocol(run_delay_drift, {
        "days": (float, 2.0, positive, "> 0"),
        "temp_amplitude_k": (float, 4.0, non_negative, ">= 0"),
        "temp_period_s": (float, 86400.0, positive, "> 0"),
        "temp_trend_k_per_day": (float, 0.5, None, ""),
        "temp_noise_k": (float, 0.02, non_negative, ">= 0"),
        "measurement_noise_ps": (float, 1.0, non_negative, ">= 0"),
        "series_period_s": (float, 120.0, positive, "> 0"),
    }, checks=_delay_checks, reads=_keys("channel", "overhead_km temp_sensitivity_ps_per_km_k")),
}

RUNNERS = {name: protocol.runner for name, protocol in PROTOCOLS.items()}


def run_protocol(scn: Scenario, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        runner = RUNNERS[scn.protocol]
    except KeyError:
        raise ProtocolFailed(f"unknown protocol {scn.protocol!r}") from None
    return runner(scn, out)
