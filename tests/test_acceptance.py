"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from fiberlink import channel as chm
from fiberlink import cli, config
from fiberlink import instruments as ins
from fiberlink import polcore as pc
from fiberlink import quantum as q
from fiberlink import stabilizer as st
from fiberlink.output import read_csv_rows, sha256_file
from fiberlink.protocols import run_protocol

from conftest import golden_hashes, make_test_channel, random_mixed_state_2q


def _report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS  {text}")


def uhlmann_fidelity(rho, sigma):
    evals, evecs = np.linalg.eigh(rho)
    sq = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = sq @ sigma @ sq
    ev2 = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sqrt(ev2).sum() ** 2)


def test_criterion_01_pdl_fidelity_bound():
    t0 = time.time()
    t_mean = 10.0 ** (-0.08 / 20.0)
    bound = pc.pdl_fidelity_bound(t_mean)
    assert bound == pytest.approx(0.991, abs=1e-3)
    sweep = [pc.pdl_fidelity_bound(10.0 ** (-l / 20.0)) for l in np.linspace(0.0, 3.0, 301)]
    assert all(b2 < b1 for b1, b2 in zip(sweep, sweep[1:]))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"fidelity bound {bound:.6f} at 0.08 dB; monotone over [0,3] dB ({elapsed:.2f}s)")


def test_criterion_02_trace_formula_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2026_02)
    worst = 0.0
    for _ in range(10_000):
        m = pc.random_rotation(rng)
        t = pc.trace_from_probe_pair(m @ pc.S_H, m @ pc.S_D)
        worst = max(worst, abs(t - np.trace(m)))
    assert worst < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, f"two-probe trace formula, 1e4 rotations, worst |err| {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_03_pdl_bloch_map_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2026_03)
    worst_map = 0.0
    worst_purity = 0.0
    for i in range(10_000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        el = pc.PdlElement.from_axis(axis, rng.uniform(0.02, 1.0))
        pure = i % 2 == 0
        lam = rng.normal(size=3)
        lam /= np.linalg.norm(lam)
        if not pure:
            lam = lam * rng.uniform(0.0, 0.999)
        b = el.operator()
        rho = pc.density_of_bloch(lam)
        out = b @ rho @ b.conj().T
        oracle = pc.bloch_of_density(out / np.trace(out))
        ours = pc.pdl_apply_bloch(lam, el)
        worst_map = max(worst_map, np.abs(ours - oracle).max())
        if pure:
            worst_purity = max(worst_purity, abs(np.linalg.norm(ours) - 1.0))
    assert worst_map < 1e-10
    assert worst_purity < 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(3, f"Bloch map vs operator oracle, 1e4 states, worst {worst_map:.2e}; "
               f"purity drift {worst_purity:.2e} ({elapsed:.2f}s)")


def test_criterion_04_pdl_estimator():
    from fiberlink.analysis import pdl_statistics

    tot = [0.39 - 0.07, 0.39, 0.39 + 0.07]   # mean exactly 0.39 dB
    det = [0.23 - 0.02, 0.23, 0.23 + 0.02]   # mean exactly 0.23 dB
    mean, sigma = pdl_statistics(tot, det)
    assert mean == pytest.approx(0.08, abs=1e-12)
    _report(4, f"single-fiber estimator (0.39 - 0.23)/2 = {mean:.6f} dB (sigma {sigma:.3f})")


def test_criterion_05_loss_budget():
    budget = chm.AttenuationBudget.of(
        ("qfc_and_transfer", 6.78), ("link_q", 10.4), ("stab_sender", 0.46),
        ("stab_receiver", 1.3), ("filter_projection", 0.65), ("detector", 0.97),
        ("residual", 2.17),
    )
    total = chm.total_loss_db(budget)
    assert total == pytest.approx(22.73, abs=1e-9)
    assert total - 9.07 == pytest.approx(13.66, abs=1e-9)
    _report(5, f"budget total {total:.2f} dB; remote coincidence reduction {total - 9.07:.2f} dB")


def test_criterion_06_stabilizer_convergence():
    t0 = time.time()
    cfg = st.StabilizerConfig(fp_threshold=0.99)

    def campaign(sigma, seed):
        rng = np.random.default_rng(seed)
        converged = 0
        for k in range(500):
            ch = make_test_channel(rotation=pc.random_rotation(rng),
                                   rng=np.random.default_rng(10_000 + k))
            pol = ins.Polarimeter(sigma=sigma, rng=np.random.default_rng(20_000 + k))
            run = st.stabilize(ch, ins.PiezoController(), pol, cfg)
            if run.outcome is st.Outcome.CONVERGED:
                assert run.final_fp >= cfg.fp_threshold
                converged += 1
        return converged / 500.0

    rate_clean = campaign(0.0, 42)
    rate_noisy = campaign(1e-3, 43)
    assert rate_clean >= 0.99
    assert rate_noisy >= 0.94

    # finite-difference direction against the analytic descent direction of
    # a synthetic quadratic, evaluated through the public gradient call
    a = np.array([
        [1.8, 0.2, 0.0, 0.1],
        [0.2, 1.2, -0.3, 0.0],
        [0.0, -0.3, 2.2, 0.2],
        [0.1, 0.0, 0.2, 0.9],
    ])
    b = np.array([0.3, -0.5, 0.2, 0.1])
    orig = st.error_function
    try:
        st.error_function = lambda ch, piezo, pol, switch=None: float(
            piezo.voltages @ a @ piezo.voltages + b @ piezo.voltages + 2.0
        )
        piezo = ins.PiezoController(voltages=np.array([0.3, 0.7, -0.5, 0.2]))
        grad = st.gradient(make_test_channel(), piezo,
                           ins.Polarimeter(rng=np.random.default_rng(0)), 1e-3)
    finally:
        st.error_function = orig
    analytic = -(2.0 * a @ piezo.voltages + b)
    worst = np.abs(grad - analytic).max()
    assert worst < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(6, f"convergence {rate_clean:.1%} noise-free, {rate_noisy:.1%} at sigma 1e-3; "
               f"gradient error {worst:.1e} ({elapsed:.1f}s)")


def test_criterion_07_adaptive_schedule():
    cfg = st.StabilizerConfig(fp_threshold=0.99, fp_crossover=0.95,
                              d0=2.0, d1=0.1, du0_v=0.2, du1_v=0.02)
    table = {
        0.5: (2.0, 0.2),
        0.95: (2.1, 0.22),
        1.0: (0.1, 0.02),
    }
    for fp, expected in table.items():
        d, du = st.adapt_parameters(cfg, fp)
        assert (d, du) == pytest.approx(expected, abs=0.0)
    _report(7, "step schedule exact at fidelity 0.5 / 0.95 / 1.0")


def test_criterion_08_teleportation(tmp_path):
    t0 = time.time()
    src = q.SpdcSource(noise_p=0.0)
    ion = q.IonMemory(decay_per_s=0.0)
    rho_pair = q.spdc_state(src)

    def branch(herald):
        return lambda rho_in: q.bsm_branches(rho_in, rho_pair, ion)[herald][1]

    chi_minus = q.process_tomography(branch("phi_minus"))
    chi_plus = q.process_tomography(branch("phi_plus"))
    assert chi_minus[0, 0].real == pytest.approx(1.0, abs=1e-9)
    assert chi_plus[3, 3].real == pytest.approx(1.0, abs=1e-9)
    exact_elapsed = time.time() - t0
    assert exact_elapsed < 30.0

    # noisy resources, exact branch evaluation
    src_n = q.SpdcSource(noise_p=0.2187)
    ion_n = q.IonMemory(exposure_window_s=400e-6, decay_per_s=313.4)
    pair_n = q.spdc_state(src_n)
    fids = []
    for herald, label in (("phi_minus", "i"), ("phi_plus", "rl")):
        chi = q.process_tomography(
            lambda rho_in, h=herald: q.bsm_branches(rho_in, pair_n, ion_n)[h][1]
        )
        fids.append(q.process_fidelity_element(chi, label))
    assert all(0.70 <= f <= 0.95 for f in fids)

    # sampled variant through the scenario runner
    t1 = time.time()
    scn = config.load(cli._resolve("teleport_noisy"))
    scn.values[("protocol", "counts_per_basis")] = 20_000.0
    files = run_protocol(scn, tmp_path / "teleport_sampled")
    sampled = {}
    summary = (tmp_path / "teleport_sampled" / "teleport_summary.csv").read_text().splitlines()
    for line in summary[1:]:
        herald, _, fid, _ = line.split(",")
        sampled[herald] = float(fid)
    assert all(0.70 <= f <= 0.95 for f in sampled.values())
    sampled_elapsed = time.time() - t1
    assert sampled_elapsed < 300.0
    _report(8, f"ideal chi_00/chi_zz = 1; noisy exact {fids[0]:.3f}/{fids[1]:.3f}, "
               f"sampled {sampled['phi_minus']:.3f}/{sampled['phi_plus']:.3f} "
               f"({exact_elapsed:.1f}s exact, {sampled_elapsed:.1f}s sampled)")


def test_criterion_09_tomography_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(2026_09)
    worst = 1.0
    for _ in range(100):
        rho = random_mixed_state_2q(rng)
        counts = [(a, b, 1e7 * p) for (a, b), p in q.coincidence_probabilities(rho).items()]
        rec = q.tomography_2q(counts)
        worst = min(worst, uhlmann_fidelity(rho, rec))
    assert worst >= 0.9999

    target = q.spdc_state(q.SpdcSource(noise_p=4 * (1 - 0.98) / 3))
    truth = q.fidelity(target, q.BELL_PSI_PLUS)
    counts = [(a, b, rng.poisson(1e4 * p))
              for (a, b), p in q.coincidence_probabilities(target).items()]
    point = q.fidelity(q.tomography_2q(counts), q.BELL_PSI_PLUS)
    mc = q.mc_uncertainty(counts, n_resamples=300, rng=rng)
    assert abs(point - truth) <= 3 * mc.sigma
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(9, f"round-trip worst fidelity {worst:.6f}; sampled estimate "
               f"{point:.4f} vs {truth:.4f} within 3 sigma ({mc.sigma:.4f}) ({elapsed:.1f}s)")


def test_criterion_10_entanglement_duty_cycle(tmp_path):
    t0 = time.time()
    scn = config.load(cli._resolve("ppe_dutycycle"))
    run_protocol(scn, tmp_path / "ppe")
    golden = golden_hashes("ppe_dutycycle")
    for name in ("dutycycle.csv", "dutycycle_summary.csv"):
        assert sha256_file(tmp_path / "ppe" / name) == golden[name], name
        assert b"\r" not in (tmp_path / "ppe" / name).read_bytes(), name
    header, windows = read_csv_rows(tmp_path / "ppe" / "dutycycle.csv")
    col = header.index("success_prob")
    assert all(0.0 <= float(row[col]) <= 1.0 for row in windows)
    rows = (tmp_path / "ppe" / "dutycycle_summary.csv").read_text().splitlines()[1:]
    means = {}
    for line in rows:
        parts = line.split(",")
        means[float(parts[0])] = float(parts[4])
    intervals = sorted(means)
    assert intervals == [5.0, 20.0, 60.0, 160.0]
    for interval in (5.0, 20.0, 60.0):
        assert means[interval] >= 0.98
    ordered = [means[i] for i in intervals]
    assert all(f2 <= f1 for f1, f2 in zip(ordered, ordered[1:]))
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(10, "corrected pair fidelity " +
            ", ".join(f"{i:g}s: {means[i]:.6f}" for i in intervals) +
            f" ({elapsed:.0f}s)")


def test_criterion_11_delay_model():
    model = chm.DelayDriftModel(overhead_km=1.278, sensitivity_ps_per_km_k=37.4,
                                nu0_hz=1.9986e14, gate_time_s=0.01)
    series = chm.temperature_delay_prediction(model, [(0.0, 283.0), (60.0, 284.0)])
    step = series[1][1]
    assert step == pytest.approx(95.6, abs=0.1)
    doppler = chm.doppler_delay_step(model, 100.0)
    assert doppler == pytest.approx(2.50e-15, abs=1e-17)
    _report(11, f"+1 K -> {step:.4f} ps; 100 Hz Doppler gate -> {doppler:.3e} s")


def test_criterion_12_background_statistics():
    rng = np.random.default_rng(2026_12)
    bg = chm.BackgroundSource(19.7)
    n = 10_000
    counts = np.array([chm.sample_background(bg, 100.0, rng) for _ in range(n)])
    mean = counts.mean()
    sigma_mean = math.sqrt(1970.0 / n)
    assert abs(mean - 1970.0) < 3 * sigma_mean
    _report(12, f"Poisson mean {mean:.2f} vs 1970 (3 sigma = {3 * sigma_mean:.2f})")


def test_criterion_13_determinism(tmp_path):
    for preset in ("delay_drift", "pdl_characterize", "teleport_noisy"):
        out1 = tmp_path / f"{preset}_1"
        out2 = tmp_path / f"{preset}_2"
        assert cli.main(["run", preset, "--out", str(out1), "--quiet"]) == 0
        assert cli.main(["run", preset, "--out", str(out2), "--quiet"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert sha256_file(out1 / name) == sha256_file(out2 / name), (preset, name)
    _report(13, "three presets re-run byte-identically (all files SHA-256 equal)")
