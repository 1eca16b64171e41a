import math

import numpy as np
import pytest
from scipy import stats

from fiberlink import analysis as an
from fiberlink import channel as chm
from fiberlink import instruments as ins
from fiberlink import polcore as pc
from fiberlink import stabilizer as st

from conftest import make_test_channel


# ---------------------------------------------------------------------------
# quantile surface
# ---------------------------------------------------------------------------

def test_quantile_surface_constant_fidelity():
    samples = [(tau, 1.0) for tau in (1.0, 2.0, 4.0) for _ in range(200)]
    surf = an.quantile_surface(samples)
    for curve in surf.curves.values():
        assert np.allclose(curve, 1.0)
    assert not surf.warnings


def test_quantile_surface_matches_analytic_diffusion(rng):
    # rotation-vector components ~ N(0, 2 rate tau / 3): the fidelity
    # maintained with probability q is (1 + cos phi_q)/2 with
    # phi_q^2 = (2 rate tau / 3) chi2_3^{-1}(q)
    rate = 1e-4
    samples = []
    for tau in (50.0, 200.0):
        s2 = 2.0 * rate * tau / 3.0
        phi = rng.normal(0.0, math.sqrt(s2), size=(20_000, 3))
        angles = np.linalg.norm(phi, axis=1)
        fps = (1.0 + np.cos(angles)) / 2.0
        samples.extend((tau, f) for f in fps)
    surf = an.quantile_surface(samples)
    for i, tau in enumerate(surf.tau_grid):
        phi_q = math.sqrt(2.0 * rate * tau / 3.0 * stats.chi2.ppf(0.90, df=3))
        analytic = (1.0 + math.cos(phi_q)) / 2.0
        assert surf.curves[0.90][i] == pytest.approx(analytic, abs=0.02 * (1 - analytic) + 1e-6)


def test_quantile_surface_ordering_invariant(rng):
    samples = [(tau, f) for tau in (10.0, 20.0)
               for f in rng.uniform(0.85, 1.0, size=500)]
    surf = an.quantile_surface(samples)
    q90, q99, q999 = (surf.curves[q] for q in (0.90, 0.99, 0.999))
    assert np.all(q90 >= q99) and np.all(q99 >= q999)


def test_quantile_surface_curves_equal_per_quantile_calls(rng):
    # bins of several sizes, with ties and a constant bin
    samples = [(1.0, f) for f in rng.uniform(0.8, 1.0, size=257)]
    samples += [(2.0, f) for f in rng.choice([0.9, 0.95, 1.0], size=130)]
    samples += [(3.0, 0.97)] * 7
    samples += [(4.0, f) for f in 1.0 - rng.exponential(0.01, size=1001)]
    surf = an.quantile_surface(samples)
    arr = np.asarray(samples)
    for q in an.QUANTILES:
        want = [np.quantile(arr[arr[:, 0] == tau, 1], 1.0 - q) for tau in surf.tau_grid]
        assert surf.curves[q].tobytes() == np.array(want).tobytes(), q


def test_quantile_surface_incidence_normalized_per_column(rng):
    samples = [(1.0, f) for f in rng.uniform(0.9, 1.0, size=300)]
    surf = an.quantile_surface(samples)
    assert surf.incidence[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_quantile_surface_warns_on_small_bins():
    surf = an.quantile_surface([(1.0, 0.99)] * 30)
    assert surf.warnings


def test_quantile_surface_after_stabilization(rng):
    # drift after stabilizing to threshold 0.99: the 90 % curve stays above
    # 0.98 out to 100 s of calibrated night drift
    samples = []
    converged = 0
    for k in range(120):
        ch = make_test_channel(
            rotation=pc.random_rotation(rng),
            rng=np.random.default_rng(900 + k),
            day_rate=chm.NIGHT_RATE_DEFAULT,
            night_rate=chm.NIGHT_RATE_DEFAULT,
        )
        piezo = ins.PiezoController()
        piezo.bias_neutral()
        pol = ins.Polarimeter(sigma=0.0, rng=np.random.default_rng(1))
        run = st.stabilize(ch, piezo, pol, st.StabilizerConfig(fp_threshold=0.99))
        if run.outcome is not st.Outcome.CONVERGED:
            continue  # transmission only follows successful stabilization
        converged += 1
        comp = piezo.rotation()
        for tau in (20.0, 60.0, 100.0):
            ch.advance(20.0)
            samples.append((tau, pc.process_fidelity(comp @ ch.rotation)))
    assert converged >= 114  # >= 95 % of the campaign
    surf = an.quantile_surface(samples)
    assert np.all(surf.curves[0.90] >= 0.98)


def test_write_quantile_surface_csv(tmp_path, rng):
    samples = [(tau, f) for tau in (1.0, 2.0) for f in rng.uniform(0.9, 1.0, 150)]
    surf = an.quantile_surface(samples)
    an.write_quantile_surface_csv(surf, tmp_path / "c.csv", tmp_path / "i.csv")
    header = (tmp_path / "c.csv").read_text().splitlines()[0]
    assert header == "tau_s,q0.9,q0.99,q0.999,n_samples"
    assert len((tmp_path / "i.csv").read_text().splitlines()) == 3


# ---------------------------------------------------------------------------
# loss statistics
# ---------------------------------------------------------------------------

def test_pdl_statistics_identical_distributions():
    mean, _ = an.pdl_statistics([0.2, 0.3, 0.25], [0.2, 0.3, 0.25])
    assert mean == pytest.approx(0.0, abs=1e-15)


def test_pdl_statistics_reference_means():
    tot = [0.39 - 0.07, 0.39 + 0.07]  # mean exactly 0.39
    det = [0.23 - 0.02, 0.23 + 0.02]  # mean exactly 0.23
    mean, sigma = an.pdl_statistics(tot, det)
    assert mean == pytest.approx(0.08, abs=1e-12)
    assert sigma > 0.0


def test_pdl_statistics_unbiased_monte_carlo(rng):
    true_single = 0.1
    estimates = []
    for _ in range(1000):
        det = rng.normal(0.23, 0.02, size=40)
        tot = 2.0 * rng.normal(true_single, 0.04, size=40) + rng.normal(0.23, 0.02, size=40)
        mean, _ = an.pdl_statistics(tot, det)
        estimates.append(mean)
    se = np.std(estimates) / math.sqrt(len(estimates))
    assert abs(np.mean(estimates) - true_single) < 3 * se


def test_pdl_statistics_location_equivariance(rng):
    tot = list(rng.uniform(0.3, 0.5, size=50))
    det = list(rng.uniform(0.2, 0.3, size=50))
    base, _ = an.pdl_statistics(tot, det)
    shifted, _ = an.pdl_statistics([x + 1.0 for x in tot], [x + 1.0 for x in det])
    assert shifted == pytest.approx(base, abs=1e-12)


def test_pdl_statistics_empty():
    with pytest.raises(ValueError):
        an.pdl_statistics([], [0.1])


# ---------------------------------------------------------------------------
# delay correlation
# ---------------------------------------------------------------------------

def test_delay_correlation_identical_series():
    series = [(float(i), math.sin(i / 5.0)) for i in range(100)]
    r, rms = an.delay_correlation(series, series)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert rms == pytest.approx(0.0, abs=1e-12)


def test_delay_correlation_noise_degradation_closed_form(rng):
    n = 20_000
    t = np.arange(n, dtype=float)
    signal = 100.0 * np.sin(2 * math.pi * t / 500.0)
    var_signal = signal.var()
    for noise_sigma in (10.0, 50.0, 150.0):
        measured = list(zip(t, signal + rng.normal(0.0, noise_sigma, n)))
        predicted = list(zip(t, signal))
        r, rms = an.delay_correlation(measured, predicted)
        analytic = 1.0 / math.sqrt(1.0 + noise_sigma**2 / var_signal)
        assert r == pytest.approx(analytic, abs=0.02)
        assert rms == pytest.approx(noise_sigma, rel=0.05)


def test_delay_correlation_end_to_end_temperature(rng):
    model = chm.DelayDriftModel()
    t = np.arange(0.0, 2 * 86400.0, 300.0)
    temp = 283.0 + 4.0 * np.sin(2 * math.pi * t / 86400.0)
    predicted = chm.temperature_delay_prediction(model, list(zip(t, temp)))
    measured = [(ti, d + rng.normal(0.0, 5.0)) for ti, d in predicted]
    r, _ = an.delay_correlation(measured, predicted)
    assert r > 0.95


def test_delay_correlation_resamples_onto_overlap():
    a = [(float(i), float(i)) for i in range(0, 100)]
    b = [(float(i) + 0.5, float(i) + 0.5) for i in range(50, 150)]
    r, rms = an.delay_correlation(a, b)
    assert r == pytest.approx(1.0, abs=1e-9)
    assert rms == pytest.approx(0.0, abs=1e-9)


def test_delay_correlation_empty_overlap():
    a = [(0.0, 1.0), (1.0, 2.0)]
    b = [(5.0, 1.0), (6.0, 2.0)]
    with pytest.raises(an.EmptyOverlap):
        an.delay_correlation(a, b)
    with pytest.raises(an.EmptyOverlap):
        an.delay_correlation([], b)
