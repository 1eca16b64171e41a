"""Statistical post-processing of characterization data.

Batch functions turning raw simulation or measurement series into
figure-ready tables: free-drift fidelity quantile surfaces, loss-statistics
estimation for the looped-fiber measurement, and temperature/delay
correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .output import write_csv

__all__ = [
    "EmptyOverlap",
    "QuantileSurface",
    "delay_correlation",
    "pdl_statistics",
    "quantile_surface",
    "write_quantile_surface_csv",
]

QUANTILES = (0.90, 0.99, 0.999)
FIDELITY_BINS = 60
MIN_SAMPLES_PER_BIN = 100


class EmptyOverlap(ValueError):
    """Two series share no common time support."""


@dataclass
class QuantileSurface:
    """Empirical fidelity distribution versus free-drift time.

    incidence[i, j] is the per-column-normalized share of fidelity bin j at
    drift time tau_grid[i]; curves[q][i] is the fidelity maintained with
    probability q after tau_grid[i]. Raw empirical curves are reported (no
    monotone smoothing).
    """

    tau_grid: np.ndarray
    fidelity_grid: np.ndarray
    incidence: np.ndarray
    curves: dict[float, np.ndarray]
    counts: np.ndarray
    warnings: list[str] = field(default_factory=list)


def quantile_surface(samples) -> QuantileSurface:
    """Bin fidelity samples by tau and extract the QUANTILES curves.

    `samples` maps each tau to its fidelities. The q-curve value at a given
    tau is the fidelity f such that a fraction q of the samples at that tau
    lies at or above f, i.e. the (1-q) quantile of the per-tau empirical
    distribution. Taus with fewer samples than MIN_SAMPLES_PER_BIN are kept
    but flagged in `warnings`. A tau's three quantiles are taken in one
    `np.quantile` call.
    """
    taus = sorted(samples)
    bins = [np.asarray(samples[tau], dtype=float) for tau in taus]
    if not bins or not all(vals.size for vals in bins):
        raise ValueError("need samples at every tau")
    f_lo = min(0.0, *(vals.min() for vals in bins))
    edges = np.linspace(f_lo, 1.0, FIDELITY_BINS + 1)
    incidence = np.zeros((len(taus), FIDELITY_BINS))
    counts = np.array([vals.size for vals in bins])
    curves = {q: np.empty(len(taus)) for q in QUANTILES}
    levels = [1.0 - q for q in QUANTILES]
    warnings = []
    for i, (tau, vals) in enumerate(zip(taus, bins)):
        if vals.size < MIN_SAMPLES_PER_BIN:
            warnings.append(
                f"tau={tau:g}: only {vals.size} samples for quoted quantiles"
            )
        hist, _ = np.histogram(vals, bins=edges)
        if hist.sum() > 0:
            incidence[i] = hist / hist.sum()
        for q, value in zip(QUANTILES, np.quantile(vals, levels)):
            curves[q][i] = value
    centers = 0.5 * (edges[:-1] + edges[1:])
    return QuantileSurface(
        tau_grid=np.array(taus, dtype=float),
        fidelity_grid=centers,
        incidence=incidence,
        curves=curves,
        counts=counts,
        warnings=warnings,
    )


def write_quantile_surface_csv(
    surface: QuantileSurface, curves_path, incidence_path
) -> tuple[Path, Path]:
    """Write the quantile curves and the incidence matrix as two panel files."""
    qs = sorted(surface.curves)
    taus = surface.tau_grid
    return (
        write_csv(
            curves_path,
            ["tau_s"] + [f"q{q:g}" for q in qs] + ["n_samples"],
            ((tau, *(surface.curves[q][i] for q in qs), surface.counts[i])
             for i, tau in enumerate(taus)),
        ),
        write_csv(
            incidence_path,
            ["tau_s"] + [repr(float(f)) for f in surface.fidelity_grid],
            ((tau, *surface.incidence[i]) for i, tau in enumerate(taus)),
        ),
    )


def pdl_statistics(samples_db, detection_db) -> tuple[float, float]:
    """Single-fiber loss estimate from looped-link and detection-only series.

    The loop traverses the fiber twice, so the fiber mean is
    (mean(total) - mean(detection)) / 2 assuming the two passes contribute
    equally; the spreads of the two input distributions propagate in
    quadrature with the same factor.
    """
    tot = np.asarray(list(samples_db), dtype=float)
    det = np.asarray(list(detection_db), dtype=float)
    if tot.size == 0 or det.size == 0:
        raise ValueError("need non-empty sample sets")
    mean = (tot.mean() - det.mean()) / 2.0
    s_tot = tot.std(ddof=1) if tot.size > 1 else 0.0
    s_det = det.std(ddof=1) if det.size > 1 else 0.0
    sigma = math.sqrt(s_tot**2 + s_det**2) / 2.0
    return float(mean), float(sigma)


def delay_correlation(measured, predicted) -> tuple[float, float]:
    """Pearson correlation and residual RMS of two (t, ps) series.

    Both series are linearly resampled onto the overlap of their time
    supports before comparison.
    """
    m = np.asarray(list(measured), dtype=float)
    p = np.asarray(list(predicted), dtype=float)
    if m.size == 0 or p.size == 0:
        raise EmptyOverlap("empty series")
    lo = max(m[:, 0].min(), p[:, 0].min())
    hi = min(m[:, 0].max(), p[:, 0].max())
    if hi <= lo:
        raise EmptyOverlap(f"no common time support ({lo} vs {hi})")
    grid = np.linspace(lo, hi, max(m.shape[0], p.shape[0]))
    mv = np.interp(grid, m[:, 0], m[:, 1])
    pv = np.interp(grid, p[:, 0], p[:, 1])
    if np.std(mv) == 0.0 or np.std(pv) == 0.0:
        r = 1.0 if np.allclose(mv, pv) else 0.0
    else:
        r = float(np.corrcoef(mv, pv)[0, 1])
    rms = float(np.sqrt(np.mean((mv - pv) ** 2)))
    return r, rms
