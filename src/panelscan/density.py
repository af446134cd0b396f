"""Gaussian kernel density estimates of anomaly-score distributions.

The Gaussian kernel makes every quantity the training loop needs available in
closed form: the density is a mean of kernels, the tail masses are means of
kernel CDFs, so the AUC terms and their derivatives are exact rather than
quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

BANDWIDTH_FLOOR = 1e-6
DEFAULT_ETA = 1e-3
DEFAULT_GRID = 1024

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass
class KdeModel:
    samples: np.ndarray
    bandwidth: float


@dataclass
class CutoffResult:
    cutoff: float
    gap: float          # |f_u - f_c| at the cutoff
    within_band: bool   # gap < eta


def silverman_bandwidth(samples):
    """0.9 min(std, IQR/1.34) n^(-1/5), floored so degenerate samples stay usable.

    A zero IQR with a positive std (most samples tied) falls back to the std,
    as statsmodels' _select_sigma does; the floor is left for samples with
    no spread at all.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("samples must be non-empty")
    if n == 1:
        return BANDWIDTH_FLOOR
    spread_std = np.std(samples, ddof=1)
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    spread_iqr = (q75 - q25) / 1.34
    spread = min(spread_std, spread_iqr) if spread_iqr > 0.0 else spread_std
    return max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def fit_kde(samples, bandwidth_rule="silverman") -> KdeModel:
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    if isinstance(bandwidth_rule, str):
        if bandwidth_rule != "silverman":
            raise ValueError(f"unknown bandwidth rule {bandwidth_rule!r}")
        bandwidth = silverman_bandwidth(samples)
    else:
        bandwidth = float(bandwidth_rule)
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
    return KdeModel(samples=samples.copy(), bandwidth=bandwidth)


def pdf(model: KdeModel, x):
    """Evaluate the density estimate anywhere on the real line."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 0
    grid = np.atleast_1d(x)
    z = (grid[:, None] - model.samples[None, :]) / model.bandwidth
    values = np.exp(-0.5 * z * z).sum(axis=1) / (model.samples.size * model.bandwidth * _SQRT_2PI)
    return float(values[0]) if squeeze else values


def auc_above(model: KdeModel, s):
    """Mass of the estimated density above s, via the kernel tail function."""
    s = np.asarray(s, dtype=float)
    squeeze = s.ndim == 0
    grid = np.atleast_1d(s)
    masses = ndtr((model.samples[None, :] - grid[:, None]) / model.bandwidth).mean(axis=1)
    return float(masses[0]) if squeeze else masses


def auc_below(model: KdeModel, s):
    """Mass of the estimated density below s."""
    s = np.asarray(s, dtype=float)
    squeeze = s.ndim == 0
    grid = np.atleast_1d(s)
    masses = ndtr((grid[:, None] - model.samples[None, :]) / model.bandwidth).mean(axis=1)
    return float(masses[0]) if squeeze else masses


def intersection_cutoff(f_u: KdeModel, f_c: KdeModel, eta=DEFAULT_ETA, grid=DEFAULT_GRID) -> CutoffResult:
    """Cut-off at the crossing of the two class densities.

    The grid point minimizing auc_above(f_u, s) + auc_below(f_c, s) is
    returned; at interior crossings this is exactly where f_u = f_c (the
    objective's derivative is f_c - f_u), and unlike a direct argmin of
    |f_u - f_c| it cannot drift into the far tails where both densities
    vanish. The eta band is kept as a diagnostic: within_band is False when
    the density gap at the chosen point is >= eta.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if np.isscalar(grid) or np.asarray(grid).ndim == 0:
        n_points = int(grid)
        if n_points < 1:
            raise ValueError("grid must hold at least one point")
        lo = min(f_u.samples.min(), f_c.samples.min())
        hi = max(f_u.samples.max(), f_c.samples.max())
        points = np.linspace(lo, hi, n_points) if hi > lo else np.array([lo])
    else:
        points = np.sort(np.asarray(grid, dtype=float).ravel())
        if points.size == 0:
            raise ValueError("grid must hold at least one point")
    stray_mass = auc_above(f_u, points) + auc_below(f_c, points)
    best = int(np.argmin(stray_mass))
    cutoff = float(points[best])
    gap = abs(pdf(f_u, cutoff) - pdf(f_c, cutoff))
    return CutoffResult(cutoff=cutoff, gap=gap, within_band=bool(gap < eta))
