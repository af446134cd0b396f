"""Gaussian kernel density estimates of anomaly-score distributions.

The Gaussian kernel makes every quantity the training loop needs available in
closed form: the density is a mean of kernels, the tail masses are means of
kernel CDFs, so the AUC terms and their derivatives are exact rather than
quadratures.

Grid evaluations run over fixed blocks of points, so a 1024-point cut-off
search over n samples holds a few 64 x n temporaries, never 1024 x n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BANDWIDTH_FLOOR = 1e-6
CUTOFF_GRID_POINTS = 1024  # points in intersection_cutoff's search grid
_GRID_BLOCK = 64  # grid points evaluated together by auc_above and auc_below


@dataclass
class KdeModel:
    samples: np.ndarray
    bandwidth: float


def _quartiles(samples):
    """(q75, q25) of n >= 2 samples, bit for bit np.percentile(samples, [75, 25]).

    One partition over numpy's own kth set {0, n-1} and the two neighbours
    of each virtual index q (n - 1), then numpy's linear rule: with t the
    index's fraction, a + (b - a) t below t = 0.5 and b - (b - a)(1 - t)
    from there on, as in its _lerp. A NaN anywhere, which the partition
    puts last, makes both quartiles that NaN, as in numpy. This skips
    np.percentile's argument handling, which costs ten times the partition
    on a minibatch's class scores.
    """
    n = samples.size
    v75, v25 = (n - 1) * 0.75, (n - 1) * 0.25
    i75, i25 = int(v75), int(v25)
    part = np.partition(samples, sorted({0, -1, i75, i75 + 1, i25, i25 + 1}))
    last = part.item(-1)
    if last != last:
        return last, last
    return (_lerp(part.item(i75), part.item(i75 + 1), v75 - i75),
            _lerp(part.item(i25), part.item(i25 + 1), v25 - i25))


def _lerp(a, b, t):
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def silverman_bandwidth(samples):
    """0.9 min(std, IQR/1.34) n^(-1/5), floored so degenerate samples stay usable.

    A zero IQR with a positive std (most samples tied) falls back to the std,
    as statsmodels' _select_sigma does; the floor is left for samples with
    no spread at all. The IQR comes from _quartiles, bit for bit
    np.percentile's; training calls this twice per Adam step and twice per
    full-set observation.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("samples must be non-empty")
    if n == 1:
        return BANDWIDTH_FLOOR
    spread_std = np.std(samples, ddof=1)
    q75, q25 = _quartiles(samples)
    spread_iqr = (q75 - q25) / 1.34
    spread = min(spread_std, spread_iqr) if spread_iqr > 0.0 else spread_std
    return max(0.9 * spread * n ** (-0.2), BANDWIDTH_FLOOR)


def fit_kde(samples) -> KdeModel:
    """Gaussian KDE of the flattened samples with Silverman's bandwidth.

    For a fixed bandwidth, build KdeModel(samples, bandwidth) directly.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    return KdeModel(samples=samples.copy(), bandwidth=silverman_bandwidth(samples))


def _on_grid(x, row_values):
    """row_values(block[:, None]) over the points of x, _GRID_BLOCK at a time.

    Each point's value is its own reduction over the samples, so the blocks
    change no bit; they cap the points x samples temporaries at
    _GRID_BLOCK x n. A scalar x gives a float.
    """
    x = np.asarray(x, dtype=float)
    grid = np.atleast_1d(x)
    values = np.empty(grid.shape)
    for start in range(0, len(grid), _GRID_BLOCK):
        values[start:start + _GRID_BLOCK] = row_values(grid[start:start + _GRID_BLOCK, None])
    return float(values[0]) if x.ndim == 0 else values


def auc_above(model: KdeModel, s):
    """Mass of the estimated density above s, via the kernel tail function."""
    from scipy.special import ndtr

    return _on_grid(s, lambda points: ndtr((model.samples[None, :] - points)
                                           / model.bandwidth).mean(axis=1))


def auc_below(model: KdeModel, s):
    """Mass of the estimated density below s."""
    from scipy.special import ndtr

    return _on_grid(s, lambda points: ndtr((points - model.samples[None, :])
                                           / model.bandwidth).mean(axis=1))


def intersection_cutoff(f_u: KdeModel, f_c: KdeModel) -> float:
    """Cut-off at the crossing of the two class densities.

    Of CUTOFF_GRID_POINTS evenly spaced points over the pooled sample range
    (one point when all samples are equal), returns the one that minimizes
    auc_above(f_u, s) + auc_below(f_c, s). At interior crossings this is
    exactly where f_u = f_c (the objective's derivative is f_c - f_u), and
    unlike a direct argmin of |f_u - f_c| it cannot drift into the far tails
    where both densities vanish.
    """
    lo = min(f_u.samples.min(), f_c.samples.min())
    hi = max(f_u.samples.max(), f_c.samples.max())
    points = np.linspace(lo, hi, CUTOFF_GRID_POINTS) if hi > lo else np.array([lo])
    stray_mass = auc_above(f_u, points) + auc_below(f_c, points)
    return float(points[int(np.argmin(stray_mass))])
