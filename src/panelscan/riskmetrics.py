"""Parametric value-at-risk and imputation quality metrics.

Log-returns are modelled jointly normal, R ~ N(mu_R, Sigma_R); a portfolio
P = Q^T R then has VaR_alpha(P) = mu_P + q_alpha sigma_P. The quantity is a
return quantile, not a loss figure: no sign flip. The inverse normal CDF is
scipy's ndtri.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simgen


@dataclass
class ReturnModel:
    mu: np.ndarray      # length-N mean of h-step log-returns
    sigma: np.ndarray   # N x N covariance


def log_returns(prices, h_steps=1):
    """Overlapping h-step log returns per series."""
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    h = int(h_steps)
    if not 1 <= h < prices.shape[1]:
        raise ValueError(f"h_steps must lie in 1..{prices.shape[1] - 1}, got {h}")
    if np.any(prices <= 0):
        raise ValueError("log returns need positive prices")
    return np.log(prices[:, h:] / prices[:, :-h])


def estimate_params(returns) -> ReturnModel:
    """Sample mean and 1/(n-1) covariance of the return observations."""
    returns = np.atleast_2d(np.asarray(returns, dtype=float))
    if returns.shape[1] < 2:
        raise ValueError("need at least two return observations")
    mu = returns.mean(axis=1)
    sigma = np.atleast_2d(np.cov(returns, ddof=1))
    return ReturnModel(mu=mu, sigma=sigma)


def theoretical_return_model(mu, sigma, correlation, dt, h_steps=1) -> ReturnModel:
    """Return model implied by the generating GBM parameters."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    h = int(h_steps)
    if h < 1:
        raise ValueError(f"h_steps must be >= 1, got {h}")
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    mat = simgen.correlation_matrix(correlation, mu.size)
    mean = (mu - 0.5 * sigma**2) * dt * h
    cov = np.outer(sigma, sigma) * mat * dt * h
    return ReturnModel(mu=mean, sigma=cov)


def norm_quantile(p):
    """Inverse standard normal CDF."""
    from scipy.special import ndtri

    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    return float(ndtri(p))


def portfolio_var(model: ReturnModel, weights, alpha) -> float:
    """VaR_alpha = mu_P + q_alpha sigma_P for P = Q^T R, with 0.5 < alpha < 1.

    weights holds the position units Q, one per series of the model."""
    if not 0.5 < float(alpha) < 1.0:
        raise ValueError(f"alpha must lie in (0.5, 1), got {float(alpha)}")
    weights = np.asarray(weights, dtype=float).ravel()
    if not np.all(np.isfinite(weights)):
        raise ValueError("portfolio weights must be finite")
    if weights.size != model.mu.size:
        raise ValueError("portfolio and return model disagree on dimension")
    mu_p = float(weights @ model.mu)
    var_p = float(weights @ model.sigma @ weights)
    if var_p < -1e-10:
        raise ValueError(f"portfolio variance is negative: {var_p:.3e}")
    sigma_p = math.sqrt(max(var_p, 0.0))
    return mu_p + norm_quantile(alpha) * sigma_p


def var_errors(theo, est):
    """(absolute, relative) error of an estimated VaR against the true one."""
    t = float(theo)
    e = float(est)
    if t == 0.0:
        raise ValueError("relative VaR error undefined for zero theoretical VaR")
    absolute = abs(t - e)
    return absolute, absolute / abs(t)


def imputation_error(clean_row, imputed_row, n_anom):
    """sqrt(sum (S - S_tilde)^2 / n_anom) over a full series."""
    clean = np.asarray(clean_row, dtype=float).ravel()
    imputed = np.asarray(imputed_row, dtype=float).ravel()
    if clean.size != imputed.size:
        raise ValueError("series lengths differ")
    if n_anom < 1:
        raise ValueError("n_anom must be >= 1")
    return float(np.sqrt(np.sum((clean - imputed) ** 2) / n_anom))


def cov_error(sigma, sigma_tilde):
    """Frobenius norm of the covariance estimation error."""
    a = np.asarray(sigma, dtype=float)
    b = np.asarray(sigma_tilde, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
