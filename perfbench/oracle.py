"""Computations the checks compare the program against, written apart from it.

Nothing here calls panelscan: the PCA comes from LAPACK, the network forward
pass and the loss are restated in plain numpy, the ADF statistic is a
least-squares regression, and the VaR is the closed form with scipy's normal
quantile.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, ndtr
from scipy.stats import norm

PROB_CLIP = 1e-7
BANDWIDTH_FLOOR = 1e-6


def top_eigen(X, k):
    """Top-k eigenvalues (descending) and eigenvectors (columns) of the sample covariance."""
    cov = np.cov(np.asarray(X, dtype=float), rowvar=False, ddof=1)
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1][:k]
    return values[order], vectors[:, order]


def features(mean, omega, X):
    """Reconstruction minus observation on rows centred by the training means."""
    centered = np.atleast_2d(np.asarray(X, dtype=float)) - mean
    projector = omega.T @ omega
    return centered @ projector - centered


def forward(weights, biases, epsilon):
    a = np.atleast_2d(np.asarray(epsilon, dtype=float))
    for W, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ W.T + b, 0.0)
    return (a @ weights[-1].T + biases[-1])[:, 0]


def silverman(samples):
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        return BANDWIDTH_FLOOR
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    spread = min(np.std(samples, ddof=1), (q75 - q25) / 1.34)
    return max(0.9 * spread * samples.size ** -0.2, BANDWIDTH_FLOOR)


def kde_loss(scores, A, cutoff, temperature):
    """BCE on the smoothed labels plus the two KDE tail masses at the cut-off."""
    A = np.asarray(A, dtype=float)
    p_hat = np.clip(expit((scores - cutoff) / temperature), PROB_CLIP, 1.0 - PROB_CLIP)
    bce = -np.mean(A * np.log(p_hat) + (1.0 - A) * np.log(1.0 - p_hat))
    clean, hot = scores[A == 0], scores[A == 1]
    tail_u = np.mean(ndtr((clean - cutoff) / silverman(clean)))
    tail_c = np.mean(ndtr((cutoff - hot) / silverman(hot)))
    return float(bce + tail_u + tail_c)


def classification(A, A_hat):
    """(precision, recall, f1) from the confusion counts; 0 where undefined."""
    A = np.asarray(A)
    A_hat = np.asarray(A_hat)
    tp = int(np.sum((A == 1) & (A_hat == 1)))
    fp = int(np.sum((A == 0) & (A_hat == 1)))
    fn = int(np.sum((A == 1) & (A_hat == 0)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def adf_statistic(series, lag):
    """t-statistic of the lagged level in the ADF regression with an intercept."""
    x = np.asarray(series, dtype=float)
    dx = np.diff(x)
    y = dx[lag:]
    columns = [x[lag:-1]] + [dx[lag - j:dx.size - j] for j in range(1, lag + 1)]
    design = np.column_stack(columns + [np.ones(y.size)])
    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ beta
    sigma2 = residuals @ residuals / (y.size - design.shape[1])
    covariance = sigma2 * np.linalg.pinv(design.T @ design)
    return float(beta[0] / np.sqrt(covariance[0, 0]))


def parametric_var(mu, sigma, correlation, dt, h, weights, alpha):
    """w.m + z_alpha sqrt(w' S w) for the GBM log-return model of the parameters."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    corr = np.full((mu.size, mu.size), float(correlation))
    np.fill_diagonal(corr, 1.0)
    mean = (mu - 0.5 * sigma**2) * dt * h
    cov = np.outer(sigma, sigma) * corr * dt * h
    w = np.asarray(weights, dtype=float)
    return float(w @ mean + norm.ppf(alpha) * np.sqrt(w @ cov @ w))


def relative_gap(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)))
