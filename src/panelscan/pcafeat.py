"""PCA reconstruction-error features.

The detector never looks at raw windows: it looks at how badly a window is
reconstructed from the top-k principal components of the training windows.
For a centered window x and the k x p transfer matrix Omega (rows are the
dominant unit eigenvectors of the training covariance), the feature vector is

    epsilon = x (Omega^T Omega - I_p),

i.e. reconstruction minus observation. Ordinary values reconstruct well,
injected shocks do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import density, evaluation

DEFAULT_LATENT_DIM = 40


@dataclass
class PcaModel:
    mean: np.ndarray         # length-p training column means
    omega: np.ndarray        # k x p, rows orthonormal
    eigenvalues: np.ndarray  # k dominant eigenvalues, descending
    k: int

    @property
    def window_length(self):
        return self.mean.size


@dataclass
class FeatureMatrix:
    epsilon: np.ndarray  # n x p reconstruction errors


def _eigh_descending(cov):
    """Eigenpairs of a covariance by LAPACK, eigenvalues descending.

    Eigenvectors are columns, each with its largest-magnitude component
    positive, so the basis is deterministic up to LAPACK's own round-off.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    eigenvalues = eigenvalues[::-1]
    eigenvectors = eigenvectors[:, ::-1]
    lead = np.argmax(np.abs(eigenvectors), axis=0)
    columns = np.arange(eigenvectors.shape[1])
    signs = np.where(eigenvectors[lead, columns] < 0.0, -1.0, 1.0)
    return eigenvalues, eigenvectors * signs


def _covariance(X):
    """Training means and the 1/(n-1) covariance of the centered rows."""
    if not np.all(np.isfinite(X)):
        raise ValueError("X_train must be finite")
    mean = X.mean(axis=0)
    centered = X - mean
    return mean, centered, centered.T @ centered / (X.shape[0] - 1)


def fit_pca(X_train, k) -> PcaModel:
    """Fit the transfer matrix on training windows.

    Covariance uses 1/(n-1); columns are centered by the training means and
    the same means are reused at transform time.
    """
    X = np.asarray(X_train, dtype=float)
    if X.ndim != 2:
        raise ValueError("X_train must be 2-D")
    n, p = X.shape
    if n < 2:
        raise ValueError("need at least two training rows")
    k = int(k)
    if not 1 <= k <= p:
        raise ValueError(f"k must lie in 1..{p}, got {k}")
    mean, _, cov = _covariance(X)
    eigenvalues, eigenvectors = _eigh_descending(cov)
    eigenvalues = np.clip(eigenvalues, 0.0, None)  # covariance is PSD; clip round-off
    return PcaModel(mean=mean, omega=eigenvectors[:, :k].T.copy(),
                    eigenvalues=eigenvalues[:k].copy(), k=k)


def reconstruction_errors(model: PcaModel, X) -> FeatureMatrix:
    """epsilon = X_c (Omega^T Omega - I) on rows centered by the training means."""
    X = np.asarray(X, dtype=float)
    squeeze = X.ndim == 1
    if squeeze:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.window_length:
        raise ValueError(f"expected rows of length {model.window_length}, got shape {X.shape}")
    centered = X - model.mean
    epsilon = (centered @ model.omega.T) @ model.omega - centered
    if squeeze:
        epsilon = epsilon[0]
    return FeatureMatrix(epsilon=epsilon)


def calibrate_latent_dim(X_train, A_train, k_grid, tolerance=0.02):
    """Pick the latent dimension by sweeping the naive detector's train F1.

    One eigendecomposition serves every k: with Z = X_c V the naive score of a
    row at dimension k is sqrt(||x_c||^2 - sum_{j<=k} z_j^2), so the sweep only
    re-reads cumulative sums. Returns the smallest k whose F1 is within
    tolerance of the best (plateau rule).
    """
    X = np.asarray(X_train, dtype=float)
    A = np.asarray(A_train)
    if X.ndim != 2 or X.shape[0] != A.size:
        raise ValueError("X_train and A_train disagree on the number of rows")
    p = X.shape[1]
    grid = sorted({int(k) for k in np.asarray(k_grid).ravel()})
    if not grid:
        raise ValueError("degenerate grid: no candidate dimensions")
    if grid[0] < 1 or grid[-1] > p:
        raise ValueError(f"degenerate grid: candidates must lie in 1..{p}")
    if not (np.any(A == 1) and np.any(A == 0)):
        raise ValueError("both classes required to calibrate")
    _, centered, cov = _covariance(X)
    _, eigenvectors = _eigh_descending(cov)
    projections = centered @ eigenvectors
    cumulative = np.cumsum(projections**2, axis=1)
    total = np.sum(centered**2, axis=1)
    f1_by_k = {}
    for k in grid:
        scores = np.sqrt(np.clip(total - cumulative[:, k - 1], 0.0, None))
        f_u = density.fit_kde(scores[A == 0])
        f_c = density.fit_kde(scores[A == 1])
        cut = density.intersection_cutoff(f_u, f_c).cutoff
        f1_by_k[k] = evaluation.classification_metrics(
            A, (scores > cut).astype(np.int64)).f1
    best = max(f1_by_k.values())
    for k in grid:
        if f1_by_k[k] >= best - tolerance:
            return k
    return grid[-1]
