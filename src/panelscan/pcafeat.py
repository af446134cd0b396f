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
    epsilon: np.ndarray  # n x p reconstruction errors; length p for one row


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
    return mean, centered.T @ centered / (X.shape[0] - 1)


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
    mean, cov = _covariance(X)
    eigenvalues, eigenvectors = _eigh_descending(cov)
    eigenvalues = np.clip(eigenvalues, 0.0, None)  # covariance is PSD; clip round-off
    return PcaModel(mean=mean, omega=eigenvectors[:, :k].T.copy(),
                    eigenvalues=eigenvalues[:k].copy(), k=k)


def reconstruction_errors(model: PcaModel, X) -> FeatureMatrix:
    """epsilon = X_c (Omega^T Omega - I) on rows centered by the training means.

    A 1-D row runs the same chain as a vector and gives a 1-D epsilon.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != model.window_length:
        raise ValueError(f"expected rows of length {model.window_length}, got shape {X.shape}")
    centered = X - model.mean
    return FeatureMatrix(epsilon=(centered @ model.omega.T) @ model.omega - centered)
