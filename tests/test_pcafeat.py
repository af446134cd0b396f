"""PCA fit on LAPACK eigh and reconstruction-error features."""

import numpy as np
import pytest

from panelscan import pcafeat

INV_SQRT2 = 0.7071067811865476

# [[2,1,0],[1,2,0],[0,0,2]] has spectrum {3, 2, 1} with eigenvectors
# [1,1,0]/sqrt(2), e3, [1,-1,0]/sqrt(2) after the sign convention (columns).
FROZEN_MATRIX = np.array([
    [2.0, 1.0, 0.0],
    [1.0, 2.0, 0.0],
    [0.0, 0.0, 2.0],
])
FROZEN_VALUES = np.array([3.0, 2.0, 1.0])
FROZEN_VECTORS = np.array([
    [INV_SQRT2, 0.0, INV_SQRT2],
    [INV_SQRT2, 0.0, -INV_SQRT2],
    [0.0, 1.0, 0.0],
])


def _rows_with_covariance(cov, n_rows=50, offset=10.0, seed=0):
    """Rows whose 1/(n-1) sample covariance is cov up to round-off."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_rows, cov.shape[0]))
    # orthonormal columns spanning centered data keep zero column means
    q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    return offset + np.sqrt(n_rows - 1.0) * q @ np.linalg.cholesky(cov).T


def test_fit_pca_frozen_three_by_three():
    model = pcafeat.fit_pca(_rows_with_covariance(FROZEN_MATRIX), k=3)
    np.testing.assert_allclose(model.mean, 10.0, atol=1e-12)
    np.testing.assert_allclose(model.eigenvalues, FROZEN_VALUES, atol=1e-12)
    np.testing.assert_allclose(model.omega[:2], FROZEN_VECTORS.T[:2], atol=1e-12)
    # [1,-1,0]/sqrt(2) ties on its largest magnitude, so round-off picks its sign
    third = model.omega[2]
    np.testing.assert_allclose(third * np.sign(third[0]), FROZEN_VECTORS[:, 2], atol=1e-12)
    assert third[np.argmax(np.abs(third))] > 0


def test_fit_pca_eigenpairs_solve_the_covariance():
    rng = np.random.default_rng(42)
    for _ in range(5):
        X = rng.standard_normal((40, 8)) @ rng.standard_normal((8, 8))
        model = pcafeat.fit_pca(X, k=8)
        cov = np.cov(X, rowvar=False)
        scale = np.linalg.norm(cov)
        # rows of omega are orthonormal eigenvectors of the sample covariance
        np.testing.assert_allclose(model.omega @ model.omega.T, np.eye(8), atol=1e-10)
        residual = cov @ model.omega.T - model.omega.T * model.eigenvalues
        assert np.abs(residual).max() <= 1e-10 * scale
        np.testing.assert_allclose(model.eigenvalues.sum(), np.trace(cov), rtol=1e-12)


def _power_iteration_eigh(A, tol=5e-13, max_iters=200000):
    """Brute-force oracle: dominant eigenpair by power iteration, then deflate.

    Only safe on positive semidefinite input, where descending magnitude is
    descending value; re-orthogonalization against found vectors keeps the
    deflation from drifting.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    scale = np.linalg.norm(A)
    rng = np.random.default_rng(99)
    values = np.empty(n)
    vectors = np.empty((n, n))
    for j in range(n):
        v = rng.standard_normal(n)
        for _ in range(max_iters):
            w = A @ v
            w -= vectors[:, :j] @ (vectors[:, :j].T @ w)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                w = v
                break
            w /= norm
            if np.linalg.norm(A @ w - (w @ A @ w) * w) <= tol * scale:
                break
            v = w
        v = w / np.linalg.norm(w)
        values[j] = v @ A @ v
        vectors[:, j] = v
        A -= values[j] * np.outer(v, v)
    return values, vectors


def test_fit_pca_matches_power_iteration_on_covariances():
    rng = np.random.default_rng(17)
    for _ in range(5):
        X = rng.standard_normal((12, 8))
        model = pcafeat.fit_pca(X, k=8)
        oracle_values, oracle_vectors = _power_iteration_eigh(np.cov(X, rowvar=False))
        scale = np.linalg.norm(np.cov(X, rowvar=False))
        np.testing.assert_allclose(model.eigenvalues, oracle_values, atol=1e-8 * scale)
        for j in range(8):
            aligned = oracle_vectors[:, j] * np.sign(oracle_vectors[:, j] @ model.omega[j])
            np.testing.assert_allclose(model.omega[j], aligned, atol=1e-8)


def test_fit_pca_sign_convention_and_determinism():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 6)) @ rng.standard_normal((6, 6))
    model_a = pcafeat.fit_pca(X, k=6)
    model_b = pcafeat.fit_pca(X.copy(), k=6)
    np.testing.assert_array_equal(model_a.eigenvalues, model_b.eigenvalues)
    np.testing.assert_array_equal(model_a.omega, model_b.omega)
    assert np.all(np.diff(model_a.eigenvalues) <= 0)
    for row in model_a.omega:
        assert row[np.argmax(np.abs(row))] > 0
    # the k-dimensional fit is the leading block of the full one
    model_k = pcafeat.fit_pca(X, k=2)
    np.testing.assert_array_equal(model_k.omega, model_a.omega[:2])


def test_fit_pca_edge_cases():
    # constant rows: zero spectrum, still an orthonormal basis, zero errors
    constant = np.tile([1.0, -2.0, 3.0, 0.5], (6, 1))
    model = pcafeat.fit_pca(constant, k=4)
    np.testing.assert_array_equal(model.eigenvalues, np.zeros(4))
    np.testing.assert_allclose(model.omega @ model.omega.T, np.eye(4), atol=1e-15)
    assert np.all(pcafeat.reconstruction_errors(model, constant).epsilon == 0.0)
    # independent columns: the basis is the coordinate axes by variance
    model = pcafeat.fit_pca(_rows_with_covariance(np.diag([5.0, 1.0, 3.0])), k=3)
    np.testing.assert_allclose(model.eigenvalues, [5.0, 3.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(model.omega, np.eye(3)[[0, 2, 1]], atol=1e-12)
    # non-finite rows have no covariance
    for bad in (np.nan, np.inf):
        X = np.ones((5, 3))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            pcafeat.fit_pca(X, k=2)


def test_fit_pca_scale_invariant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 5))
    base = pcafeat.fit_pca(X, k=5)
    for factor in (1e6, 1e-6):
        scaled = pcafeat.fit_pca(X * factor, k=5)
        np.testing.assert_allclose(scaled.eigenvalues, base.eigenvalues * factor**2, rtol=1e-9)
        np.testing.assert_allclose(scaled.omega, base.omega, atol=1e-9)


def _factor_panel(n_rows=300, p=12, rank=2, noise=1e-3, seed=0):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((p, rank)))
    latent = rng.standard_normal((n_rows, rank)) * np.array([3.0, 1.5])[:rank]
    return latent @ basis.T + noise * rng.standard_normal((n_rows, p))


def test_fit_pca_recovers_low_rank_structure():
    X = _factor_panel()
    model = pcafeat.fit_pca(X, k=2)
    assert model.k == 2 and model.window_length == 12
    np.testing.assert_allclose(model.omega @ model.omega.T, np.eye(2), atol=1e-10)
    assert np.all(np.diff(model.eigenvalues) <= 0)
    assert np.all(model.eigenvalues >= 0)
    # top-2 eigenvalues carry essentially all the variance
    cov = np.cov(X, rowvar=False)
    np.testing.assert_allclose(
        model.eigenvalues, np.sort(np.linalg.eigvalsh(cov))[::-1][:2], rtol=1e-8)
    feats = pcafeat.reconstruction_errors(model, X)
    assert np.sqrt(np.mean(feats.epsilon**2)) < 5e-3


def test_reconstruction_error_matches_direct_formula():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 9))
    model = pcafeat.fit_pca(X, k=3)
    feats = pcafeat.reconstruction_errors(model, X)
    centered = X - model.mean
    direct = centered @ (model.omega.T @ model.omega - np.eye(9))
    np.testing.assert_allclose(feats.epsilon, direct, atol=1e-12)


def test_full_rank_reconstruction_is_exact():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 6))
    model = pcafeat.fit_pca(X, k=6)
    feats = pcafeat.reconstruction_errors(model, X)
    assert np.abs(feats.epsilon).max() < 1e-10


def test_training_mean_row_has_zero_error():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((25, 7))
    model = pcafeat.fit_pca(X, k=2)
    feats = pcafeat.reconstruction_errors(model, X.mean(axis=0))
    assert feats.epsilon.shape == (7,)
    np.testing.assert_allclose(feats.epsilon, 0.0, atol=1e-12)


def test_reconstruction_errors_validates_width():
    rng = np.random.default_rng(2)
    model = pcafeat.fit_pca(rng.standard_normal((20, 5)), k=2)
    with pytest.raises(ValueError):
        pcafeat.reconstruction_errors(model, np.ones((3, 6)))


def test_fit_pca_validation():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 4))
    for bad_k in (0, 5):
        with pytest.raises(ValueError):
            pcafeat.fit_pca(X, bad_k)
    with pytest.raises(ValueError):
        pcafeat.fit_pca(X[:1], 2)
    with pytest.raises(ValueError):
        pcafeat.fit_pca(np.ones(4), 1)
