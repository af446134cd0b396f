"""Synthetic market panels: correlated GBM paths, injected anomalies, windowing.

Stock paths follow geometric Brownian motion,

    S_t = S_0 * exp((mu - sigma^2 / 2) t + sigma W_t),

with per-stock parameters drawn at random and the driving Brownian motions
correlated across stocks. Anomalies are multiplicative shocks S -> S (1 + delta)
at stamps drawn without replacement per series, tracked by a value-level label
matrix Y. Sliding windows of length p turn a panel into a supervised set with a
window label A (contains an anomaly) and a location label L (1-based index of
the anomalous value inside the window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BANDS = {
    "drift_range": (0.01, 0.2),
    "vol_range": (0.01, 0.1),
}


@dataclass
class DiffusionConfig:
    n_stocks: int = 20
    n_steps: int = 1500
    dt: float = 1.0 / 1000.0  # year-fraction per step; keeps drift-driven level
                              # growth over a 1500-step panel mild (< e^0.3), so
                              # windows far apart in time stay comparable
    drift_range: tuple = _BANDS["drift_range"]
    vol_range: tuple = _BANDS["vol_range"]
    s0_mean: float = 100.0
    s0_std: float = 1.0
    correlation: object = 0.5  # constant off-diagonal value or explicit matrix
    seed: int = 0


@dataclass
class PricePanel:
    prices: np.ndarray  # N x T, positive
    s0: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    dt: float

    @property
    def n_stocks(self):
        return self.prices.shape[0]

    @property
    def n_steps(self):
        return self.prices.shape[1]


@dataclass
class ContaminationConfig:
    n_anom: int = 4
    rho: float = 0.04  # upper bound on the shock amplitude
    seed: int = 0


@dataclass
class LabeledPanel:
    windows: np.ndarray      # n x p
    ident_labels: np.ndarray  # A in {0,1}^n
    loc_labels: np.ndarray    # L in {1..p} where A=1, 0 otherwise
    provenance: np.ndarray    # n x 2 ints: (stock index, window offset)

    @property
    def n_rows(self):
        return self.windows.shape[0]

    @property
    def window_length(self):
        return self.windows.shape[1]


def correlation_matrix(correlation, n_stocks):
    """Expand the correlation spec to a validated N x N matrix."""
    if np.isscalar(correlation):
        c = float(correlation)
        if not 0.0 <= c < 1.0:
            raise ValueError(f"constant correlation must lie in [0, 1), got {c}")
        mat = np.full((n_stocks, n_stocks), c)
        np.fill_diagonal(mat, 1.0)
        return mat
    mat = np.asarray(correlation, dtype=float)
    if mat.shape != (n_stocks, n_stocks):
        raise ValueError(f"correlation matrix shape {mat.shape} != ({n_stocks}, {n_stocks})")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ValueError("correlation matrix is not symmetric")
    if not np.allclose(np.diag(mat), 1.0, atol=1e-12):
        raise ValueError("correlation matrix diagonal is not 1")
    eigvals = np.linalg.eigvalsh(mat)
    if eigvals[0] < -1e-10:
        raise ValueError(f"correlation matrix is not PSD: smallest eigenvalue {eigvals[0]:.3e}")
    return mat


def _correlation_root(mat):
    # Triangular factor when definite, symmetric PSD square root otherwise.
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(mat)
        eigvals = np.clip(eigvals, 0.0, None)
        return eigvecs @ np.diag(np.sqrt(eigvals)) @ eigvecs.T


def _validate_diffusion(config):
    if config.n_stocks < 1:
        raise ValueError("n_stocks must be >= 1")
    if config.n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if config.dt <= 0:
        raise ValueError("dt must be positive")
    for name in ("drift_range", "vol_range"):
        lo, hi = getattr(config, name)
        if hi < lo:
            raise ValueError(f"{name} is inverted: ({lo}, {hi})")
    if config.vol_range[0] < 0:
        raise ValueError("volatility cannot be negative")


def simulate_paths(s0, mu, sigma, correlation, dt, n_steps, seed):
    """Diffuse GBM paths for fixed per-stock parameters.

    The log-price increments are exact in distribution: jointly Gaussian across
    stocks with the requested correlation, each stock driven by its own RNG
    stream derived from (seed, stock index).
    """
    s0 = np.asarray(s0, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n_stocks = s0.size
    if np.any(s0 <= 0):
        raise ValueError("initial prices must be positive")
    mat = correlation_matrix(correlation, n_stocks)
    root = _correlation_root(mat)
    shocks = np.empty((n_stocks, n_steps))
    for i in range(n_stocks):
        rng = np.random.default_rng([seed, i])
        shocks[i] = rng.standard_normal(n_steps)
    increments = root @ shocks
    log_growth = (mu - 0.5 * sigma**2)[:, None] * dt + sigma[:, None] * np.sqrt(dt) * increments
    prices = s0[:, None] * np.exp(np.cumsum(log_growth, axis=1))
    return PricePanel(prices=prices, s0=s0, mu=mu, sigma=sigma, dt=dt)


def simulate_gbm(config: DiffusionConfig) -> PricePanel:
    """Draw per-stock parameters and diffuse a correlated GBM panel.

    Parameters come first in each stock's stream (S0, mu, sigma, then the
    Gaussian shocks), so a path is reproducible from (seed, stock index) alone.
    """
    _validate_diffusion(config)
    n = config.n_stocks
    s0 = np.empty(n)
    mu = np.empty(n)
    sigma = np.empty(n)
    shocks = np.empty((n, config.n_steps))
    for i in range(n):
        rng = np.random.default_rng([config.seed, i])
        s0[i] = config.s0_mean + config.s0_std * rng.standard_normal()
        mu[i] = rng.uniform(*config.drift_range)
        sigma[i] = rng.uniform(*config.vol_range)
        shocks[i] = rng.standard_normal(config.n_steps)
    if np.any(s0 <= 0):
        raise ValueError("drew a non-positive initial price; adjust s0_mean/s0_std")
    mat = correlation_matrix(config.correlation, n)
    root = _correlation_root(mat)
    increments = root @ shocks
    log_growth = (mu - 0.5 * sigma**2)[:, None] * config.dt \
        + sigma[:, None] * np.sqrt(config.dt) * increments
    prices = s0[:, None] * np.exp(np.cumsum(log_growth, axis=1))
    return PricePanel(prices=prices, s0=s0, mu=mu, sigma=sigma, dt=config.dt)


def contaminate(panel: PricePanel, cfg: ContaminationConfig):
    """Inject n_anom multiplicative shocks per series.

    Stamps are drawn without replacement within each series; each shock is
    sign * amplitude with sign uniform on {-1, +1} and amplitude uniform on
    [0, rho]. Returns the contaminated panel and the value-label matrix Y.
    """
    n_stocks, n_steps = panel.prices.shape
    if cfg.n_anom < 0:
        raise ValueError("n_anom must be >= 0")
    if cfg.n_anom > n_steps:
        raise ValueError(f"n_anom {cfg.n_anom} exceeds series length {n_steps}")
    if not 0.0 <= cfg.rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    rng = np.random.default_rng(cfg.seed)
    labels = np.zeros((n_stocks, n_steps), dtype=np.int64)
    mask = np.ones((n_stocks, n_steps))
    for i in range(n_stocks):
        stamps = rng.choice(n_steps, size=cfg.n_anom, replace=False)
        signs = rng.choice([-1.0, 1.0], size=cfg.n_anom)
        amplitudes = rng.uniform(0.0, cfg.rho, size=cfg.n_anom)
        mask[i, stamps] = 1.0 + signs * amplitudes
        labels[i, stamps] = 1
    contaminated = PricePanel(
        prices=panel.prices * mask,
        s0=panel.s0.copy(),
        mu=panel.mu.copy(),
        sigma=panel.sigma.copy(),
        dt=panel.dt,
    )
    return contaminated, labels


def slide(panel, labels, window_length):
    """Cut every length-p window out of each series, labels in lockstep.

    Returns (X, sY, provenance) where provenance rows are (stock index, window
    offset) with 0-based offsets; each series yields T - p + 1 windows.
    """
    prices = panel.prices if isinstance(panel, PricePanel) else np.asarray(panel, dtype=float)
    labels = np.asarray(labels)
    if labels.shape != prices.shape:
        raise ValueError("labels shape does not match panel shape")
    n_stocks, n_steps = prices.shape
    p = int(window_length)
    if p < 1:
        raise ValueError("window length must be >= 1")
    if p > n_steps:
        raise ValueError(f"window length {p} exceeds series length {n_steps}")
    n_windows = n_steps - p + 1
    windows = np.lib.stride_tricks.sliding_window_view(prices, p, axis=1)
    window_labels = np.lib.stride_tricks.sliding_window_view(labels, p, axis=1)
    X = windows.reshape(n_stocks * n_windows, p).copy()
    sY = window_labels.reshape(n_stocks * n_windows, p).copy()
    provenance = np.column_stack([
        np.repeat(np.arange(n_stocks), n_windows),
        np.tile(np.arange(n_windows), n_stocks),
    ])
    return X, sY, provenance


def select(X, sY, mode, r_c=0.16, seed=0, provenance=None):
    """Drop multi-anomaly windows and build a balanced or rate-matched set.

    Train mode pairs contaminated and uncontaminated windows one to one
    (2 N_c rows); test mode sets N_u = ceil(N_c (1 - r_c) / r_c) so the
    contamination rate is r_c up to the ceiling. At dense contamination the
    single-anomaly windows can outnumber what the uncontaminated supply
    sustains, so the contaminated class is subsampled uniformly to the
    largest N_c the mode's rule can satisfy; both classes draw without
    replacement from one seeded stream.
    """
    X = np.asarray(X)
    sY = np.asarray(sY)
    counts = sY.sum(axis=1)
    contaminated = np.flatnonzero(counts == 1)
    clean = np.flatnonzero(counts == 0)
    if contaminated.size == 0:
        raise ValueError("no contaminated windows survive selection")
    if mode == "train":
        n_keep = min(contaminated.size, clean.size)
        n_clean = n_keep
    elif mode == "test":
        if not 0.0 < r_c <= 1.0:
            raise ValueError(f"r_c must lie in (0, 1], got {r_c}")
        if r_c == 1.0:
            n_keep = contaminated.size
        else:
            supported = int(np.floor(clean.size * r_c / (1.0 - r_c)))
            n_keep = min(contaminated.size, supported)
        n_clean = int(np.ceil(n_keep * (1.0 - r_c) / r_c)) if r_c < 1.0 else 0
    else:
        raise ValueError(f"mode must be 'train' or 'test', got {mode!r}")
    if n_keep == 0:
        raise ValueError(f"{clean.size} uncontaminated windows cannot support "
                         f"mode {mode!r} at r_c={r_c}")
    rng = np.random.default_rng(seed)
    kept_c = rng.choice(contaminated, size=n_keep, replace=False)
    kept_u = rng.choice(clean, size=n_clean, replace=False)
    keep = np.sort(np.concatenate([kept_c, kept_u]))
    kept_prov = provenance[keep] if provenance is not None else None
    return X[keep], sY[keep], kept_prov


def label(sY):
    """Window labels from slided value labels: A = row sum, L = 1-based argmax."""
    sY = np.asarray(sY)
    counts = sY.sum(axis=1)
    if np.any(counts > 1):
        bad = int(np.flatnonzero(counts > 1)[0])
        raise ValueError(f"row {bad} holds {int(counts[bad])} anomalies; selection should have removed it")
    A = counts.astype(np.int64)
    L = np.zeros(sY.shape[0], dtype=np.int64)
    hot = A == 1
    L[hot] = np.argmax(sY[hot], axis=1) + 1
    return A, L


def build_labeled_panel(X, sY, provenance, mode, r_c=0.16, seed=0):
    """select + label in one call, packaged as a LabeledPanel."""
    X_sel, sY_sel, prov_sel = select(X, sY, mode, r_c=r_c, seed=seed, provenance=provenance)
    A, L = label(sY_sel)
    return LabeledPanel(windows=X_sel, ident_labels=A, loc_labels=L, provenance=prov_sel)


def split_train_test(panel: PricePanel, split_index):
    """Cut a panel into disjoint early/late parts at split_index columns."""
    n_steps = panel.n_steps
    split_index = int(split_index)
    if not 0 < split_index < n_steps:
        raise ValueError(f"split index must lie strictly inside (0, {n_steps}), got {split_index}")
    head = PricePanel(panel.prices[:, :split_index].copy(), panel.s0.copy(),
                      panel.mu.copy(), panel.sigma.copy(), panel.dt)
    tail = PricePanel(panel.prices[:, split_index:].copy(), panel.s0.copy(),
                      panel.mu.copy(), panel.sigma.copy(), panel.dt)
    return head, tail
