"""Synthetic market panels: correlated GBM paths, injected anomalies, windowing.

Stock paths follow geometric Brownian motion,

    S_t = S_0 * exp((mu - sigma^2 / 2) t + sigma W_t),

with per-stock parameters drawn at random and the driving Brownian motions
correlated across stocks. Anomalies are multiplicative shocks S -> S (1 + delta)
at stamps drawn without replacement per series, tracked by a value-level label
matrix Y. Sliding windows of length p turn a panel into a supervised set with a
window label A (contains an anomaly) and a location label L (1-based index of
the anomalous value inside the window).

Windowing works on strided views: `build_labeled_panel` counts anomalies per
window on a view of Y and copies out only the windows `select` keeps, so its
peak memory stays near the kept rows' n_kept x p floats. `slide` copies every
window, for callers that want them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-stock parameters simulate_gbm draws: S0 ~ N(S0_MEAN, S0_STD^2),
# mu ~ U(DRIFT_RANGE), sigma ~ U(VOL_RANGE).
DRIFT_RANGE = (0.01, 0.2)
VOL_RANGE = (0.01, 0.1)
S0_MEAN = 100.0
S0_STD = 1.0


@dataclass
class DiffusionConfig:
    n_stocks: int = 20
    n_steps: int = 1500
    dt: float = 1.0 / 1000.0  # year-fraction per step; keeps drift-driven level
                              # growth over a 1500-step panel mild (< e^0.3), so
                              # windows far apart in time stay comparable
    correlation: float = 0.5  # constant off-diagonal correlation, in [0, 1)
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
    """The N x N matrix with unit diagonal and the constant off-diagonal correlation."""
    c = float(correlation)
    if not 0.0 <= c < 1.0:
        raise ValueError(f"constant correlation must lie in [0, 1), got {c}")
    mat = np.full((n_stocks, n_stocks), c)
    np.fill_diagonal(mat, 1.0)
    return mat


def _correlation_root(mat):
    # Triangular factor when definite, symmetric PSD square root otherwise.
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(mat)
        eigvals = np.clip(eigvals, 0.0, None)
        return eigvecs @ np.diag(np.sqrt(eigvals)) @ eigvecs.T


def _stock_streams(seed, n_stocks):
    return [np.random.default_rng([seed, i]) for i in range(n_stocks)]


def _diffuse(s0, mu, sigma, correlation, dt, n_steps, streams):
    """Correlated GBM prices; stock i's shocks are the next n_steps normals of streams[i].

    The log-price increments are exact in distribution: jointly Gaussian across
    stocks with the requested correlation.
    """
    if np.any(s0 <= 0):
        raise ValueError("initial prices must be positive")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    root = _correlation_root(correlation_matrix(correlation, s0.size))
    shocks = np.empty((s0.size, n_steps))
    for i, rng in enumerate(streams):
        shocks[i] = rng.standard_normal(n_steps)
    increments = root @ shocks
    log_growth = (mu - 0.5 * sigma**2)[:, None] * dt + sigma[:, None] * np.sqrt(dt) * increments
    prices = s0[:, None] * np.exp(np.cumsum(log_growth, axis=1))
    return PricePanel(prices=prices, s0=s0, mu=mu, sigma=sigma, dt=dt)


def simulate_paths(s0, mu, sigma, correlation, dt, n_steps, seed):
    """Diffuse GBM paths for fixed per-stock parameters.

    Each stock is driven by its own RNG stream derived from (seed, stock index).
    """
    s0 = np.asarray(s0, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return _diffuse(s0, mu, sigma, correlation, dt, n_steps, _stock_streams(seed, s0.size))


def simulate_gbm(config: DiffusionConfig) -> PricePanel:
    """Draw per-stock parameters and diffuse a correlated GBM panel.

    Parameters come first in each stock's stream (S0, mu, sigma, then the
    Gaussian shocks), so a path is reproducible from (seed, stock index) alone.
    """
    if config.n_stocks < 1:
        raise ValueError("n_stocks must be >= 1")
    streams = _stock_streams(config.seed, config.n_stocks)
    s0 = np.empty(config.n_stocks)
    mu = np.empty(config.n_stocks)
    sigma = np.empty(config.n_stocks)
    for i, rng in enumerate(streams):
        s0[i] = S0_MEAN + S0_STD * rng.standard_normal()
        mu[i] = rng.uniform(*DRIFT_RANGE)
        sigma[i] = rng.uniform(*VOL_RANGE)
    return _diffuse(s0, mu, sigma, config.correlation, config.dt, config.n_steps, streams)


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
    prices, labels, p = _windowable(panel, labels, window_length)
    n_stocks, n_steps = prices.shape
    n_windows = n_steps - p + 1
    X = _view(prices, p).reshape(n_stocks * n_windows, p).copy()
    sY = _view(labels, p).reshape(n_stocks * n_windows, p).copy()
    provenance = np.column_stack([
        np.repeat(np.arange(n_stocks), n_windows),
        np.tile(np.arange(n_windows), n_stocks),
    ])
    return X, sY, provenance


def _windowable(panel, labels, window_length):
    """(prices, labels, p) once the shapes admit length-p windows; nothing is copied."""
    prices = panel.prices if isinstance(panel, PricePanel) else np.asarray(panel, dtype=float)
    labels = np.asarray(labels)
    if labels.shape != prices.shape:
        raise ValueError("labels shape does not match panel shape")
    p = int(window_length)
    if p < 1:
        raise ValueError("window length must be >= 1")
    if p > prices.shape[1]:
        raise ValueError(f"window length {p} exceeds series length {prices.shape[1]}")
    return prices, labels, p


def _view(values, p):
    """Every length-p window of each row: an n_stocks x n_windows x p view."""
    return np.lib.stride_tricks.sliding_window_view(values, p, axis=1)


def select(counts, mode, r_c=0.16, seed=0):
    """Kept window indices, ascending, from each window's anomaly count.

    Multi-anomaly windows are dropped. Train mode pairs contaminated and
    uncontaminated windows one to one (2 N_c rows); test mode sets
    N_u = ceil(N_c (1 - r_c) / r_c) so the contamination rate is r_c up to the
    ceiling. At dense contamination the single-anomaly windows can outnumber
    what the uncontaminated supply sustains, so the contaminated class is
    subsampled uniformly to the largest N_c the mode's rule can satisfy; both
    classes draw without replacement from one seeded stream.
    """
    counts = np.asarray(counts)
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
    return np.sort(np.concatenate([kept_c, kept_u]))


def build_labeled_panel(panel, labels, window_length, mode, r_c=0.16, seed=0):
    """Window a panel with 0/1 value labels and keep the rows `select` picks.

    Anomalies are counted on a sliding view of the labels, and only the kept
    windows are copied out of a sliding view of the prices, so memory follows
    the kept rows (n_kept x p floats), not every window. A = the window's
    anomaly count; L = the 1-based index of the one anomaly in a contaminated
    window (the first stamp at or after its offset), 0 elsewhere.
    """
    prices, labels, p = _windowable(panel, labels, window_length)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("value labels must be 0 or 1")
    windows = _view(prices, p)
    n_windows = windows.shape[1]
    counts = _view(labels, p).sum(axis=2).ravel()
    keep = select(counts, mode, r_c=r_c, seed=seed)
    stock, offset = np.divmod(keep, n_windows)
    A = counts[keep].astype(np.int64)
    L = np.zeros(keep.size, dtype=np.int64)
    hot = A == 1
    start = stock[hot] * labels.shape[1] + offset[hot]
    stamps = np.flatnonzero(labels)
    L[hot] = stamps[np.searchsorted(stamps, start)] - start + 1
    return LabeledPanel(windows=windows[stock, offset], ident_labels=A, loc_labels=L,
                        provenance=np.column_stack([stock, offset]))


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
