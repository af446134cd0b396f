"""Evaluation harness: metrics, PRC, robustness sweeps, ADF stationarity.

Everything here is pure bookkeeping over predictions except the ADF test,
which fits the augmented Dickey-Fuller regression

    d eps_t = a + gamma eps_{t-1} + theta_1 d eps_{t-1} + ... + z_t

(intercept, no trend) by OLS and reads the t-statistic of gamma against the
MacKinnon response surfaces: the 1994 surface for an approximate p-value and
the 2010 critical-value surface for the 5% decision, at Schwert's (1989) lag
order for the series length. Every row of a batch has the same length and so
the same lag order: one private kernel stacks the rows' normal equations and
solves them together, and adf_test is that kernel on one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROBUSTNESS_SHOCKS = (-2.0, -1.0, -0.1, -0.01, -0.001, -0.0001,
                     0.0, 0.0001, 0.001, 0.01, 0.1, 1.0, 2.0)
PRC_GRID_SIZE = 512  # most cut-offs a precision-recall curve keeps


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    counts: dict

    def as_dict(self):
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f1": self.f1}


@dataclass
class PrcCurve:
    recall: np.ndarray
    precision: np.ndarray
    thresholds: np.ndarray

    @property
    def auc(self):
        return float(np.trapezoid(self.precision, self.recall))


@dataclass
class AdfResult:
    statistic: float
    lag_order: int
    p_value: float
    critical_5pct: float

    @property
    def reject_5pct(self):
        return self.statistic < self.critical_5pct


@dataclass
class AmplitudeBucket:
    low: float
    high: float
    count: int
    ratio: float  # None when the bucket is empty


def _f1_from(precision, recall):
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def classification_metrics(A, A_hat) -> MetricsReport:
    """Confusion-matrix metrics; undefined ratios fall back to 0."""
    A = np.asarray(A).ravel()
    A_hat = np.asarray(A_hat).ravel()
    if A.size != A_hat.size:
        raise ValueError("label vectors differ in length")
    if not (np.isin(A, (0, 1)).all() and np.isin(A_hat, (0, 1)).all()):
        raise ValueError("labels must be binary")
    tp = int(np.sum((A == 1) & (A_hat == 1)))
    fp = int(np.sum((A == 0) & (A_hat == 1)))
    tn = int(np.sum((A == 0) & (A_hat == 0)))
    fn = int(np.sum((A == 1) & (A_hat == 0)))
    n = A.size
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return MetricsReport(
        accuracy=(tp + tn) / n if n else 0.0,
        precision=precision,
        recall=recall,
        f1=_f1_from(precision, recall),
        counts={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
    )


def localization_metrics(L, L_hat) -> MetricsReport:
    """Exact-index accuracy plus support-weighted one-vs-rest averages."""
    L = np.asarray(L).ravel()
    L_hat = np.asarray(L_hat).ravel()
    if L.size == 0:
        raise ValueError("no rows to score")
    if L.size != L_hat.size:
        raise ValueError("label vectors differ in length")
    n = L.size
    correct = int(np.sum(L == L_hat))
    precision = 0.0
    recall = 0.0
    f1 = 0.0
    for cls in np.unique(L):
        support = int(np.sum(L == cls))
        predicted = int(np.sum(L_hat == cls))
        hits = int(np.sum((L == cls) & (L_hat == cls)))
        cls_precision = hits / predicted if predicted else 0.0
        cls_recall = hits / support
        weight = support / n
        precision += weight * cls_precision
        recall += weight * cls_recall
        f1 += weight * _f1_from(cls_precision, cls_recall)
    return MetricsReport(
        accuracy=correct / n,
        precision=precision,
        recall=recall,
        f1=f1,
        counts={"correct": correct, "total": n},
    )


def precision_recall_curve(scores, A) -> PrcCurve:
    """PRC over unique score cut-offs, subsampled to PRC_GRID_SIZE.

    A sentinel below the minimum score anchors recall at 1; an empty
    prediction set takes the curve convention precision = 1 so a perfect
    scorer integrates to exactly 1.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    A = np.asarray(A).ravel()
    if scores.size != A.size:
        raise ValueError("scores and labels differ in length")
    if not (np.any(A == 1) and np.any(A == 0)):
        raise ValueError("both classes required")
    thresholds = np.unique(scores)
    if thresholds.size > PRC_GRID_SIZE:
        keep = np.round(np.linspace(0, thresholds.size - 1, PRC_GRID_SIZE)).astype(int)
        thresholds = thresholds[np.unique(keep)]
    thresholds = np.concatenate([[thresholds[0] - 1.0], thresholds])
    n_pos = int(np.sum(A == 1))
    recall = np.empty(thresholds.size)
    precision = np.empty(thresholds.size)
    for i, cut in enumerate(thresholds):
        pred = scores > cut
        tp = int(np.sum(pred & (A == 1)))
        predicted = int(pred.sum())
        precision[i] = tp / predicted if predicted else 1.0
        recall[i] = tp / n_pos
    # ties in recall keep the highest cut-off first so the trapezoid reads
    # the best precision attained at each recall level
    order = np.lexsort((-thresholds, recall))
    return PrcCurve(recall=recall[order], precision=precision[order],
                    thresholds=thresholds[order])


# MacKinnon surfaces for the constant-only, single-series case.
_TAU_STAR = -1.61
_TAU_MIN = -18.83
_TAU_MAX = 2.74
_TAU_SMALL_P = (2.1659, 1.4412, 0.038269)
_TAU_LARGE_P = (1.7339, 0.93202, -0.12745, -0.010368)
_CRIT_5PCT = (-2.86154, -2.8903, -4.234, -40.04)  # polynomial in 1/nobs


def _mackinnon_p_value(stat):
    """Elementwise approximate p-value; exactly 0 below tau_min, 1 above tau_max."""
    from scipy.special import ndtr

    stat = np.asarray(stat, dtype=float)
    p_value = np.where(stat <= _TAU_STAR,
                       ndtr(np.polyval(_TAU_SMALL_P[::-1], stat)),
                       ndtr(np.polyval(_TAU_LARGE_P[::-1], stat)))
    return np.where(stat > _TAU_MAX, 1.0, np.where(stat < _TAU_MIN, 0.0, p_value))


def _mackinnon_crit_5pct(nobs):
    return float(np.polyval(_CRIT_5PCT[::-1], 1.0 / nobs))


def schwert_lag(n):
    """Rule-of-thumb ADF lag order, floor(12 (n/100)^(1/4))."""
    return int(np.floor(12.0 * (n / 100.0) ** 0.25))


# Rows per stacked ADF solve: 512 rows of 206 points at lag 14 hold a
# 512 x 16 x 191 design, about 12 MB, whatever the number of rows.
_ADF_CHUNK_ROWS = 512


@dataclass
class _AdfRows:
    statistics: np.ndarray
    p_values: np.ndarray
    lag_order: int
    critical_5pct: float


def _adf_batch(series) -> _AdfRows:
    """ADF t-statistic of gamma and its p-value for every row of an (n, T) array.

    The design is stored rows x regressors x observations. Stacked matmuls
    form each row's Gram matrix and X^T y, one stacked Cholesky checks them
    all, and one stacked solve gives beta and the first column of the
    inverse Gram matrix. Rows go through in fixed chunks, so memory does not
    grow with n, and a row's result does not depend on the rows around it.
    """
    x = np.asarray(series, dtype=float)
    n_rows, n = x.shape
    lag_order = schwert_lag(n)
    n_regressors = lag_order + 2
    nobs = n - lag_order - 1
    if nobs <= n_regressors:
        raise ValueError(f"series too short: {n} points, lag order {lag_order}")
    statistics = np.empty(n_rows)
    for lo in range(0, n_rows, _ADF_CHUNK_ROWS):
        chunk = x[lo:lo + _ADF_CHUNK_ROWS]
        dx = np.diff(chunk, axis=1)
        y = dx[:, lag_order:, None]
        design = np.empty((chunk.shape[0], n_regressors, nobs))
        design[:, 0] = chunk[:, lag_order:-1]
        for j in range(1, lag_order + 1):
            design[:, j] = dx[:, lag_order - j:n - 1 - j]
        design[:, -1] = 1.0
        gram = design @ design.transpose(0, 2, 1)
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular ADF regression") from exc
        rhs = np.zeros((chunk.shape[0], n_regressors, 2))  # [X^T y | e_1]
        rhs[:, :, :1] = design @ y
        rhs[:, 0, 1] = 1.0
        solution = np.linalg.solve(gram, rhs)
        beta = solution[:, :, :1]
        residuals = y - design.transpose(0, 2, 1) @ beta
        sigma2 = (residuals.transpose(0, 2, 1) @ residuals)[:, 0, 0] / (nobs - n_regressors)
        stderr = np.sqrt(sigma2 * solution[:, 0, 1])
        if np.any(stderr == 0.0):
            raise ValueError("singular ADF regression")
        statistics[lo:lo + chunk.shape[0]] = beta[:, 0, 0] / stderr
    return _AdfRows(statistics=statistics, p_values=_mackinnon_p_value(statistics),
                    lag_order=lag_order, critical_5pct=_mackinnon_crit_5pct(nobs))


def adf_test(series) -> AdfResult:
    """Augmented Dickey-Fuller test with intercept, no trend, at the Schwert lag."""
    rows = _adf_batch(np.ravel(series)[None, :])
    return AdfResult(statistic=float(rows.statistics[0]), lag_order=rows.lag_order,
                     p_value=float(rows.p_values[0]), critical_5pct=rows.critical_5pct)


def flatten_metrics(result, prefix=""):
    flat = {}
    if isinstance(result, MetricsReport):
        for key, value in result.as_dict().items():
            flat[f"{prefix}.{key}" if prefix else key] = value
    elif isinstance(result, dict):
        for key, value in result.items():
            name = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            flat.update(flatten_metrics(value, name))
    else:
        flat[prefix] = float(result)
    return flat


@dataclass
class MultirunResult:
    mean: dict
    std: dict


def multirun(experiment, seeds) -> MultirunResult:
    """Re-run a seeded experiment once per seed and aggregate every reported metric.

    experiment(seed) may return a MetricsReport, a float, or an arbitrarily
    nested dict of those; metrics are flattened to dotted names. Any failing
    run aborts with its index.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("multirun needs at least two runs")
    runs = []
    for index, seed in enumerate(seeds):
        try:
            runs.append(flatten_metrics(experiment(seed)))
        except Exception as exc:
            raise RuntimeError(f"run {index} (seed {seed}) failed: {exc}") from exc
    return aggregate(runs)


def aggregate(runs) -> MultirunResult:
    """Mean and sample std (ddof 1) of each flat metric over the runs that report it.

    Both dicts are keyed in sorted order; a metric that only one run reports
    has std 0.
    """
    mean = {}
    std = {}
    for key in sorted(set().union(*(run.keys() for run in runs))):
        values = np.array([run[key] for run in runs if key in run], dtype=float)
        mean[key] = float(values.mean())
        std[key] = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return MultirunResult(mean=mean, std=std)


def cutoff_robustness(scores, cutoff, A):
    """Identification metrics of the scores after shifting the cut-off by gamma.

    One (gamma, MetricsReport) pair per gamma in ROBUSTNESS_SHOCKS, in order.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    A = np.asarray(A).ravel()
    return [(gamma, classification_metrics(A, (scores > cutoff + gamma).astype(np.int64)))
            for gamma in ROBUSTNESS_SHOCKS]


def amplitude_sensitivity(amplitudes, correct):
    """Success ratio per realized-amplitude quartile bucket.

    Bucket edges are the min/25%/50%/75%/max quantiles of |delta|; the last
    bucket includes its upper edge. Empty buckets report ratio None.
    """
    amplitudes = np.asarray(amplitudes, dtype=float).ravel()
    correct = np.asarray(correct).ravel().astype(bool)
    if amplitudes.size != correct.size:
        raise ValueError("amplitudes and outcomes differ in length")
    if amplitudes.size == 0:
        raise ValueError("no anomalies to bucket")
    edges = np.quantile(amplitudes, [0.0, 0.25, 0.5, 0.75, 1.0])
    buckets = []
    for i in range(4):
        if i < 3:
            mask = (amplitudes >= edges[i]) & (amplitudes < edges[i + 1])
        else:
            mask = (amplitudes >= edges[i]) & (amplitudes <= edges[i + 1])
        count = int(mask.sum())
        ratio = float(correct[mask].mean()) if count else None
        buckets.append(AmplitudeBucket(low=float(edges[i]), high=float(edges[i + 1]),
                                       count=count, ratio=ratio))
    return buckets
