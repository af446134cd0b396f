"""The two-step detector: identify a contaminated window, then localize.

Identification thresholds the network score strictly at the learned cut-off.
Localization is the argmax of the absolute reconstruction error, which works
because a shock perturbs one observation while the PCA reconstruction stays
anchored to the window's ordinary shape. Iterating identify -> localize ->
impute removes several anomalies from one window.

detect_batch runs that loop on a whole batch of windows at once: every
iteration makes one PCA projection and one network pass over the rows that
are still flagged, and each row's reconstruction error serves both its score
and its location. Imputation and the per-row bookkeeping stay row by row.
detect_iterative is detect_batch on a single row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pcafeat, scorer

IMPUTATION_METHODS = ("BF", "LI", "PCA_RECON")


@dataclass
class DetectionModel:
    pca: pcafeat.PcaModel
    net: scorer.ScoringNetwork

    def __post_init__(self):
        if self.net.layer_dims[0] != self.pca.window_length:
            raise ValueError("network input dim does not match the PCA window length")


@dataclass
class DetectionReport:
    pred_label: int
    score: float
    locations: list           # 1-based window-relative indices, discovery order
    imputed_series: np.ndarray
    iterations_used: int
    repeated_location: bool = False


def identify(model: DetectionModel, X):
    """A_hat_i = 1 iff score(epsilon_i) > s, strict."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    epsilon = pcafeat.reconstruction_errors(model.pca, X).epsilon
    scores = scorer.forward(model.net, epsilon)
    return (np.atleast_1d(scores) > model.net.cutoff).astype(np.int64)


def scores(model: DetectionModel, X):
    """Network scores of raw windows (reconstruction errors computed inside)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    epsilon = pcafeat.reconstruction_errors(model.pca, X).epsilon
    return scorer.forward(model.net, epsilon)


def localize(pca: pcafeat.PcaModel, X_row):
    """1-based index of the largest |epsilon|; ties go to the smallest index."""
    row = np.asarray(X_row, dtype=float).ravel()
    epsilon = pcafeat.reconstruction_errors(pca, row).epsilon
    return int(np.argmax(np.abs(epsilon))) + 1


def impute(X_row, location, method, pca: pcafeat.PcaModel = None):
    """Replace the flagged value; everything else is untouched.

    BF fills with the previous value (index 1 falls forward); LI uses the
    neighbor midpoint (nearest neighbor at the boundary); PCA_RECON writes the
    model reconstruction at the location and needs the fitted model.
    """
    row = np.asarray(X_row, dtype=float).ravel().copy()
    p = row.size
    location = int(location)
    if not 1 <= location <= p:
        raise ValueError(f"location must lie in 1..{p}, got {location}")
    j = location - 1
    if method == "BF":
        row[j] = row[j + 1] if j == 0 else row[j - 1]
    elif method == "LI":
        if j == 0:
            row[j] = row[1]
        elif j == p - 1:
            row[j] = row[p - 2]
        else:
            row[j] = 0.5 * (row[j - 1] + row[j + 1])
    elif method == "PCA_RECON":
        if pca is None:
            raise ValueError("PCA_RECON imputation needs the fitted PcaModel")
        centered = row - pca.mean
        reconstructed = (centered @ pca.omega.T) @ pca.omega + pca.mean
        row[j] = reconstructed[j]
    else:
        raise ValueError(f"unknown imputation method {method!r}; pick one of {IMPUTATION_METHODS}")
    return row


def detect_batch(model: DetectionModel, X, method="BF", max_iter=5) -> list[DetectionReport]:
    """identify -> localize -> impute on every row until it stops identifying.

    Each iteration makes one reconstruction-error pass and one network pass
    over the rows still flagged; a row's epsilon serves both its score and
    its argmax location. The reported label and score are the first
    identification's; locations accumulate in discovery order. Re-flagging an
    already imputed index would loop, so it ends that row with the
    repeated_location flag set.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rows = np.array(np.atleast_2d(X), dtype=float)
    cutoff = model.net.cutoff
    epsilon = pcafeat.reconstruction_errors(model.pca, rows).epsilon
    first_scores = scorer.forward(model.net, epsilon).tolist()
    locations = [[] for _ in first_scores]
    repeated = [False] * len(first_scores)
    iterations = [0] * len(first_scores)
    scored = range(len(first_scores))  # rows whose epsilon and scores are current
    row_scores = first_scores
    while True:
        rescore = []
        for i, eps_row, score in zip(scored, epsilon, row_scores):
            if not score > cutoff:
                continue
            iterations[i] += 1
            location = int(np.abs(eps_row).argmax()) + 1
            if location in locations[i]:
                repeated[i] = True
                continue
            locations[i].append(location)
            rows[i] = impute(rows[i], location, method, pca=model.pca)
            if iterations[i] < max_iter:
                rescore.append(i)
        if not rescore:
            break
        scored = rescore
        epsilon = pcafeat.reconstruction_errors(model.pca, rows[scored]).epsilon
        row_scores = scorer.forward(model.net, epsilon).tolist()
    return [
        DetectionReport(
            pred_label=int(score > cutoff),
            score=score,
            locations=locations[i],
            imputed_series=rows[i].copy(),  # a view would pin the whole batch
            iterations_used=iterations[i],
            repeated_location=repeated[i],
        )
        for i, score in enumerate(first_scores)
    ]


def detect_iterative(model: DetectionModel, X_row, method="BF", max_iter=5) -> DetectionReport:
    """detect_batch on one window row."""
    return detect_batch(model, np.ravel(X_row)[None, :], method=method, max_iter=max_iter)[0]
