"""The two-step detector: identify a contaminated window, then localize.

Identification thresholds the network score strictly at the learned cut-off.
Localization is the argmax of the absolute reconstruction error, which works
because a shock perturbs one observation while the PCA reconstruction stays
anchored to the window's ordinary shape. Iterating identify -> localize ->
impute removes several anomalies from one window.

score_rows is that rule on a batch of rows: one PCA projection and one
network pass give each row's reconstruction error, score, flag and location.
detect_batch runs the loop on a whole batch of windows at once, with one
score_rows pass per iteration over the rows that are still flagged.
Imputation and the per-row bookkeeping stay row by row.

detect_iterative runs the same loop on one window as a vector, with no batch
around it: reconstruction_errors and forward take the 1-D row directly. Its
report is bit for bit detect_batch's on the one-row batch. The same row inside
a larger batch agrees only to round-off, because BLAS sums a batch (gemm) in
another order than one row (gemv), so a score within a few ulp of the cut-off
can flag on one side and not the other.

A report derives its iteration count: each round records a new location or,
at most once, ends on a repeated one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import pcafeat, scorer

IMPUTATION_METHODS = ("BF", "LI", "PCA_RECON")
DEFAULT_METHOD = "BF"
DEFAULT_MAX_ITER = 5  # identify -> localize -> impute rounds per row


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
    repeated_location: bool = False

    @property
    def iterations_used(self) -> int:  # one round per location, plus one ending on a repeat
        return len(self.locations) + self.repeated_location


@dataclass
class ScoredRows:
    """One scoring pass over window rows: the detector's whole decision rule."""

    epsilon: np.ndarray    # n x p PCA reconstruction errors
    scores: np.ndarray     # network score per row
    flags: np.ndarray      # True where the score is strictly above the cut-off
    locations: np.ndarray  # 1-based argmax |epsilon|; ties go to the smallest index


def score_rows(model: DetectionModel, X) -> ScoredRows:
    """Identify and localize every row: A_hat = 1 iff score(epsilon) > s, strict."""
    epsilon = pcafeat.reconstruction_errors(model.pca, X).epsilon
    scores = scorer.forward(model.net, epsilon)
    return ScoredRows(epsilon=epsilon, scores=scores, flags=scores > model.net.cutoff,
                      locations=np.abs(epsilon).argmax(axis=1) + 1)


def impute(X_row, location, method, pca: pcafeat.PcaModel = None):
    """Replace the flagged value; everything else is untouched.

    BF fills with the previous value (index 1 falls forward); LI uses the
    neighbor midpoint (nearest neighbor at the boundary); PCA_RECON writes the
    model reconstruction at the location and needs the fitted model.
    """
    row = np.asarray(X_row, dtype=float).ravel().copy()
    p = row.size
    try:
        location = operator.index(location)
    except TypeError:
        raise ValueError(f"location must be an integer, got {location!r}") from None
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


def detect_batch(model: DetectionModel, X, method=DEFAULT_METHOD,
                 max_iter=DEFAULT_MAX_ITER) -> list[DetectionReport]:
    """identify -> localize -> impute on every row until it stops identifying.

    Each iteration makes one score_rows pass over the rows still flagged, so
    a row's epsilon serves both its score and its location. The reported
    label and score are the first identification's; locations accumulate in
    discovery order. Re-flagging an already imputed index would loop, so it
    ends that row with the repeated_location flag set.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rows = np.array(X, dtype=float)
    first = score_rows(model, rows)
    n_rows = len(first.scores)
    locations = [[] for _ in range(n_rows)]
    repeated = [False] * n_rows
    scored, current = range(n_rows), first  # rows whose record is current
    while True:
        rescore = []
        for i, flagged, location in zip(scored, current.flags.tolist(),
                                        current.locations.tolist()):
            if not flagged:
                continue
            if location in locations[i]:
                repeated[i] = True
                continue
            locations[i].append(location)
            rows[i] = impute(rows[i], location, method, pca=model.pca)
            if len(locations[i]) < max_iter:
                rescore.append(i)
        if not rescore:
            break
        scored = rescore
        current = score_rows(model, rows[scored])
    return [
        DetectionReport(
            pred_label=int(flagged),
            score=score,
            locations=locations[i],
            imputed_series=rows[i].copy(),  # a view would pin the whole batch
            repeated_location=repeated[i],
        )
        for i, (flagged, score) in enumerate(zip(first.flags.tolist(), first.scores.tolist()))
    ]


def detect_iterative(model: DetectionModel, X_row, method=DEFAULT_METHOD,
                     max_iter=DEFAULT_MAX_ITER) -> DetectionReport:
    """detect_batch's loop on one window row, scored as a vector.

    Same rules: the strict cut-off, argmax |epsilon| with ties to the smallest
    index, the repeated-location stop and max_iter. The report owns its row.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    row = np.array(np.ravel(X_row), dtype=float)
    cutoff = model.net.cutoff
    epsilon = pcafeat.reconstruction_errors(model.pca, row).epsilon
    first = score = scorer.forward(model.net, epsilon)
    locations, repeated = [], False
    while score > cutoff:
        location = int(np.abs(epsilon).argmax()) + 1
        if location in locations:
            repeated = True
            break
        locations.append(location)
        row = impute(row, location, method, pca=model.pca)
        if len(locations) == max_iter:
            break
        epsilon = pcafeat.reconstruction_errors(model.pca, row).epsilon
        score = scorer.forward(model.net, epsilon)
    return DetectionReport(pred_label=int(first > cutoff), score=first, locations=locations,
                           imputed_series=row, repeated_location=repeated)
