"""Anomaly detection for panels of financial time series.

The pipeline simulates correlated GBM price panels, extracts PCA
reconstruction-error features from sliding windows, scores each window with a
small feedforward network whose decision cut-off is learned jointly with the
weights, localizes the anomalous value inside flagged windows, imputes it, and
measures the downstream effect on parametric portfolio VaR.
"""

from . import density, detector, evaluation, io, pcafeat, riskmetrics, scorer, simgen, workflows

__version__ = "0.1.0"
