"""Anomaly detection for panels of financial time series.

The pipeline simulates correlated GBM price panels, extracts PCA
reconstruction-error features from sliding windows, scores each window with a
small feedforward network whose decision cut-off is learned jointly with the
weights, localizes the anomalous value inside flagged windows, imputes it, and
measures the downstream effect on parametric portfolio VaR.
"""

# No module imports scipy at load time. Importing scipy.special takes about
# 0.25 s, more than the rest of the package, and simulating, windowing and
# scoring never call it; the functions that do import it where they run.
from . import density, detector, evaluation, io, pcafeat, riskmetrics, scorer, simgen, workflows

__version__ = "0.1.0"
