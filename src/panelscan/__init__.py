"""Anomaly detection for panels of financial time series.

The pipeline simulates correlated GBM price panels, extracts PCA
reconstruction-error features from sliding windows, scores each window with a
small feedforward network whose decision cut-off is learned jointly with the
weights, localizes the anomalous value inside flagged windows, imputes it, and
measures the downstream effect on parametric portfolio VaR.
"""

from . import density, detector, evaluation, io, pcafeat, riskmetrics, scorer, simgen, workflows
from .density import KdeModel, auc_above, auc_below, fit_kde, intersection_cutoff
from .detector import (
    DetectionModel,
    DetectionReport,
    ScoredRows,
    detect_iterative,
    impute,
    score_rows,
)
from .evaluation import (
    AdfResult,
    MetricsReport,
    adf_test,
    amplitude_sensitivity,
    classification_metrics,
    cutoff_robustness,
    localization_metrics,
    multirun,
    precision_recall_curve,
)
from .pcafeat import (
    FeatureMatrix,
    PcaModel,
    fit_pca,
    reconstruction_errors,
)
from .riskmetrics import (
    Portfolio,
    ReturnModel,
    VarEstimate,
    cov_error,
    estimate_params,
    imputation_error,
    log_returns,
    norm_quantile,
    portfolio_var,
    var_errors,
)
from .scorer import ScoringNetwork, TrainConfig, TrainResult, forward, loss, train
from .simgen import (
    ContaminationConfig,
    DiffusionConfig,
    LabeledPanel,
    PricePanel,
    build_labeled_panel,
    contaminate,
    select,
    simulate_gbm,
    slide,
)
from .workflows import (
    DatasetBundle,
    PipelineConfig,
    PipelineResult,
    build_datasets,
    fit_detector,
    imputation_experiment,
    reference_run,
    var_experiment,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
