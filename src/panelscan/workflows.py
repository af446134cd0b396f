"""Experiment assembly on top of the core modules.

One PipelineConfig describes a full study: simulate a correlated GBM panel,
split it into train/test halves, contaminate each half, window and select the
rows, fit the PCA features plus the scoring network, and evaluate. The module
also hosts the Monte-Carlo studies that reuse a calibrated detector: portfolio
VaR before/after anomaly imputation, imputation/covariance error comparisons,
and the stationarity sweep over reconstruction-error rows.

Every derived random stream comes from the one master seed through
derive_seed, so a single integer reproduces an entire study.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import density, detector, evaluation, pcafeat, riskmetrics, scorer, simgen

DEFAULT_VAR_ALPHA = 0.99  # VaR confidence level
DEFAULT_H_STEPS = 1  # return horizon in steps
_MIN_VOTES = 2  # covering windows that must agree before detect_panel flags a stamp

# Stable role tags for sub-stream derivation; values are arbitrary but frozen.
_ROLES = {
    "contaminate_train": 11,
    "contaminate_test": 12,
    "select_train": 13,
    "select_test": 14,
    "train_net": 15,
    "var_paths": 21,
    "var_contaminate": 22,
    "imputation_paths": 31,
    "imputation_contaminate": 32,
}


def derive_seed(seed, *tags):
    """Deterministic sub-seed for a named role (plus optional run indices)."""
    entropy = [int(seed)]
    for tag in tags:
        entropy.append(_ROLES[tag] if isinstance(tag, str) else int(tag))
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass
class PipelineConfig:
    """Desk-scale defaults: 20 stocks, 1500 daily steps, windows of 206."""

    n_stocks: int = 20
    n_steps: int = 1500
    split_index: int = 1000
    window_length: int = 206
    train_anoms: int = 4
    test_anoms: int = 2
    rho: float = 0.04
    r_c: float = 0.16
    correlation: float = 0.5
    latent_dim: int = pcafeat.DEFAULT_LATENT_DIM
    train: scorer.TrainConfig = None  # None: defaults with a seed derived below
    seed: int = 0


@dataclass
class DatasetBundle:
    config: PipelineConfig
    clean_train: simgen.PricePanel
    clean_test: simgen.PricePanel
    contaminated_train: simgen.PricePanel
    contaminated_test: simgen.PricePanel
    train_value_labels: np.ndarray
    test_value_labels: np.ndarray
    train: simgen.LabeledPanel = None  # None until the halves are windowed
    test: simgen.LabeledPanel = None


@dataclass
class PipelineResult:
    config: PipelineConfig
    data: DatasetBundle
    model: detector.DetectionModel
    training: scorer.TrainResult
    summary: dict
    test_scored: detector.ScoredRows = None  # the test split's record behind summary


def build_panels(cfg: PipelineConfig = None) -> DatasetBundle:
    """Simulate one panel, split it, and contaminate each half; no windows yet."""
    cfg = cfg if cfg is not None else PipelineConfig()
    diffusion = simgen.DiffusionConfig(
        n_stocks=cfg.n_stocks, n_steps=cfg.n_steps,
        correlation=cfg.correlation, seed=cfg.seed,
    )
    panel = simgen.simulate_gbm(diffusion)
    clean_train, clean_test = simgen.split_train_test(panel, cfg.split_index)
    contaminated_train, y_train = simgen.contaminate(clean_train, simgen.ContaminationConfig(
        n_anom=cfg.train_anoms, rho=cfg.rho, seed=derive_seed(cfg.seed, "contaminate_train")))
    contaminated_test, y_test = simgen.contaminate(clean_test, simgen.ContaminationConfig(
        n_anom=cfg.test_anoms, rho=cfg.rho, seed=derive_seed(cfg.seed, "contaminate_test")))
    return DatasetBundle(
        config=cfg, clean_train=clean_train, clean_test=clean_test,
        contaminated_train=contaminated_train, contaminated_test=contaminated_test,
        train_value_labels=y_train, test_value_labels=y_test,
    )


def build_datasets(cfg: PipelineConfig = None) -> DatasetBundle:
    """Simulate, split, contaminate, window and select one reproducible study."""
    cfg = cfg if cfg is not None else PipelineConfig()
    panels = build_panels(cfg)
    return replace(
        panels,
        train=labeled_windows(panels.contaminated_train, panels.train_value_labels, "train",
                              cfg.window_length, cfg.r_c, cfg.seed),
        test=labeled_windows(panels.contaminated_test, panels.test_value_labels, "test",
                             cfg.window_length, cfg.r_c, cfg.seed),
    )


def labeled_windows(prices, value_labels, mode, window_length, r_c, seed):
    """Window one contaminated part and select its labeled rows ("train" or "test" mode)."""
    return simgen.build_labeled_panel(prices, value_labels, window_length, mode, r_c=r_c,
                                      seed=derive_seed(seed, f"select_{mode}"))


def fit_model(windows, A, latent_dim, train_cfg: scorer.TrainConfig):
    """PCA features + scoring network on labeled train windows."""
    pca = pcafeat.fit_pca(windows, latent_dim)
    epsilon = pcafeat.reconstruction_errors(pca, windows).epsilon
    result = scorer.train(epsilon, A, train_cfg)
    return detector.DetectionModel(pca=pca, net=result.network), result


def fit_detector(bundle: DatasetBundle):
    """fit_model on the bundle's train rows; by default trains with a derived seed."""
    cfg = bundle.config
    train_cfg = cfg.train
    if train_cfg is None:
        train_cfg = scorer.TrainConfig(seed=derive_seed(cfg.seed, "train_net"))
    return fit_model(bundle.train.windows, bundle.train.ident_labels, cfg.latent_dim, train_cfg)


def dummy_localize(windows):
    """Baseline location guess: 1-based argmax of the raw observations."""
    return np.argmax(windows, axis=1) + 1


def non_extreme_mask(panel: simgen.LabeledPanel):
    """Contaminated rows whose anomaly is not the raw-argmax of the window."""
    hot = panel.ident_labels == 1
    return hot & (panel.loc_labels != dummy_localize(panel.windows))


def _class_aucs(scores_by_row, A, cutoff):
    f_u = density.fit_kde(scores_by_row[A == 0])
    f_c = density.fit_kde(scores_by_row[A == 1])
    return float(density.auc_above(f_u, cutoff)), float(density.auc_below(f_c, cutoff))


def split_metrics(scored: detector.ScoredRows, windows, A, L) -> dict:
    """Identification and localization metrics of one scored window set.

    Localization is judged on every truly contaminated row, independently of
    whether step 1 flagged it; the dummy figure is the raw-argmax baseline.
    A set without contaminated rows gets identification only.
    """
    out = {"ident": evaluation.classification_metrics(A, scored.flags)}
    hot = A == 1
    if hot.any():
        out["loc"] = evaluation.localization_metrics(L[hot], scored.locations[hot])
        out["dummy_loc_accuracy"] = float(np.mean(dummy_localize(windows)[hot] == L[hot]))
    return out


def evaluate_run(model: detector.DetectionModel, bundle: DatasetBundle) -> dict:
    """split_metrics on both splits plus the density AUC comparison."""
    return _evaluate(model, bundle)[0]


def _evaluate(model, bundle):
    """evaluate_run's summary and the test split's ScoredRows it was computed from."""
    out = {}
    for split, panel in (("train", bundle.train), ("test", bundle.test)):
        scored = detector.score_rows(model, panel.windows)
        metrics = split_metrics(scored, panel.windows, panel.ident_labels, panel.loc_labels)
        out.update({f"{name}_{split}": value for name, value in metrics.items()})
        if split == "train":
            out["nn_auc_u"], out["nn_auc_c"] = _class_aucs(
                scored.scores, panel.ident_labels, model.net.cutoff)
            raw = scorer.naive_scores(scored.epsilon)
            naive_cut = scorer.naive_fit(scored.epsilon, panel.ident_labels)
            out["naive_auc_u"], out["naive_auc_c"] = _class_aucs(
                raw, panel.ident_labels, naive_cut)
            out["naive_cutoff"] = naive_cut
        else:
            ne = non_extreme_mask(panel)
            out["n_non_extreme"] = int(ne.sum())
            out["non_extreme_accuracy"] = float(
                np.mean(scored.locations[ne] == panel.loc_labels[ne]))
    out["cutoff"] = float(model.net.cutoff)
    return out, scored  # the test split is scored last


def reference_run(cfg: PipelineConfig = None) -> PipelineResult:
    """Full calibrate-and-evaluate pass for one seed."""
    cfg = cfg if cfg is not None else PipelineConfig()
    bundle = build_datasets(cfg)
    model, training = fit_detector(bundle)
    summary, test_scored = _evaluate(model, bundle)
    summary["final_loss"] = training.best_loss
    summary["temperature"] = float(model.net.temperature)
    return PipelineResult(config=cfg, data=bundle, model=model, training=training,
                          summary=summary, test_scored=test_scored)


def amplitude_records(result: PipelineResult):
    """Injected shock amplitude and per-row correctness on contaminated test rows.

    result comes from reference_run, which keeps the test split's record.
    Amplitude is |contaminated/clean - 1| at the anomaly's absolute stamp,
    recovered through the row's (stock, offset) provenance.
    """
    bundle, scored = result.data, result.test_scored
    panel = bundle.test
    hot = panel.ident_labels == 1
    stocks = panel.provenance[hot, 0]
    stamps = panel.provenance[hot, 1] + panel.loc_labels[hot] - 1
    shocks = bundle.contaminated_test.prices / bundle.clean_test.prices - 1.0
    amplitudes = np.abs(shocks[stocks, stamps])
    ident_correct = scored.flags[hot]
    loc_correct = scored.locations[hot] == panel.loc_labels[hot]
    return amplitudes, ident_correct, loc_correct


def adf_study(epsilon):
    """ADF on every reconstruction-error row; returns (p_values, rejection rate).

    Every row uses the Schwert lag order. All rows go through evaluation's
    stacked ADF kernel, so each p-value is bit for bit the one adf_test gives
    on that row alone.
    """
    study = evaluation._adf_batch(epsilon)
    return study.p_values, float(np.mean(study.statistics < study.critical_5pct))


def _cover_offsets(n_steps, p):
    # Offsets p // 2 apart (at least 1); the last window is end-aligned.
    offsets = list(range(0, n_steps - p + 1, max(1, p // 2)))
    if offsets[-1] != n_steps - p:
        offsets.append(n_steps - p)
    return offsets


def detect_panel(model: detector.DetectionModel, prices, method=detector.DEFAULT_METHOD):
    """Flag absolute anomaly stamps by consensus over overlapping windows.

    Windows advance by p // 2 (at least 1), giving interior stamps two looks;
    every window of every series goes through one detect_batch call at the
    default max_iter, and each window votes for the stamps it localizes. A
    stamp is flagged once two covering windows agree, or once every window
    covering it does where fewer than two cover it; a single window's noise
    argmax rarely repeats across different window boundaries, so consensus
    suppresses the false stamps any one window would contribute.
    """
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    n_stocks, n_steps = prices.shape
    p = model.pca.window_length
    if p > n_steps:
        raise ValueError(f"series length {n_steps} is shorter than the window {p}")
    offsets = _cover_offsets(n_steps, p)
    coverage = np.zeros(n_steps, dtype=np.int64)
    for off in offsets:
        coverage[off:off + p] += 1
    required = np.minimum(_MIN_VOTES, coverage)
    windows = np.lib.stride_tricks.sliding_window_view(prices, p, axis=1)[:, offsets]
    reports = detector.detect_batch(model, windows.reshape(-1, p), method=method)
    votes = np.zeros((n_stocks, n_steps), dtype=np.int64)
    for k, report in enumerate(reports):
        i, j = divmod(k, len(offsets))
        for loc in report.locations:
            votes[i, offsets[j] + loc - 1] += 1
    return (votes >= required[None, :]).astype(np.int64)


def impute_panel(prices, stamp_labels, method=detector.DEFAULT_METHOD,
                 pca: pcafeat.PcaModel = None):
    """Impute flagged stamps series-wise, ascending in time.

    BF and LI read neighbors from the progressively imputed series (the next
    value stays as observed); PCA_RECON rebuilds each stamp from the window of
    observed values centered on it, clipped to the series bounds.
    """
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    stamp_labels = np.atleast_2d(np.asarray(stamp_labels))
    if stamp_labels.shape != prices.shape:
        raise ValueError("stamp labels shape does not match prices shape")
    if method not in detector.IMPUTATION_METHODS:
        raise ValueError(f"unknown imputation method {method!r}; pick one of {detector.IMPUTATION_METHODS}")
    if method == "PCA_RECON" and pca is None:
        raise ValueError("PCA_RECON imputation needs the fitted PcaModel")
    out = prices.copy()
    n_steps = prices.shape[1]
    for i in range(prices.shape[0]):
        for t in np.flatnonzero(stamp_labels[i]):
            if method == "PCA_RECON":
                p = pca.window_length
                off = min(max(t - (p - 1) // 2, 0), n_steps - p)
                window = prices[i, off:off + p]
                out[i, t] = detector.impute(window, t - off + 1, method, pca=pca)[t - off]
            else:
                out[i] = detector.impute(out[i], t + 1, method)
    return out


def _fresh_panel(result: PipelineResult, study, run_index, n_anom):
    """A new clean panel with the calibrated parameters, and its contamination."""
    cfg = result.config
    base = result.data.clean_train
    clean = simgen.simulate_paths(
        base.s0, base.mu, base.sigma, cfg.correlation, base.dt, cfg.n_steps,
        seed=derive_seed(cfg.seed, f"{study}_paths", run_index))
    contaminated, truth = simgen.contaminate(clean, simgen.ContaminationConfig(
        n_anom=n_anom, rho=cfg.rho,
        seed=derive_seed(cfg.seed, f"{study}_contaminate", run_index)))
    return clean, contaminated, truth


def var_estimates(clean, contaminated, truth, pred, mu, sigma, correlation, dt, h_steps,
                  portfolio: riskmetrics.Portfolio, alpha, pca: pcafeat.PcaModel,
                  method=detector.DEFAULT_METHOD):
    """The five portfolio VaR estimates and each variant's error against theo.

    theo comes from the generating (mu, sigma, correlation, dt); the other
    four are fitted to the clean prices, the contaminated prices, and the
    contaminated prices imputed (PCA_RECON with pca) at the true and at the
    predicted stamps. Returns (estimates, errors): tag -> VaR and
    tag -> (absolute, relative) for every tag but theo.
    """
    variants = {
        "clean": clean,
        "anom": contaminated,
        "loc_true": impute_panel(contaminated, truth, method=method, pca=pca),
        "loc_pred": impute_panel(contaminated, pred, method=method, pca=pca),
    }
    theo_model = riskmetrics.theoretical_return_model(mu, sigma, correlation, dt, h_steps)
    estimates = {"theo": riskmetrics.portfolio_var(theo_model, portfolio, alpha)}
    for tag, prices in variants.items():
        fitted = riskmetrics.estimate_params(riskmetrics.log_returns(prices, h_steps))
        estimates[tag] = riskmetrics.portfolio_var(fitted, portfolio, alpha)
    errors = {tag: riskmetrics.var_errors(estimates["theo"], estimates[tag]) for tag in variants}
    return estimates, errors


def var_run(result: PipelineResult, run_index, n_anom=4) -> dict:
    """One VaR comparison run on a fresh panel with the calibrated parameters.

    Diffuses new paths with the same per-stock (s0, mu, sigma) the detector was
    calibrated against, contaminates them, detects/imputes with the default
    method, and prices the equal-weight portfolio's VaR at DEFAULT_VAR_ALPHA
    over DEFAULT_H_STEPS from each series variant.
    """
    cfg = result.config
    base = result.data.clean_train
    clean, contaminated, truth = _fresh_panel(result, "var", run_index, n_anom)
    pred = detect_panel(result.model, contaminated.prices)
    portfolio = riskmetrics.Portfolio(weights=np.full(cfg.n_stocks, 1.0 / cfg.n_stocks))
    estimates, errors = var_estimates(
        clean.prices, contaminated.prices, truth, pred, base.mu, base.sigma,
        cfg.correlation, base.dt, DEFAULT_H_STEPS, portfolio, DEFAULT_VAR_ALPHA, result.model.pca)
    out = {f"var_{tag}": value for tag, value in estimates.items()}
    for tag, (absolute, relative) in errors.items():
        out[f"abs_err_{tag}"] = absolute
        out[f"rel_err_{tag}"] = relative
    hits = int(np.sum((pred == 1) & (truth == 1)))
    out["n_true"] = int(truth.sum())
    out["n_pred"] = int(pred.sum())
    out["stamp_recall"] = hits / out["n_true"] if out["n_true"] else 0.0
    return out


def var_experiment(result: PipelineResult, n_anom=4, n_runs=50) -> evaluation.MultirunResult:
    """Mean/std of the five VaR figures and their errors over fresh panels."""
    return evaluation.multirun(partial(var_run, result, n_anom=n_anom), seeds=range(n_runs))


def imputation_run(result: PipelineResult, run_index, n_anom=4) -> dict:
    """One imputation-quality run: impute at the true stamps, compare errors.

    Judges the imputation values themselves, so the true anomaly locations are
    used; covariance errors of DEFAULT_H_STEPS returns are taken against the
    generating return covariance.
    """
    cfg = result.config
    base = result.data.clean_train
    clean, contaminated, truth = _fresh_panel(result, "imputation", run_index, n_anom)
    variants = {"clean": clean.prices, "anom": contaminated.prices}
    for method in detector.IMPUTATION_METHODS:
        variants[method] = impute_panel(contaminated.prices, truth, method=method,
                                        pca=result.model.pca)
    sigma_ref = riskmetrics.theoretical_return_model(
        base.mu, base.sigma, cfg.correlation, base.dt, DEFAULT_H_STEPS).sigma
    out = {}
    for tag, prices in variants.items():
        fitted = riskmetrics.estimate_params(riskmetrics.log_returns(prices, DEFAULT_H_STEPS))
        out[f"cov_err_{tag}"] = riskmetrics.cov_error(sigma_ref, fitted.sigma)
    for tag in ("anom",) + detector.IMPUTATION_METHODS:
        per_series = [riskmetrics.imputation_error(clean.prices[i], variants[tag][i], n_anom)
                      for i in range(cfg.n_stocks)]
        out[f"imp_err_{tag}"] = float(np.mean(per_series))
    return out


def imputation_experiment(result: PipelineResult, n_anom=4,
                          n_runs=100) -> evaluation.MultirunResult:
    """Mean/std imputation and covariance errors over fresh contaminated panels."""
    return evaluation.multirun(partial(imputation_run, result, n_anom=n_anom),
                               seeds=range(n_runs))
