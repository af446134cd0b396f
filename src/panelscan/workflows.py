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

import numpy as np

from . import density, detector, evaluation, pcafeat, riskmetrics, scorer, simgen

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
    correlation: object = 0.5
    latent_dim: int = pcafeat.DEFAULT_LATENT_DIM
    train: scorer.TrainConfig = None  # None: defaults with a seed derived below
    seed: int = 0


@dataclass
class PanelSet:
    clean_train: simgen.PricePanel
    clean_test: simgen.PricePanel
    contaminated_train: simgen.PricePanel
    contaminated_test: simgen.PricePanel
    train_value_labels: np.ndarray
    test_value_labels: np.ndarray


@dataclass
class DatasetBundle:
    config: PipelineConfig
    clean_train: simgen.PricePanel
    clean_test: simgen.PricePanel
    contaminated_train: simgen.PricePanel
    contaminated_test: simgen.PricePanel
    train_value_labels: np.ndarray
    test_value_labels: np.ndarray
    train: simgen.LabeledPanel
    test: simgen.LabeledPanel


@dataclass
class PipelineResult:
    config: PipelineConfig
    data: DatasetBundle
    model: detector.DetectionModel
    training: scorer.TrainResult
    summary: dict


def build_panels(cfg: PipelineConfig = None) -> PanelSet:
    """Simulate one panel, split it, and contaminate each half."""
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
    return PanelSet(
        clean_train=clean_train, clean_test=clean_test,
        contaminated_train=contaminated_train, contaminated_test=contaminated_test,
        train_value_labels=y_train, test_value_labels=y_test,
    )


def build_datasets(cfg: PipelineConfig = None) -> DatasetBundle:
    """Simulate, split, contaminate, window and select one reproducible study."""
    cfg = cfg if cfg is not None else PipelineConfig()
    panels = build_panels(cfg)
    X_tr, sY_tr, prov_tr = simgen.slide(panels.contaminated_train,
                                        panels.train_value_labels, cfg.window_length)
    X_te, sY_te, prov_te = simgen.slide(panels.contaminated_test,
                                        panels.test_value_labels, cfg.window_length)
    train = simgen.build_labeled_panel(X_tr, sY_tr, prov_tr, "train", r_c=cfg.r_c,
                                       seed=derive_seed(cfg.seed, "select_train"))
    test = simgen.build_labeled_panel(X_te, sY_te, prov_te, "test", r_c=cfg.r_c,
                                      seed=derive_seed(cfg.seed, "select_test"))
    return DatasetBundle(
        config=cfg,
        clean_train=panels.clean_train, clean_test=panels.clean_test,
        contaminated_train=panels.contaminated_train,
        contaminated_test=panels.contaminated_test,
        train_value_labels=panels.train_value_labels,
        test_value_labels=panels.test_value_labels,
        train=train, test=test,
    )


def fit_detector(bundle: DatasetBundle, train_cfg: scorer.TrainConfig = None):
    """PCA features + scoring network on the bundle's train rows."""
    cfg = bundle.config
    pca = pcafeat.fit_pca(bundle.train.windows, cfg.latent_dim)
    eps_train = pcafeat.reconstruction_errors(pca, bundle.train.windows).epsilon
    if train_cfg is None:
        train_cfg = cfg.train
    if train_cfg is None:
        train_cfg = scorer.TrainConfig(seed=derive_seed(cfg.seed, "train_net"))
    result = scorer.train(eps_train, bundle.train.ident_labels, train_cfg)
    return detector.DetectionModel(pca=pca, net=result.network), result


def dummy_localize(windows):
    """Baseline location guess: 1-based argmax of the raw observations."""
    return np.argmax(np.atleast_2d(windows), axis=1) + 1


def non_extreme_mask(panel: simgen.LabeledPanel):
    """Contaminated rows whose anomaly is not the raw-argmax of the window."""
    hot = panel.ident_labels == 1
    return hot & (panel.loc_labels != dummy_localize(panel.windows))


def _class_aucs(scores_by_row, A, cutoff):
    f_u = density.fit_kde(scores_by_row[A == 0])
    f_c = density.fit_kde(scores_by_row[A == 1])
    return float(density.auc_above(f_u, cutoff)), float(density.auc_below(f_c, cutoff))


def evaluate_run(model: detector.DetectionModel, bundle: DatasetBundle) -> dict:
    """Identification/localization metrics plus the density AUC comparison.

    Localization is judged on every truly contaminated row, independently of
    whether step 1 flagged it; dummy numbers use the raw-argmax baseline.
    """
    out = {}
    for split, panel in (("train", bundle.train), ("test", bundle.test)):
        eps = pcafeat.reconstruction_errors(model.pca, panel.windows).epsilon
        net_scores = scorer.forward(model.net, eps)
        pred_A = (net_scores > model.net.cutoff).astype(np.int64)
        pred_L = np.argmax(np.abs(eps), axis=1) + 1
        hot = panel.ident_labels == 1
        out[f"ident_{split}"] = evaluation.classification_metrics(panel.ident_labels, pred_A)
        out[f"loc_{split}"] = evaluation.localization_metrics(panel.loc_labels[hot], pred_L[hot])
        dummy = dummy_localize(panel.windows)
        out[f"dummy_loc_accuracy_{split}"] = float(np.mean(dummy[hot] == panel.loc_labels[hot]))
        if split == "train":
            out["nn_auc_u"], out["nn_auc_c"] = _class_aucs(
                net_scores, panel.ident_labels, model.net.cutoff)
            raw = scorer.naive_scores(eps)
            naive_cut = scorer.naive_fit(eps, panel.ident_labels)
            out["naive_auc_u"], out["naive_auc_c"] = _class_aucs(
                raw, panel.ident_labels, naive_cut)
            out["naive_cutoff"] = naive_cut
        else:
            ne = non_extreme_mask(panel)
            out["n_non_extreme"] = int(ne.sum())
            out["non_extreme_accuracy"] = float(np.mean(pred_L[ne] == panel.loc_labels[ne]))
            out["dummy_non_extreme_accuracy"] = float(np.mean(dummy[ne] == panel.loc_labels[ne]))
    out["cutoff"] = float(model.net.cutoff)
    return out


def reference_run(cfg: PipelineConfig = None) -> PipelineResult:
    """Full calibrate-and-evaluate pass for one seed."""
    cfg = cfg if cfg is not None else PipelineConfig()
    bundle = build_datasets(cfg)
    model, training = fit_detector(bundle)
    summary = evaluate_run(model, bundle)
    summary["final_loss"] = training.best_loss
    summary["temperature"] = float(model.net.temperature)
    return PipelineResult(config=cfg, data=bundle, model=model,
                          training=training, summary=summary)


def run_experiment(seed, base: PipelineConfig = None) -> dict:
    """multirun-compatible wrapper: one seed in, one flat summary out."""
    cfg = replace(base if base is not None else PipelineConfig(), seed=int(seed), train=None)
    return reference_run(cfg).summary


def amplitude_records(model: detector.DetectionModel, bundle: DatasetBundle):
    """Injected shock amplitude and per-row correctness on contaminated test rows.

    Amplitude is |contaminated/clean - 1| at the anomaly's absolute stamp,
    recovered through the row's (stock, offset) provenance.
    """
    panel = bundle.test
    hot = panel.ident_labels == 1
    stocks = panel.provenance[hot, 0]
    stamps = panel.provenance[hot, 1] + panel.loc_labels[hot] - 1
    shocks = bundle.contaminated_test.prices / bundle.clean_test.prices - 1.0
    amplitudes = np.abs(shocks[stocks, stamps])
    eps = pcafeat.reconstruction_errors(model.pca, panel.windows).epsilon
    pred_A = (scorer.forward(model.net, eps) > model.net.cutoff).astype(np.int64)
    pred_L = np.argmax(np.abs(eps), axis=1) + 1
    ident_correct = pred_A[hot] == 1
    loc_correct = pred_L[hot] == panel.loc_labels[hot]
    return amplitudes, ident_correct, loc_correct


def adf_study(epsilon, lag_order=None):
    """ADF on every reconstruction-error row; returns (p_values, rejection rate).

    All rows go through evaluation's stacked ADF kernel, so each p-value is
    bit for bit the one adf_test gives on that row alone.
    """
    study = evaluation._adf_batch(epsilon, lag_order)
    return study.p_values, float(np.mean(study.statistics < study.critical_5pct))


def _cover_offsets(n_steps, p, stride):
    # Stride-spaced covering; the last window is end-aligned.
    offsets = list(range(0, n_steps - p + 1, stride))
    if offsets[-1] != n_steps - p:
        offsets.append(n_steps - p)
    return offsets


def detect_panel(model: detector.DetectionModel, prices, method="BF", max_iter=5,
                 stride=None, min_votes=2):
    """Flag absolute anomaly stamps by consensus over overlapping windows.

    Windows advance by stride (default p // 2, giving interior stamps two
    looks); every window of every series goes through one detect_batch call,
    and each window votes for the stamps it localizes. A stamp is flagged
    once min_votes covering windows agree, capped by how many windows
    actually cover it; a single window's noise argmax rarely repeats across
    different window boundaries, so consensus suppresses the false stamps any
    one window would contribute.
    """
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    n_stocks, n_steps = prices.shape
    p = model.pca.window_length
    if p > n_steps:
        raise ValueError(f"series length {n_steps} is shorter than the window {p}")
    stride = max(1, p // 2) if stride is None else int(stride)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if min_votes < 1:
        raise ValueError("min_votes must be >= 1")
    offsets = _cover_offsets(n_steps, p, stride)
    coverage = np.zeros(n_steps, dtype=np.int64)
    for off in offsets:
        coverage[off:off + p] += 1
    required = np.minimum(min_votes, coverage)
    windows = np.lib.stride_tricks.sliding_window_view(prices, p, axis=1)[:, offsets]
    reports = detector.detect_batch(model, windows.reshape(-1, p),
                                    method=method, max_iter=max_iter)
    votes = np.zeros((n_stocks, n_steps), dtype=np.int64)
    for k, report in enumerate(reports):
        i, j = divmod(k, len(offsets))
        for loc in report.locations:
            votes[i, offsets[j] + loc - 1] += 1
    return (votes >= required[None, :]).astype(np.int64)


def impute_panel(prices, stamp_labels, method="BF", pca: pcafeat.PcaModel = None):
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
            if method == "BF":
                out[i, t] = out[i, t + 1] if t == 0 else out[i, t - 1]
            elif method == "LI":
                if t == 0:
                    out[i, t] = out[i, 1]
                elif t == n_steps - 1:
                    out[i, t] = out[i, t - 1]
                else:
                    out[i, t] = 0.5 * (out[i, t - 1] + out[i, t + 1])
            else:
                p = pca.window_length
                off = min(max(t - (p - 1) // 2, 0), n_steps - p)
                window = prices[i, off:off + p]
                out[i, t] = detector.impute(window, t - off + 1, "PCA_RECON", pca=pca)[t - off]
    return out


def _default_portfolio(n_stocks):
    return riskmetrics.Portfolio(weights=np.full(n_stocks, 1.0 / n_stocks))


def var_run(result: PipelineResult, run_index, n_anom=4, alpha=0.99, h_steps=1,
            weights=None, method="BF") -> dict:
    """One VaR comparison run on a fresh panel with the calibrated parameters.

    Diffuses new paths with the same per-stock (s0, mu, sigma) the detector was
    calibrated against, contaminates them, detects/imputes, and prices the
    portfolio VaR from each series variant.
    """
    cfg = result.config
    base = result.data.clean_train
    clean = simgen.simulate_paths(
        base.s0, base.mu, base.sigma, cfg.correlation, base.dt, cfg.n_steps,
        seed=derive_seed(cfg.seed, "var_paths", run_index))
    contaminated, truth = simgen.contaminate(clean, simgen.ContaminationConfig(
        n_anom=n_anom, rho=cfg.rho,
        seed=derive_seed(cfg.seed, "var_contaminate", run_index)))
    pred = detect_panel(result.model, contaminated.prices, method=method)
    variants = {
        "clean": clean.prices,
        "anom": contaminated.prices,
        "loc_true": impute_panel(contaminated.prices, truth, method=method),
        "loc_pred": impute_panel(contaminated.prices, pred, method=method),
    }
    portfolio = riskmetrics.Portfolio(weights=np.asarray(weights, dtype=float)) \
        if weights is not None else _default_portfolio(cfg.n_stocks)
    theo_model = riskmetrics.theoretical_return_model(
        base.mu, base.sigma, cfg.correlation, base.dt, h_steps)
    estimates = {"theo": riskmetrics.portfolio_var(theo_model, portfolio, alpha, source="theo")}
    for tag, prices in variants.items():
        fitted = riskmetrics.estimate_params(riskmetrics.log_returns(prices, h_steps), h_steps)
        estimates[tag] = riskmetrics.portfolio_var(fitted, portfolio, alpha, source=tag)
    out = {f"var_{tag}": est.value for tag, est in estimates.items()}
    for tag in variants:
        absolute, relative = riskmetrics.var_errors(estimates["theo"], estimates[tag])
        out[f"abs_err_{tag}"] = absolute
        out[f"rel_err_{tag}"] = relative
    hits = int(np.sum((pred == 1) & (truth == 1)))
    out["n_true"] = int(truth.sum())
    out["n_pred"] = int(pred.sum())
    out["stamp_recall"] = hits / out["n_true"] if out["n_true"] else 0.0
    return out


def var_experiment(result: PipelineResult, n_anom=4, n_runs=50, alpha=0.99,
                   h_steps=1, weights=None, method="BF") -> evaluation.MultirunResult:
    """Mean/std of the five VaR figures and their errors over fresh panels."""
    def runner(run_index):
        return var_run(result, run_index, n_anom=n_anom, alpha=alpha,
                       h_steps=h_steps, weights=weights, method=method)
    return evaluation.multirun(runner, seeds=range(n_runs))


def imputation_run(result: PipelineResult, run_index, n_anom=4, h_steps=1) -> dict:
    """One imputation-quality run: impute at the true stamps, compare errors.

    Judges the imputation values themselves, so the true anomaly locations are
    used; covariance errors are taken against the generating return covariance.
    """
    cfg = result.config
    base = result.data.clean_train
    clean = simgen.simulate_paths(
        base.s0, base.mu, base.sigma, cfg.correlation, base.dt, cfg.n_steps,
        seed=derive_seed(cfg.seed, "imputation_paths", run_index))
    contaminated, truth = simgen.contaminate(clean, simgen.ContaminationConfig(
        n_anom=n_anom, rho=cfg.rho,
        seed=derive_seed(cfg.seed, "imputation_contaminate", run_index)))
    variants = {"clean": clean.prices, "anom": contaminated.prices}
    for method in detector.IMPUTATION_METHODS:
        variants[method] = impute_panel(contaminated.prices, truth, method=method,
                                        pca=result.model.pca)
    sigma_ref = riskmetrics.theoretical_return_model(
        base.mu, base.sigma, cfg.correlation, base.dt, h_steps).sigma
    out = {}
    for tag, prices in variants.items():
        fitted = riskmetrics.estimate_params(riskmetrics.log_returns(prices, h_steps), h_steps)
        out[f"cov_err_{tag}"] = riskmetrics.cov_error(sigma_ref, fitted.sigma)
    for tag in ("anom",) + detector.IMPUTATION_METHODS:
        per_series = [riskmetrics.imputation_error(clean.prices[i], variants[tag][i], n_anom)
                      for i in range(cfg.n_stocks)]
        out[f"imp_err_{tag}"] = float(np.mean(per_series))
    return out


def imputation_experiment(result: PipelineResult, n_anom=4, n_runs=100,
                          h_steps=1) -> evaluation.MultirunResult:
    """Mean/std imputation and covariance errors over fresh contaminated panels."""
    def runner(run_index):
        return imputation_run(result, run_index, n_anom=n_anom, h_steps=h_steps)
    return evaluation.multirun(runner, seeds=range(n_runs))
