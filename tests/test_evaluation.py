"""Metrics, PRC, multirun aggregation, robustness sweeps, and the ADF test."""

import numpy as np
import pytest

from panelscan import detector, evaluation, pcafeat, scorer, workflows


def test_classification_metrics_perfect_prediction():
    A = np.array([0, 1, 1, 0, 1])
    rep = evaluation.classification_metrics(A, A)
    assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0, 1.0)
    assert rep.counts == {"tp": 3, "fp": 0, "tn": 2, "fn": 0}


def test_classification_metrics_f1_harmonic_mean():
    # counts chosen to land precision 0.97360, recall 0.8421 -> F1 0.90309
    A = np.concatenate([np.ones(100000, dtype=int), np.zeros(3000, dtype=int)])
    A_hat = A.copy()
    A_hat[:15790] = 0
    A_hat[100000:100000 + 2283] = 1
    rep = evaluation.classification_metrics(A, A_hat)
    assert rep.recall == pytest.approx(0.8421, abs=1e-12)
    assert rep.f1 == pytest.approx(0.9031, abs=2e-4)
    assert min(rep.precision, rep.recall) <= rep.f1 <= max(rep.precision, rep.recall)


def test_classification_metrics_no_skill_flags_everything():
    rng = np.random.default_rng(4)
    A = (rng.uniform(size=500) < 0.16).astype(int)
    rep = evaluation.classification_metrics(A, np.ones(500, dtype=int))
    assert rep.precision == pytest.approx(A.mean(), rel=1e-12)
    assert rep.recall == 1.0


def test_classification_metrics_zero_denominator_conventions():
    rep = evaluation.classification_metrics([0, 0, 1], [0, 0, 0])
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0


def test_classification_metrics_validation():
    with pytest.raises(ValueError):
        evaluation.classification_metrics([0, 1], [1])
    with pytest.raises(ValueError):
        evaluation.classification_metrics([0, 2], [0, 1])


def test_localization_metrics_support_weighted_averages():
    # classes 1/2/3 with supports 2/1/1: P = .5*1 + .25*.5 + .25*1 = 0.875,
    # R = .5*.5 + .25*1 + .25*1 = 0.75, F1 = .5*(2/3) + .25*(2/3) + .25*1 = 0.75
    rep = evaluation.localization_metrics([1, 1, 2, 3], [1, 2, 2, 3])
    assert rep.accuracy == pytest.approx(0.75, rel=1e-12)
    assert rep.precision == pytest.approx(0.875, rel=1e-12)
    assert rep.recall == pytest.approx(0.75, rel=1e-12)
    assert rep.f1 == pytest.approx(0.75, rel=1e-12)
    assert rep.counts == {"correct": 3, "total": 4}


def test_localization_weighted_recall_equals_accuracy():
    rng = np.random.default_rng(9)
    L = rng.integers(1, 12, size=300)
    L_hat = np.where(rng.uniform(size=300) < 0.7, L, rng.integers(1, 12, size=300))
    rep = evaluation.localization_metrics(L, L_hat)
    assert rep.recall == pytest.approx(rep.accuracy, rel=1e-12)


def test_localization_metrics_validation():
    with pytest.raises(ValueError):
        evaluation.localization_metrics([], [])
    with pytest.raises(ValueError):
        evaluation.localization_metrics([1, 2], [1])


def test_prc_perfect_scores_auc_one():
    scores = np.concatenate([np.linspace(1.0, 2.0, 40), np.linspace(-2.0, -1.0, 60)])
    A = np.concatenate([np.ones(40, dtype=int), np.zeros(60, dtype=int)])
    curve = evaluation.precision_recall_curve(scores, A)
    assert curve.auc == pytest.approx(1.0, abs=1e-12)


def test_prc_random_scores_near_half_on_balanced_labels():
    rng = np.random.default_rng(11)
    scores = rng.standard_normal(10000)
    A = rng.integers(0, 2, 10000)
    curve = evaluation.precision_recall_curve(scores, A)
    assert curve.auc == pytest.approx(0.5, abs=0.05)


def test_prc_endpoint_and_monotone_invariance():
    rng = np.random.default_rng(12)
    scores = rng.standard_normal(400)
    A = (scores + rng.standard_normal(400) > 0).astype(int)
    curve = evaluation.precision_recall_curve(scores, A)
    assert curve.recall.max() == 1.0
    assert 0.0 <= curve.auc <= 1.0
    # strictly increasing transform preserves the ranking, hence the curve
    warped = evaluation.precision_recall_curve(np.exp(scores), A)
    np.testing.assert_allclose(warped.recall, curve.recall, atol=1e-12)
    np.testing.assert_allclose(warped.precision, curve.precision, atol=1e-12)
    assert warped.auc == pytest.approx(curve.auc, abs=1e-12)


def test_prc_requires_both_classes():
    with pytest.raises(ValueError):
        evaluation.precision_recall_curve([0.1, 0.2], [1, 1])


def test_schwert_lag_rule():
    assert evaluation.schwert_lag(100) == 12
    assert evaluation.schwert_lag(206) == 14
    assert evaluation.schwert_lag(1000) == 21


def test_adf_random_walk_rarely_rejects():
    keep = 0
    for s in range(20):
        walk = np.cumsum(np.random.default_rng(100 + s).standard_normal(10000))
        keep += not evaluation.adf_test(walk).reject_5pct
    assert keep >= 18


def test_adf_white_noise_always_rejects():
    for s in range(20):
        noise = np.random.default_rng(200 + s).standard_normal(10000)
        result = evaluation.adf_test(noise)
        assert result.reject_5pct
        assert result.p_value < 0.05
        assert result.statistic < result.critical_5pct


def test_adf_decision_consistent_with_critical_value():
    rng = np.random.default_rng(33)
    series = 0.4 * rng.standard_normal(500) + np.linspace(0.0, 0.2, 500)
    result = evaluation.adf_test(series, lag_order=3)
    assert result.lag_order == 3
    assert result.reject_5pct == (result.statistic < result.critical_5pct)
    assert 0.0 <= result.p_value <= 1.0


def test_adf_singular_regression_errors():
    with pytest.raises(ValueError):
        evaluation.adf_test(np.full(50, 2.0), lag_order=0)
    with pytest.raises(ValueError):
        evaluation.adf_test(np.arange(5.0), lag_order=3)


def _lstsq_adf_statistic(series, lag):
    dx = np.diff(series)
    y = dx[lag:]
    columns = [series[lag:-1]] + [dx[lag - j:dx.size - j] for j in range(1, lag + 1)]
    design = np.column_stack(columns + [np.ones(y.size)])
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    residuals = y - design @ beta
    sigma2 = residuals @ residuals / (y.size - design.shape[1])
    return beta[0] / np.sqrt(sigma2 * np.linalg.pinv(design.T @ design)[0, 0])


def test_adf_study_equals_per_row_tests_across_chunks():
    rng = np.random.default_rng(34)
    n_rows = 2 * evaluation._ADF_CHUNK_ROWS + 77
    walks = np.cumsum(rng.standard_normal((n_rows // 2, 150)), axis=1)
    noise = rng.standard_normal((n_rows - n_rows // 2, 150))
    rows = np.vstack([walks, noise])[rng.permutation(n_rows)]
    p_values, reject = workflows.adf_study(rows)
    study = evaluation._adf_batch(rows)
    singles = [evaluation.adf_test(row) for row in rows]
    assert np.array_equal(p_values, [r.p_value for r in singles])
    assert np.array_equal(study.statistics, [r.statistic for r in singles])
    assert reject == np.mean([r.reject_5pct for r in singles])
    assert 0.3 < reject < 0.7
    lag = evaluation.schwert_lag(150)
    for i in rng.choice(n_rows, 40, replace=False):
        own = _lstsq_adf_statistic(rows[i], lag)
        assert abs(study.statistics[i] - own) <= 1e-10 * abs(own)


def test_adf_study_refuses_a_singular_row_anywhere():
    rng = np.random.default_rng(35)
    rows = rng.standard_normal((evaluation._ADF_CHUNK_ROWS + 40, 80))
    for bad in (0, evaluation._ADF_CHUNK_ROWS + 13, rows.shape[0] - 1):
        broken = rows.copy()
        broken[bad] = 2.0
        with pytest.raises(ValueError, match="singular"):
            workflows.adf_study(broken)


def test_mackinnon_p_value_is_exact_outside_the_surface():
    stats = np.array([-1e6, evaluation._TAU_MIN - 1e-9, evaluation._TAU_MAX + 1e-9, 50.0])
    assert evaluation._mackinnon_p_value(stats).tolist() == [0.0, 0.0, 1.0, 1.0]
    inside = evaluation._mackinnon_p_value(np.array([evaluation._TAU_MIN, -3.0,
                                                     evaluation._TAU_STAR, 0.0]))
    assert np.all((inside > 0.0) & (inside < 1.0)) and np.all(np.diff(inside) > 0.0)


def test_flatten_metrics_nested():
    rep = evaluation.classification_metrics([0, 1], [0, 1])
    flat = evaluation.flatten_metrics({"ident": rep, "loss": 0.25})
    assert flat["ident.f1"] == 1.0
    assert flat["loss"] == 0.25


def test_multirun_aggregates_mean_and_std():
    def experiment(seed):
        return {"value": float(seed), "fixed": 3.0}
    result = evaluation.multirun(experiment, seeds=[1, 2, 3])
    assert result.mean["value"] == pytest.approx(2.0)
    assert result.std["value"] == pytest.approx(1.0)
    assert result.std["fixed"] == 0.0


def test_multirun_identical_seeds_zero_std():
    def experiment(seed):
        return {"metric": float(np.random.default_rng(seed).uniform())}
    result = evaluation.multirun(experiment, seeds=[7, 7])
    assert result.std["metric"] == 0.0


def test_multirun_validation_and_failure_propagation():
    with pytest.raises(ValueError):
        evaluation.multirun(lambda s: {"x": 1.0}, seeds=[1])
    def broken(seed):
        if seed == 5:
            raise ValueError("boom")
        return {"x": 1.0}
    with pytest.raises(RuntimeError, match="run 1 .seed 5."):
        evaluation.multirun(broken, seeds=[4, 5, 6])


def _toy_model(seed=0, n=40, p=6, k=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    pca = pcafeat.fit_pca(X, k)
    net = scorer.ScoringNetwork(
        layer_dims=[p, 1], weights=[np.ones((1, p))], biases=[np.zeros(1)],
        cutoff=0.0, temperature=1.0)
    return detector.DetectionModel(pca=pca, net=net), X


def test_cutoff_robustness_zero_shock_is_baseline():
    model, X = _toy_model()
    A = (np.arange(40) % 2).astype(int)
    eps = pcafeat.reconstruction_errors(model.pca, X).epsilon
    scores = scorer.forward(model.net, eps)
    table = dict(evaluation.cutoff_robustness(scores, model.net.cutoff, A))
    direct = (scores > model.net.cutoff).astype(int)
    baseline = evaluation.classification_metrics(A, direct)
    assert table[0.0].as_dict() == baseline.as_dict()


def test_cutoff_robustness_monotone_in_gamma():
    model, X = _toy_model(seed=3)
    A = (np.arange(40) % 3 == 0).astype(int)
    table = evaluation.cutoff_robustness(detector.score_rows(model, X).scores,
                                         model.net.cutoff, A)
    gammas = [g for g, _ in table]
    assert gammas == sorted(gammas)
    recalls = [rep.recall for _, rep in table]
    flagged = [rep.counts["tp"] + rep.counts["fp"] for _, rep in table]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))
    assert all(a >= b for a, b in zip(flagged, flagged[1:]))


def test_amplitude_sensitivity_quartile_buckets():
    amplitudes = np.arange(1.0, 9.0)
    correct = np.array([1, 0, 1, 1, 0, 0, 1, 1], dtype=bool)
    buckets = evaluation.amplitude_sensitivity(amplitudes, correct)
    assert [b.count for b in buckets] == [2, 2, 2, 2]
    assert [b.ratio for b in buckets] == [0.5, 1.0, 0.0, 1.0]
    assert buckets[0].low == 1.0 and buckets[3].high == 8.0
    # the last bucket includes its upper edge
    assert buckets[3].count == 2


def test_amplitude_sensitivity_empty_bucket_is_none():
    buckets = evaluation.amplitude_sensitivity([1.0, 1.0, 1.0, 1.0, 5.0],
                                               [True, True, False, True, True])
    assert [b.count for b in buckets] == [0, 0, 0, 5]
    assert [b.ratio for b in buckets][:3] == [None, None, None]
    assert buckets[3].ratio == pytest.approx(0.8)


def test_amplitude_sensitivity_validation():
    with pytest.raises(ValueError):
        evaluation.amplitude_sensitivity([], [])
    with pytest.raises(ValueError):
        evaluation.amplitude_sensitivity([1.0, 2.0], [True])
