"""Two-step detection: identify, localize, impute, iterate."""

import numpy as np
import pytest

from panelscan import detector, pcafeat, scorer, workflows


def _planted_model(p=10, seed=0):
    """PCA on smooth rank-2 windows plus a hand-built scoring net.

    The net computes max-like evidence through ReLU pairs: score =
    sum_j relu(eps_j) + relu(-eps_j) = ||eps||_1, so clean windows score near
    zero and spiked ones score high, with an interpretable cutoff.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, p)
    base = np.vstack([np.ones(p), t])
    latent = rng.standard_normal((400, 2)) * np.array([5.0, 2.0])
    X = latent @ base + 1e-4 * rng.standard_normal((400, p))
    pca = pcafeat.fit_pca(X, k=2)
    W0 = np.vstack([np.eye(p), -np.eye(p)])
    net = scorer.ScoringNetwork(
        layer_dims=[p, 2 * p, 1],
        weights=[W0, np.ones((1, 2 * p))],
        biases=[np.zeros(2 * p), np.zeros(1)],
        cutoff=0.05,
        temperature=0.1,
    )
    return detector.DetectionModel(pca=pca, net=net), X


def test_model_dimension_guard():
    model, _ = _planted_model()
    bad_net = scorer.ScoringNetwork(layer_dims=[7, 1], weights=[np.ones((1, 7))],
                                    biases=[np.zeros(1)], cutoff=0.0, temperature=1.0)
    with pytest.raises(ValueError):
        detector.DetectionModel(pca=model.pca, net=bad_net)


def test_identify_is_strictly_above_cutoff():
    model, X = _planted_model()
    clean = X[0]
    spiked = clean.copy()
    spiked[4] += 3.0
    labels = detector.identify(model, np.vstack([clean, spiked]))
    np.testing.assert_array_equal(labels, [0, 1])
    # a window scoring exactly at the cutoff is NOT flagged
    eps = pcafeat.reconstruction_errors(model.pca, clean).epsilon
    exact = scorer.forward(model.net, eps)
    model.net.cutoff = float(exact)
    assert detector.identify(model, clean)[0] == 0
    report = detector.detect_iterative(model, clean)
    assert (report.pred_label, report.iterations_used, report.locations) == (0, 0, [])


def test_localize_finds_the_spike():
    model, X = _planted_model(seed=1)
    for j in (0, 3, 9):
        spiked = X[1].copy()
        spiked[j] += 2.5
        assert detector.localize(model.pca, spiked) == j + 1


def test_localize_tie_breaks_to_first_index():
    pca = pcafeat.PcaModel(mean=np.zeros(4), omega=np.zeros((1, 4)),
                           eigenvalues=np.ones(1), k=1)
    pca.omega[0, 0] = 1.0
    # epsilon = -(x - mean) outside the first axis: equal spikes at 2 and 4
    row = np.array([7.0, 2.0, 0.0, -2.0])
    assert detector.localize(pca, row) == 2


def test_impute_backward_fill():
    row = np.array([100.0, 104.0, 101.0, 103.0])
    np.testing.assert_array_equal(detector.impute(row, 2, "BF"), [100.0, 100.0, 101.0, 103.0])
    # first index falls forward
    np.testing.assert_array_equal(detector.impute(row, 1, "BF"), [104.0, 104.0, 101.0, 103.0])
    np.testing.assert_array_equal(row, [100.0, 104.0, 101.0, 103.0])


def test_impute_linear_interpolation():
    row = np.array([100.0, 104.0, 101.0, 103.0])
    np.testing.assert_array_equal(detector.impute(row, 2, "LI"), [100.0, 100.5, 101.0, 103.0])
    np.testing.assert_array_equal(detector.impute(row, 1, "LI"), [104.0, 104.0, 101.0, 103.0])
    np.testing.assert_array_equal(detector.impute(row, 4, "LI"), [100.0, 104.0, 101.0, 101.0])


def test_impute_pca_reconstruction():
    model, X = _planted_model(seed=2)
    spiked = X[2].copy()
    spiked[5] += 2.0
    fixed = detector.impute(spiked, 6, "PCA_RECON", pca=model.pca)
    # the projection leaks a little spike energy; most of the 2.0 is gone
    assert abs(fixed[5] - X[2][5]) < 0.3
    np.testing.assert_array_equal(fixed[:5], spiked[:5])
    np.testing.assert_array_equal(fixed[6:], spiked[6:])
    with pytest.raises(ValueError):
        detector.impute(spiked, 6, "PCA_RECON")


def test_impute_validation():
    row = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        detector.impute(row, 0, "BF")
    with pytest.raises(ValueError):
        detector.impute(row, 4, "BF")
    with pytest.raises(ValueError, match="unknown imputation method"):
        detector.impute(row, 1, "ffill")


def test_detect_iterative_removes_planted_anomalies():
    model, X = _planted_model(seed=3)
    window = X[5].copy()
    window[2] += 4.0
    window[7] -= 3.0
    report = detector.detect_iterative(model, window, method="LI")
    assert report.pred_label == 1
    assert report.score > model.net.cutoff
    assert set(report.locations) == {3, 8}
    assert report.iterations_used == len(report.locations)
    assert not report.repeated_location
    # the imputed series no longer identifies
    assert detector.identify(model, report.imputed_series)[0] == 0


def test_detect_iterative_clean_window_short_circuits():
    model, X = _planted_model(seed=4)
    report = detector.detect_iterative(model, X[7])
    assert report.pred_label == 0
    assert report.locations == []
    assert report.iterations_used == 0
    np.testing.assert_array_equal(report.imputed_series, X[7])


def test_detect_iterative_respects_max_iter():
    model, X = _planted_model(seed=5)
    window = X[9].copy()
    window[[1, 4, 8]] += np.array([3.0, 4.0, 5.0])
    report = detector.detect_iterative(model, window, method="BF", max_iter=2)
    assert report.iterations_used == 2
    assert len(report.locations) == 2
    with pytest.raises(ValueError):
        detector.detect_iterative(model, window, max_iter=0)


def test_detect_iterative_flags_repeated_location():
    # a net that always identifies forces the repeat guard to fire
    p = 6
    rng = np.random.default_rng(6)
    X = np.vstack([np.ones(p) + 0.01 * rng.standard_normal(p) for _ in range(50)])
    pca = pcafeat.fit_pca(X, k=1)
    always_on = scorer.ScoringNetwork(
        layer_dims=[p, 1], weights=[np.zeros((1, p))], biases=[np.ones(1)],
        cutoff=0.0, temperature=1.0)
    model = detector.DetectionModel(pca=pca, net=always_on)
    report = detector.detect_iterative(model, X[0], method="PCA_RECON", max_iter=50)
    assert report.repeated_location
    assert report.iterations_used < 50
    assert len(set(report.locations)) == len(report.locations)


def test_scores_match_forward_on_features():
    model, X = _planted_model(seed=7)
    eps = pcafeat.reconstruction_errors(model.pca, X[:4]).epsilon
    np.testing.assert_allclose(detector.scores(model, X[:4]),
                               scorer.forward(model.net, eps), rtol=1e-14)


def _reference_detect(model, row, method, max_iter):
    """The per-row loop that detect_batch replaced: epsilon is recomputed to localize."""
    row = np.asarray(row, dtype=float).copy()
    first = float(detector.scores(model, row)[0])
    locations, repeated, iterations = [], False, 0
    contaminated = first > model.net.cutoff
    while contaminated and iterations < max_iter:
        iterations += 1
        location = detector.localize(model.pca, row)
        if location in locations:
            repeated = True
            break
        locations.append(location)
        row = detector.impute(row, location, method, pca=model.pca)
        contaminated = float(detector.scores(model, row)[0]) > model.net.cutoff
    return detector.DetectionReport(int(first > model.net.cutoff), first, locations, row,
                                    iterations, repeated)


def _spiked_rows(X, seed, n_rows=60):
    """Clean rows and rows with one to six spikes of mixed sign and size."""
    rng = np.random.default_rng(seed)
    rows = X[rng.choice(X.shape[0], n_rows, replace=False)].copy()
    p = rows.shape[1]
    for row in rows[n_rows // 4:]:
        spots = rng.choice(p, rng.integers(1, 7), replace=False)
        row[spots] += rng.choice([-1.0, 1.0], spots.size) * rng.uniform(0.02, 4.0, spots.size)
    return rows


def _assert_same_reports(batch, per_row, score_rtol, score_atol=0.0):
    assert len(batch) == len(per_row)
    for got, want in zip(batch, per_row):
        assert got.pred_label == want.pred_label
        assert got.locations == want.locations
        assert got.iterations_used == want.iterations_used
        assert got.repeated_location == want.repeated_location
        assert np.array_equal(got.imputed_series, want.imputed_series)
        np.testing.assert_allclose(got.score, want.score, rtol=score_rtol, atol=score_atol)


@pytest.mark.parametrize("method", detector.IMPUTATION_METHODS)
def test_detect_batch_matches_per_row_detection(method):
    model, X = _planted_model(seed=8)
    rows = _spiked_rows(X, seed=9)
    # A batch sums in another order than one row (gemm against gemv). A clean
    # row's epsilon cancels values near max|x| down to about 1e-4, so its
    # score carries that rounding: a few ulp of max|x| per component.
    score_atol = rows.shape[1] * np.finfo(float).eps * np.abs(rows).max()
    for max_iter in range(1, 6):
        batch = detector.detect_batch(model, rows, method=method, max_iter=max_iter)
        per_row = [detector.detect_iterative(model, row, method=method, max_iter=max_iter)
                   for row in rows]
        assert {r.iterations_used for r in per_row} >= {0, max_iter}
        _assert_same_reports(batch, per_row, score_rtol=1e-12, score_atol=score_atol)
        # one row at a time is bit for bit the loop detect_batch replaced
        reference = [_reference_detect(model, row, method, max_iter) for row in rows]
        _assert_same_reports(per_row, reference, score_rtol=0.0)


def test_detect_batch_repeat_guard_matches_per_row():
    p = 6
    rng = np.random.default_rng(10)
    X = np.ones((50, p)) + 0.01 * rng.standard_normal((50, p))
    pca = pcafeat.fit_pca(X, k=1)
    always_on = scorer.ScoringNetwork(
        layer_dims=[p, 1], weights=[np.zeros((1, p))], biases=[np.ones(1)],
        cutoff=0.0, temperature=1.0)
    model = detector.DetectionModel(pca=pca, net=always_on)
    for method in detector.IMPUTATION_METHODS:
        batch = detector.detect_batch(model, X[:12], method=method, max_iter=50)
        per_row = [_reference_detect(model, row, method, 50) for row in X[:12]]
        assert any(r.repeated_location for r in batch)
        _assert_same_reports(batch, per_row, score_rtol=0.0)
    with pytest.raises(ValueError):
        detector.detect_batch(model, X, max_iter=0)


def test_detect_panel_matches_a_per_window_loop():
    model, _ = _planted_model(seed=11)
    p = model.pca.window_length
    rng = np.random.default_rng(12)
    n_stocks, n_steps = 4, 47
    trend = np.linspace(0.0, 1.0, n_steps)
    prices = (rng.uniform(90.0, 110.0, (n_stocks, 1)) + rng.uniform(-5.0, 5.0, (n_stocks, 1))
              * trend + 1e-4 * rng.standard_normal((n_stocks, n_steps)))
    for i in range(n_stocks):
        spots = rng.choice(n_steps, 3, replace=False)
        prices[i, spots] += rng.uniform(1.0, 3.0, 3)
    for stride, min_votes in ((None, 2), (3, 1), (7, 3)):
        step = p // 2 if stride is None else stride
        offsets = list(range(0, n_steps - p + 1, step))
        if offsets[-1] != n_steps - p:
            offsets.append(n_steps - p)
        votes = np.zeros((n_stocks, n_steps), dtype=np.int64)
        coverage = np.zeros(n_steps, dtype=np.int64)
        for off in offsets:
            coverage[off:off + p] += 1
            for i in range(n_stocks):
                report = detector.detect_iterative(model, prices[i, off:off + p], max_iter=5)
                for loc in report.locations:
                    votes[i, off + loc - 1] += 1
        expected = (votes >= np.minimum(min_votes, coverage)).astype(np.int64)
        flags = workflows.detect_panel(model, prices, stride=stride, min_votes=min_votes)
        assert expected.sum() > 0
        np.testing.assert_array_equal(flags, expected)
