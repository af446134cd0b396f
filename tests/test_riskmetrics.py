"""Parametric VaR, the inverse-normal quantile, and imputation error metrics."""

import math

import numpy as np
import pytest

from panelscan import riskmetrics, simgen, workflows

# inverse standard normal CDF by 200-step bisection on 0.5*erfc(-x/sqrt(2))
BISECTION_QUANTILES = {
    0.9: 1.2815515655446004,
    0.95: 1.6448536269514715,
    0.99: 2.326347874040839,
    0.999: 3.090232306167797,
}


def test_log_returns_constant_series_are_zero():
    out = riskmetrics.log_returns(np.full((2, 6), 42.0))
    np.testing.assert_array_equal(out, np.zeros((2, 5)))


def test_log_returns_doubling_series_is_ln2():
    prices = 3.0 * 2.0 ** np.arange(8.0)
    out = riskmetrics.log_returns(prices[None, :], h_steps=1)
    np.testing.assert_allclose(out, np.log(2.0), rtol=1e-12)


def test_log_returns_two_step_horizon_overlaps():
    prices = np.array([[1.0, 2.0, 4.0, 8.0]])
    out = riskmetrics.log_returns(prices, h_steps=2)
    np.testing.assert_allclose(out, np.log(4.0), rtol=1e-12)
    assert out.shape == (1, 2)


def test_log_returns_validation():
    with pytest.raises(ValueError):
        riskmetrics.log_returns(np.array([[1.0, -1.0, 2.0]]))
    with pytest.raises(ValueError):
        riskmetrics.log_returns(np.ones((1, 4)), h_steps=4)
    with pytest.raises(ValueError):
        riskmetrics.log_returns(np.ones((1, 4)), h_steps=0)


def test_simulated_return_moments_match_theory():
    # 1e5 one-step log returns: sample moments within 3 standard errors of
    # ((mu - sigma^2/2) dt, sigma^2 dt); seed 5 lands at 0.30 and -0.52 se.
    dt = 1.0 / 252.0
    cfg = simgen.DiffusionConfig(n_stocks=1, n_steps=100001, dt=dt,
                                 correlation=0.0, seed=5)
    panel = simgen.simulate_gbm(cfg)
    returns = riskmetrics.log_returns(panel.prices, 1)[0]
    mu, sigma = float(panel.mu[0]), float(panel.sigma[0])
    n = returns.size
    expected_mean = (mu - 0.5 * sigma**2) * dt
    expected_var = sigma**2 * dt
    se_mean = sigma * math.sqrt(dt) / math.sqrt(n)
    se_var = expected_var * math.sqrt(2.0 / n)
    assert abs(returns.mean() - expected_mean) < 3.0 * se_mean
    assert abs(returns.var(ddof=1) - expected_var) < 3.0 * se_var


def test_var_estimates_price_each_variant_against_theo():
    clean = simgen.simulate_gbm(simgen.DiffusionConfig(n_stocks=3, n_steps=300, seed=4))
    dirty, truth = simgen.contaminate(clean, simgen.ContaminationConfig(n_anom=3, seed=2))
    weights = np.full(3, 1.0 / 3.0)
    nothing_predicted = np.zeros_like(truth)
    estimates, errors = workflows.var_estimates(
        clean.prices, dirty.prices, truth, nothing_predicted, clean.mu, clean.sigma, 0.5,
        clean.dt, 1, weights, 0.99, pca=None)  # BF imputes without the PCA

    def fitted(prices):
        model = riskmetrics.estimate_params(riskmetrics.log_returns(prices))
        return riskmetrics.portfolio_var(model, weights, 0.99)

    theo = riskmetrics.portfolio_var(
        riskmetrics.theoretical_return_model(clean.mu, clean.sigma, 0.5, clean.dt),
        weights, 0.99)
    assert estimates["theo"] == theo
    assert estimates["clean"] == fitted(clean.prices)
    assert estimates["anom"] == estimates["loc_pred"] == fitted(dirty.prices)
    assert estimates["loc_true"] == fitted(workflows.impute_panel(dirty.prices, truth))
    assert estimates["loc_true"] != estimates["anom"]
    assert set(errors) == {"clean", "anom", "loc_true", "loc_pred"}
    for tag, pair in errors.items():
        assert pair == riskmetrics.var_errors(theo, estimates[tag])


def test_estimate_params_identical_series_zero_covariance():
    returns = np.vstack([np.array([0.01, -0.02, 0.03, 0.0])] * 2)
    model = riskmetrics.estimate_params(returns)
    np.testing.assert_allclose(model.mu, 0.005, rtol=1e-12)
    np.testing.assert_allclose(model.sigma, np.full((2, 2), model.sigma[0, 0]), rtol=1e-12)


def test_estimate_params_single_series_scalar_variance():
    r = np.array([[0.02, -0.01, 0.04]])
    model = riskmetrics.estimate_params(r)
    assert model.sigma.shape == (1, 1)
    assert model.sigma[0, 0] == pytest.approx(np.var(r, ddof=1), rel=1e-12)
    with pytest.raises(ValueError):
        riskmetrics.estimate_params(np.array([[0.02]]))


def test_norm_quantile_matches_bisection_oracle():
    for p, oracle in BISECTION_QUANTILES.items():
        assert abs(riskmetrics.norm_quantile(p) - oracle) < 1e-9


def test_norm_quantile_symmetry_and_validation():
    assert riskmetrics.norm_quantile(0.31) == pytest.approx(
        -riskmetrics.norm_quantile(0.69), abs=1e-12)
    assert riskmetrics.norm_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    for p in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            riskmetrics.norm_quantile(p)


def test_portfolio_var_standard_normal_case():
    # mu_P = 0, sigma_P = 1 reduces to the alpha-quantile itself
    model = riskmetrics.ReturnModel(mu=np.zeros(1), sigma=np.eye(1))
    assert riskmetrics.portfolio_var(model, [1.0], 0.99) == pytest.approx(
        2.326347874040839, abs=1e-9)


def test_portfolio_var_takes_the_weights_as_a_list_or_any_array_shape():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    model = riskmetrics.ReturnModel(mu=rng.standard_normal(3), sigma=a @ a.T)
    weights = [0.5, -0.25, 2]
    value = riskmetrics.portfolio_var(model, weights, 0.95)
    for same in (np.array(weights), np.array(weights).reshape(3, 1),
                 np.asfortranarray([weights])):
        assert riskmetrics.portfolio_var(model, same, 0.95) == value


def test_portfolio_var_unit_vector_reduces_to_single_asset():
    mu = np.array([0.01, 0.03, -0.02])
    cov = np.diag([0.04, 0.09, 0.01]) + 0.005
    model = riskmetrics.ReturnModel(mu=mu, sigma=cov)
    whole = riskmetrics.portfolio_var(model, np.array([0.0, 1.0, 0.0]), 0.95)
    single = riskmetrics.portfolio_var(
        riskmetrics.ReturnModel(mu=mu[1:2], sigma=cov[1:2, 1:2]),
        [1.0], 0.95)
    assert whole == pytest.approx(single, rel=1e-12)


def test_portfolio_var_monotone_in_alpha():
    model = riskmetrics.ReturnModel(mu=np.array([0.002]), sigma=np.array([[0.3]]))
    values = [riskmetrics.portfolio_var(model, [2.0], a)
              for a in (0.6, 0.75, 0.9, 0.95, 0.99, 0.995)]
    assert np.all(np.diff(values) > 0)


def test_portfolio_var_positive_homogeneous_in_weights():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    model = riskmetrics.ReturnModel(mu=rng.standard_normal(3), sigma=a @ a.T)
    w = rng.standard_normal(3)
    base = riskmetrics.portfolio_var(model, w, 0.9)
    scaled = riskmetrics.portfolio_var(model, 3.5 * w, 0.9)
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_portfolio_var_validation():
    model = riskmetrics.ReturnModel(mu=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(ValueError, match="disagree on dimension"):
        riskmetrics.portfolio_var(model, [1.0], 0.99)
    for alpha in (0.4, 0.5, 1.0, 1.5, np.nan):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0\.5, 1\)"):
            riskmetrics.portfolio_var(model, [1.0, 1.0], alpha)
    bad = riskmetrics.ReturnModel(mu=np.zeros(1), sigma=np.array([[-1.0]]))
    with pytest.raises(ValueError):
        riskmetrics.portfolio_var(bad, [1.0], 0.99)
    # non-finite weights are refused before the dimension check
    for weights in ([np.nan, 1.0], np.array([1.0, np.inf]), [-np.inf]):
        with pytest.raises(ValueError, match="portfolio weights must be finite"):
            riskmetrics.portfolio_var(model, weights, 0.99)


def test_theoretical_return_model_from_gbm_parameters():
    mu = np.array([0.1, 0.05])
    sigma = np.array([0.2, 0.1])
    dt = 1.0 / 252.0
    model = riskmetrics.theoretical_return_model(mu, sigma, 0.5, dt, h_steps=3)
    np.testing.assert_allclose(model.mu, (mu - 0.5 * sigma**2) * dt * 3, rtol=1e-12)
    assert model.sigma[0, 0] == pytest.approx(0.04 * dt * 3, rel=1e-12)
    assert model.sigma[0, 1] == pytest.approx(0.5 * 0.2 * 0.1 * dt * 3, rel=1e-12)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            riskmetrics.theoretical_return_model(mu, sigma, 0.5, bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"h_steps must be >= 1, got {bad}"):
            riskmetrics.theoretical_return_model(mu, sigma, 0.5, dt, h_steps=bad)


def test_var_errors_zero_and_scale_invariance():
    assert riskmetrics.var_errors(0.55, 0.55) == (0.0, 0.0)
    absolute, relative = riskmetrics.var_errors(0.5, 0.6)
    assert absolute == pytest.approx(0.1, rel=1e-12)
    assert relative == pytest.approx(0.2, rel=1e-12)
    _, rel_scaled = riskmetrics.var_errors(5.0, 6.0)
    assert rel_scaled == pytest.approx(relative, rel=1e-12)
    with pytest.raises(ValueError):
        riskmetrics.var_errors(0.0, 1.0)


def test_imputation_error_examples():
    row = np.array([1.0, 2.0, 3.0, 4.0])
    assert riskmetrics.imputation_error(row, row, 2) == 0.0
    bent = row.copy()
    bent[2] += 0.7
    assert riskmetrics.imputation_error(row, bent, 1) == pytest.approx(0.7, rel=1e-12)
    assert riskmetrics.imputation_error(row, bent, 4) == pytest.approx(0.35, rel=1e-12)
    with pytest.raises(ValueError):
        riskmetrics.imputation_error(row, row[:3], 1)
    with pytest.raises(ValueError):
        riskmetrics.imputation_error(row, row, 0)


def test_cov_error_examples():
    assert riskmetrics.cov_error(np.eye(3), np.eye(3)) == 0.0
    assert riskmetrics.cov_error(2.0 * np.eye(20), np.eye(20)) == pytest.approx(
        math.sqrt(20.0), rel=1e-12)
    with pytest.raises(ValueError):
        riskmetrics.cov_error(np.eye(2), np.eye(3))
