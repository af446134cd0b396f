"""Gaussian KDE primitives: bandwidths, tail masses, density crossings."""

import numpy as np
import pytest

from panelscan import density

INV_SQRT_2PI = 0.3989422804014327


def test_single_kernel_peak_height():
    # one sample, bandwidth 1: the density at the sample is 1/sqrt(2 pi)
    model = density.fit_kde([0.0], bandwidth_rule=1.0)
    assert density.pdf(model, 0.0) == pytest.approx(INV_SQRT_2PI, rel=1e-12)
    assert density.pdf(model, 1.0) == pytest.approx(INV_SQRT_2PI * np.exp(-0.5), rel=1e-12)


def test_density_integrates_to_one():
    rng = np.random.default_rng(0)
    model = density.fit_kde(rng.standard_normal(200))
    grid = np.linspace(-8.0, 8.0, 20001)
    mass = np.trapezoid(density.pdf(model, grid), grid)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_tail_masses_complement():
    rng = np.random.default_rng(1)
    model = density.fit_kde(rng.standard_normal(64) * 2.0 + 0.3)
    for s in (-3.0, -0.2, 0.0, 1.7):
        assert density.auc_above(model, s) + density.auc_below(model, s) == pytest.approx(1.0, abs=1e-12)


def test_tail_mass_matches_trapezoid_quadrature():
    rng = np.random.default_rng(2)
    model = density.fit_kde(rng.standard_normal(50))
    s = 0.8
    grid = np.linspace(s, 12.0, 40001)
    numeric = np.trapezoid(density.pdf(model, grid), grid)
    assert density.auc_above(model, s) == pytest.approx(numeric, abs=1e-4)


def test_tail_mass_analytic_single_kernel():
    # one kernel at 0 with bandwidth 1: mass above s is the normal tail
    model = density.fit_kde([0.0], bandwidth_rule=1.0)
    from scipy.special import ndtr
    for s in (-1.5, 0.0, 0.5, 2.0):
        assert density.auc_above(model, s) == pytest.approx(1.0 - ndtr(s), rel=1e-12)


def test_silverman_bandwidth_formula():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(500)
    h = density.silverman_bandwidth(samples)
    std = np.std(samples, ddof=1)
    iqr = np.subtract(*np.percentile(samples, [75.0, 25.0])) / 1.34
    assert h == pytest.approx(0.9 * min(std, iqr) * 500 ** (-0.2), rel=1e-12)


def test_silverman_bandwidth_floor():
    assert density.silverman_bandwidth(np.full(10, 3.5)) == density.BANDWIDTH_FLOOR
    assert density.silverman_bandwidth([1.0]) == density.BANDWIDTH_FLOOR
    with pytest.raises(ValueError):
        density.silverman_bandwidth([])


def test_silverman_bandwidth_zero_iqr_falls_back_to_std():
    # eight of ten samples tied: the IQR is 0, the std is not
    samples = np.array([0.0] * 8 + [1.0, 3.0])
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    assert q75 == q25
    expected = 0.9 * np.std(samples, ddof=1) * samples.size ** (-0.2)
    assert density.silverman_bandwidth(samples) == pytest.approx(expected, rel=1e-15)
    assert density.silverman_bandwidth(samples) > 1e3 * density.BANDWIDTH_FLOOR


def test_fit_kde_validation():
    with pytest.raises(ValueError):
        density.fit_kde([])
    with pytest.raises(ValueError):
        density.fit_kde([1.0], bandwidth_rule="scott")
    with pytest.raises(ValueError):
        density.fit_kde([1.0], bandwidth_rule=-0.5)
    model = density.fit_kde([[1.0, 2.0], [3.0, 4.0]])
    assert model.samples.shape == (4,)


def test_intersection_cutoff_between_separated_classes():
    rng = np.random.default_rng(4)
    low = density.fit_kde(rng.standard_normal(300) * 0.5)
    high = density.fit_kde(rng.standard_normal(300) * 0.5 + 4.0)
    result = density.intersection_cutoff(low, high)
    assert 1.0 < result.cutoff < 3.0
    # equal-variance Gaussians cross at the midpoint of the means
    assert result.cutoff == pytest.approx(2.0, abs=0.3)
    assert result.gap < 0.05


def test_intersection_cutoff_minimizes_stray_mass():
    rng = np.random.default_rng(5)
    f_u = density.fit_kde(rng.standard_normal(128))
    f_c = density.fit_kde(rng.standard_normal(128) + 2.5)
    result = density.intersection_cutoff(f_u, f_c)
    objective = lambda s: density.auc_above(f_u, s) + density.auc_below(f_c, s)
    best = objective(result.cutoff)
    probe = np.linspace(-3.0, 6.0, 700)
    assert best <= objective(probe).min() + 1e-9


def test_intersection_cutoff_explicit_grid_and_validation():
    f_u = density.fit_kde([0.0, 0.1], bandwidth_rule=0.5)
    f_c = density.fit_kde([2.0, 2.1], bandwidth_rule=0.5)
    result = density.intersection_cutoff(f_u, f_c, grid=np.array([0.5, 1.05, 1.6]))
    assert result.cutoff == 1.05
    with pytest.raises(ValueError):
        density.intersection_cutoff(f_u, f_c, eta=0.0)
    with pytest.raises(ValueError):
        density.intersection_cutoff(f_u, f_c, grid=0)
    with pytest.raises(ValueError):
        density.intersection_cutoff(f_u, f_c, grid=np.array([]))


def test_degenerate_identical_samples_still_produce_cutoff():
    f_u = density.fit_kde(np.zeros(5))
    f_c = density.fit_kde(np.zeros(5))
    result = density.intersection_cutoff(f_u, f_c)
    assert result.cutoff == 0.0
