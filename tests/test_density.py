"""Gaussian KDE primitives: bandwidths, tail masses, density crossings."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from panelscan import density

INV_SQRT_2PI = 0.3989422804014327


def _pdf(model, x):
    """The density estimate at the points x: the mean of the Gaussian kernels."""
    z = (np.asarray(x, dtype=float)[..., None] - model.samples) / model.bandwidth
    return np.exp(-0.5 * z * z).mean(axis=-1) * INV_SQRT_2PI / model.bandwidth


def test_single_kernel_peak_height():
    # one sample, bandwidth 1: the density at the sample is 1/sqrt(2 pi)
    model = density.KdeModel(np.array([0.0]), 1.0)
    assert _pdf(model, 0.0) == pytest.approx(INV_SQRT_2PI, rel=1e-12)
    assert _pdf(model, 1.0) == pytest.approx(INV_SQRT_2PI * np.exp(-0.5), rel=1e-12)


def test_density_integrates_to_one():
    # auc_below is the estimate's CDF: it rises from 0 to 1 across the samples,
    # and the mass it puts between two points is the quadrature of the density
    rng = np.random.default_rng(0)
    model = density.fit_kde(rng.standard_normal(200))
    lo, hi = model.samples.min() - 8.0, model.samples.max() + 8.0
    assert density.auc_below(model, lo) == pytest.approx(0.0, abs=1e-12)
    assert density.auc_below(model, hi) == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(lo, hi, 20001)
    cdf = density.auc_below(model, grid)
    assert np.all(np.diff(cdf) >= 0.0)
    a, b = -1.3, 0.6
    inner = np.linspace(a, b, 20001)
    mass = np.trapezoid(_pdf(model, inner), inner)
    assert density.auc_below(model, b) - density.auc_below(model, a) == pytest.approx(
        mass, abs=1e-6)
    assert np.trapezoid(_pdf(model, grid), grid) == pytest.approx(1.0, abs=1e-6)


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
    numeric = np.trapezoid(_pdf(model, grid), grid)
    assert density.auc_above(model, s) == pytest.approx(numeric, abs=1e-4)


def test_tail_mass_analytic_single_kernel():
    # one kernel at 0 with bandwidth 1: mass above s is the normal tail
    model = density.KdeModel(np.array([0.0]), 1.0)
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


# float64 bit patterns a quartile can mishandle: signed zeros (equal, yet told
# apart by their bits), infinities, subnormals, and NaNs with distinct payloads
_SPECIAL_BITS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0, 0.5]
                         ).view(np.uint64).tolist() + [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000BEEF00]
_SIGNED_ZEROS = np.array([0.0, -0.0]).view(np.uint64).tolist()


@st.composite
def _samples(draw):
    """2 to 5 000 values: distinct normals mixed with cells from a small pool, often ties."""
    n = draw(st.integers(2, 20) | st.integers(2, 5000))
    bits = st.sampled_from(_SPECIAL_BITS) | st.integers(0, 2**64 - 1)
    pool = draw(st.just(_SIGNED_ZEROS) | st.lists(bits, min_size=1, max_size=6))
    pool = np.array(pool, dtype=np.uint64).view(np.float64)
    share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pooled = pool[rng.integers(0, pool.size, n)]
    return np.where(rng.random(n) < share, pooled, rng.standard_normal(n))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _np_percentile_silverman(samples):
    # silverman_bandwidth as it was written on np.std and np.percentile
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 1:
        return density.BANDWIDTH_FLOOR
    spread_std = np.std(samples, ddof=1)
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    spread_iqr = (q75 - q25) / 1.34
    spread = min(spread_std, spread_iqr) if spread_iqr > 0.0 else spread_std
    return max(0.9 * spread * n ** (-0.2), density.BANDWIDTH_FLOOR)


@settings(max_examples=400, deadline=None)
@given(samples=_samples())
@example(samples=np.array([-0.0, 0.0]))
@example(samples=np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0]))
@example(samples=np.array([-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0, np.nan]))
@example(samples=np.array([1.0, 1.0, 1.0, 1.0, -np.inf, np.inf]))
def test_quartiles_match_np_percentile_bit_for_bit(samples):
    with np.errstate(all="ignore"):
        expected = np.percentile(samples, [75.0, 25.0])
    assert _bits(density._quartiles(samples)) == _bits(expected)


@settings(max_examples=200, deadline=None)
@given(samples=_samples())
def test_silverman_bandwidth_is_bit_equal_to_the_np_percentile_formula(samples):
    with np.errstate(all="ignore"):
        expected = _np_percentile_silverman(samples)
        got = density.silverman_bandwidth(samples)
    assert _bits(got) == _bits(expected)


def test_fit_kde_validation():
    with pytest.raises(ValueError):
        density.fit_kde([])
    model = density.fit_kde([[1.0, 2.0], [3.0, 4.0]])
    assert model.samples.shape == (4,)
    assert model.bandwidth == density.silverman_bandwidth([1.0, 2.0, 3.0, 4.0])


def test_intersection_cutoff_between_separated_classes():
    rng = np.random.default_rng(4)
    low = density.fit_kde(rng.standard_normal(300) * 0.5)
    high = density.fit_kde(rng.standard_normal(300) * 0.5 + 4.0)
    cutoff = density.intersection_cutoff(low, high)
    assert 1.0 < cutoff < 3.0
    # equal-variance Gaussians cross at the midpoint of the means
    assert cutoff == pytest.approx(2.0, abs=0.3)
    assert abs(_pdf(low, cutoff) - _pdf(high, cutoff)) < 0.05


def test_intersection_cutoff_minimizes_stray_mass():
    rng = np.random.default_rng(5)
    f_u = density.fit_kde(rng.standard_normal(128))
    f_c = density.fit_kde(rng.standard_normal(128) + 2.5)
    cutoff = density.intersection_cutoff(f_u, f_c)
    objective = lambda s: density.auc_above(f_u, s) + density.auc_below(f_c, s)
    best = objective(cutoff)
    probe = np.linspace(-3.0, 6.0, 700)
    assert best <= objective(probe).min() + 1e-9


def test_degenerate_identical_samples_still_produce_cutoff():
    f_u = density.fit_kde(np.zeros(5))
    f_c = density.fit_kde(np.zeros(5))
    assert density.intersection_cutoff(f_u, f_c) == 0.0


def test_grid_evaluation_is_blocked_and_bit_identical(traced_peak):
    rng = np.random.default_rng(9)
    f_u = density.fit_kde(rng.standard_normal(6000))
    f_c = density.fit_kde(rng.standard_normal(6000) + 2.0)
    _, peak = traced_peak(lambda: density.intersection_cutoff(f_u, f_c))
    assert peak <= 10e6  # one 1024 x 6000 float matrix alone is 49 MB
    # every grid point is its own reduction: blocked values equal the one-shot matrix
    grid = np.linspace(-4.0, 6.0, 200)
    small = density.fit_kde(rng.standard_normal(300))
    z = (grid[:, None] - small.samples[None, :]) / small.bandwidth
    assert density.auc_below(small, grid).tobytes() == ndtr(z).mean(axis=1).tobytes()
    assert density.auc_above(small, grid).tobytes() == ndtr(-z).mean(axis=1).tobytes()
    assert density.auc_below(small, grid[7]) == density.auc_below(small, grid)[7]
