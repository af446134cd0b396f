"""Panel generation: GBM paths, contamination, windowing, selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelscan import simgen, workflows

# Zero-volatility paths are deterministic: S_t = 100 exp(0.1 t).
ZERO_VOL_PATH = np.array([
    110.51709180756477,
    122.14027581601698,
    134.98588075760032,
    149.18246976412703,
    164.87212707001282,
])


def test_zero_volatility_is_pure_drift():
    panel = simgen.simulate_paths(
        s0=[100.0], mu=[0.1], sigma=[0.0],
        correlation=0.0, dt=1.0, n_steps=5, seed=0,
    )
    np.testing.assert_allclose(panel.prices[0], ZERO_VOL_PATH, rtol=1e-12)


def test_simulated_panel_shape_and_positivity():
    cfg = simgen.DiffusionConfig(n_stocks=5, n_steps=40, seed=7)
    panel = simgen.simulate_gbm(cfg)
    assert panel.prices.shape == (5, 40)
    assert np.all(panel.prices > 0)
    assert np.all((panel.mu >= simgen.DRIFT_RANGE[0]) & (panel.mu <= simgen.DRIFT_RANGE[1]))
    assert np.all((panel.sigma >= simgen.VOL_RANGE[0]) & (panel.sigma <= simgen.VOL_RANGE[1]))
    assert panel.n_stocks == 5 and panel.n_steps == 40


def test_simulation_is_bit_identical_per_seed():
    cfg = simgen.DiffusionConfig(n_stocks=4, n_steps=30, seed=3)
    a = simgen.simulate_gbm(cfg)
    b = simgen.simulate_gbm(cfg)
    np.testing.assert_array_equal(a.prices, b.prices)
    c = simgen.simulate_gbm(simgen.DiffusionConfig(n_stocks=4, n_steps=30, seed=4))
    assert not np.array_equal(a.prices, c.prices)


def test_parameters_come_first_in_each_stream():
    # A stock's draw order is S0, mu, sigma, shocks from default_rng([seed, i]).
    cfg = simgen.DiffusionConfig(n_stocks=3, n_steps=10, seed=11)
    panel = simgen.simulate_gbm(cfg)
    for i in range(3):
        rng = np.random.default_rng([11, i])
        s0 = simgen.S0_MEAN + simgen.S0_STD * rng.standard_normal()
        mu = rng.uniform(*simgen.DRIFT_RANGE)
        sigma = rng.uniform(*simgen.VOL_RANGE)
        assert panel.s0[i] == s0
        assert panel.mu[i] == mu
        assert panel.sigma[i] == sigma


def test_log_returns_follow_annualized_convention():
    # One step: log S_{t+1} - log S_t = (mu - sigma^2/2) dt + sigma sqrt(dt) z.
    dt = 1.0 / 252.0
    panel = simgen.simulate_paths(
        s0=[50.0], mu=[0.12], sigma=[0.05],
        correlation=0.0, dt=dt, n_steps=8, seed=23,
    )
    rng = np.random.default_rng([23, 0])
    z = rng.standard_normal(8)
    expected = (0.12 - 0.5 * 0.05**2) * dt + 0.05 * np.sqrt(dt) * z
    np.testing.assert_allclose(np.diff(np.log(panel.prices[0])), expected[1:], rtol=1e-10)
    assert np.log(panel.prices[0, 0] / 50.0) == pytest.approx(expected[0], rel=1e-12)


def test_return_correlation_converges_to_target():
    n = 4
    panel = simgen.simulate_paths(
        s0=np.full(n, 100.0), mu=np.zeros(n), sigma=np.full(n, 0.2),
        correlation=0.5, dt=1.0 / 252.0, n_steps=20000, seed=17,
    )
    rets = np.diff(np.log(panel.prices), axis=1)
    corr = np.corrcoef(rets)
    off = corr[~np.eye(n, dtype=bool)]
    np.testing.assert_allclose(off, 0.5, atol=0.02)


@pytest.mark.parametrize("dt, n_steps", [(0.0, 5), (-1e-3, 5), (float("nan"), 5),
                                         (float("inf"), 5), (1e-3, 0), (1e-3, -3)])
def test_both_simulators_refuse_a_bad_step_size_or_count(dt, n_steps):
    with pytest.raises(ValueError, match="dt must be finite and > 0|n_steps must be >= 1"):
        simgen.simulate_paths(s0=[100.0, 90.0], mu=[0.1, 0.05], sigma=[0.02, 0.03],
                              correlation=0.3, dt=dt, n_steps=n_steps, seed=0)
    with pytest.raises(ValueError, match="dt must be finite and > 0|n_steps must be >= 1"):
        simgen.simulate_gbm(simgen.DiffusionConfig(n_stocks=2, n_steps=n_steps, dt=dt))


def test_correlation_matrix_validation():
    with pytest.raises(ValueError):
        simgen.correlation_matrix(1.0, 3)
    with pytest.raises(ValueError):
        simgen.correlation_matrix(-0.1, 3)
    bad = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValueError):
        simgen.correlation_matrix(bad, 2)
    full = simgen.correlation_matrix(0.5, 3)
    np.testing.assert_array_equal(np.diag(full), 1.0)
    assert full[0, 1] == 0.5


def test_contaminate_marks_exactly_the_shocked_stamps():
    cfg = simgen.DiffusionConfig(n_stocks=6, n_steps=120, seed=2)
    clean = simgen.simulate_gbm(cfg)
    dirty, labels = simgen.contaminate(clean, simgen.ContaminationConfig(n_anom=4, rho=0.04, seed=9))
    assert labels.shape == clean.prices.shape
    np.testing.assert_array_equal(labels.sum(axis=1), 4)
    ratio = dirty.prices / clean.prices
    hot = labels == 1
    np.testing.assert_array_equal(ratio[~hot], 1.0)
    assert np.all(np.abs(ratio[hot] - 1.0) <= 0.04)
    assert np.all(ratio[hot] != 1.0)


def test_contaminate_degenerate_settings():
    cfg = simgen.DiffusionConfig(n_stocks=2, n_steps=20, seed=5)
    clean = simgen.simulate_gbm(cfg)
    same, labels = simgen.contaminate(clean, simgen.ContaminationConfig(n_anom=0, seed=1))
    np.testing.assert_array_equal(same.prices, clean.prices)
    assert labels.sum() == 0
    flat, labels = simgen.contaminate(clean, simgen.ContaminationConfig(n_anom=3, rho=0.0, seed=1))
    np.testing.assert_array_equal(flat.prices, clean.prices)
    np.testing.assert_array_equal(labels.sum(axis=1), 3)
    with pytest.raises(ValueError):
        simgen.contaminate(clean, simgen.ContaminationConfig(n_anom=21, seed=1))


@pytest.mark.parametrize("rho", [-0.01, 1.0, 1.5, float("nan")])
def test_contaminate_refuses_rho_outside_unit_interval(rho):
    clean = simgen.simulate_gbm(simgen.DiffusionConfig(n_stocks=2, n_steps=20, seed=5))
    with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\)"):
        simgen.contaminate(clean, simgen.ContaminationConfig(n_anom=2, rho=rho, seed=1))


def test_slide_counts_and_contents():
    prices = np.arange(3 * 30, dtype=float).reshape(3, 30) + 1.0
    labels = np.zeros_like(prices, dtype=np.int64)
    labels[1, 14] = 1
    panel = simgen.PricePanel(prices, np.ones(3), np.zeros(3), np.zeros(3), 1.0)
    X, sY, prov = simgen.slide(panel, labels, 11)
    assert X.shape == (3 * 20, 11)
    assert sY.shape == X.shape and prov.shape == (60, 2)
    np.testing.assert_array_equal(X[0], prices[0, :11])
    np.testing.assert_array_equal(X[59], prices[2, 19:30])
    np.testing.assert_array_equal(prov[0], [0, 0])
    np.testing.assert_array_equal(prov[59], [2, 19])
    # label matrix slides in lockstep: stamp (1, 14) shows in offsets 4..14
    hit = np.flatnonzero(sY.sum(axis=1))
    np.testing.assert_array_equal(prov[hit, 0], 1)
    np.testing.assert_array_equal(prov[hit, 1], np.arange(4, 15))
    for row in hit:
        off = prov[row, 1]
        assert sY[row, 14 - off] == 1


def test_slide_desk_scale_window_count():
    # 1000 steps and length-206 windows give 795 per series.
    prices = np.ones((2, 1000))
    labels = np.zeros((2, 1000), dtype=np.int64)
    X, _, _ = simgen.slide(prices, labels, 206)
    assert X.shape == (2 * 795, 206)


def test_slide_validation():
    prices = np.ones((2, 10))
    labels = np.zeros((2, 10), dtype=np.int64)
    with pytest.raises(ValueError):
        simgen.slide(prices, labels, 11)
    with pytest.raises(ValueError):
        simgen.slide(prices, labels, 0)
    with pytest.raises(ValueError):
        simgen.slide(prices, np.zeros((3, 10)), 5)


def _synthetic_rows(n_clean, n_single, n_multi, p=8, seed=0):
    rng = np.random.default_rng(seed)
    n = n_clean + n_single + n_multi
    X = rng.standard_normal((n, p))
    sY = np.zeros((n, p), dtype=np.int64)
    for i in range(n_clean, n_clean + n_single):
        sY[i, rng.integers(p)] = 1
    for i in range(n_clean + n_single, n):
        cols = rng.choice(p, size=2, replace=False)
        sY[i, cols] = 1
    prov = np.column_stack([np.arange(n), np.zeros(n, dtype=np.int64)])
    return X, sY, prov


def test_select_train_is_exactly_balanced():
    X, sY, prov = _synthetic_rows(n_clean=40, n_single=12, n_multi=5)
    keep = simgen.select(sY.sum(axis=1), "train", seed=1)
    X_sel, sY_sel, prov_sel = X[keep], sY[keep], prov[keep]
    counts = sY_sel.sum(axis=1)
    assert X_sel.shape[0] == 24
    assert (counts == 1).sum() == 12 and (counts == 0).sum() == 12
    assert np.all(counts <= 1)
    assert prov_sel.shape == (24, 2)
    assert np.all(np.diff(keep) > 0)


def test_select_train_caps_to_clean_supply():
    # more single-anomaly rows than clean rows: balance at the clean count
    X, sY, _ = _synthetic_rows(n_clean=4, n_single=10, n_multi=2)
    keep = simgen.select(sY.sum(axis=1), "train", seed=3)
    counts = sY[keep].sum(axis=1)
    assert X[keep].shape[0] == 8
    assert (counts == 1).sum() == 4 and (counts == 0).sum() == 4


def test_select_test_rate_within_one_row():
    _, sY, _ = _synthetic_rows(n_clean=40, n_single=4, n_multi=0)
    keep = simgen.select(sY.sum(axis=1), "test", r_c=0.16, seed=2)
    n_c = int((sY[keep].sum(axis=1) == 1).sum())
    n_u = int((sY[keep].sum(axis=1) == 0).sum())
    assert n_c == 4
    assert n_u == int(np.ceil(n_c * (1 - 0.16) / 0.16))
    rate = n_c / (n_c + n_u)
    assert rate <= 0.16
    assert n_c / (n_c + n_u - 1) >= 0.16


def test_select_test_caps_contaminated_to_supported_rate():
    _, sY, _ = _synthetic_rows(n_clean=21, n_single=10, n_multi=0)
    keep = simgen.select(sY.sum(axis=1), "test", r_c=0.16, seed=5)
    counts = sY[keep].sum(axis=1)
    n_c = int((counts == 1).sum())
    n_u = int((counts == 0).sum())
    # floor(21 * 0.16 / 0.84) = 4 contaminated rows, 21 clean rows
    assert n_c == 4 and n_u == 21
    assert n_c / (n_c + n_u) == pytest.approx(0.16)


def test_select_is_deterministic_and_seed_sensitive():
    X, sY, _ = _synthetic_rows(n_clean=50, n_single=8, n_multi=3, seed=4)
    counts = sY.sum(axis=1)
    a = X[simgen.select(counts, "train", seed=6)]
    b = X[simgen.select(counts, "train", seed=6)]
    np.testing.assert_array_equal(a, b)
    c = X[simgen.select(counts, "train", seed=7)]
    assert not np.array_equal(a, c)


def test_select_errors():
    _, sY, _ = _synthetic_rows(n_clean=10, n_single=0, n_multi=2)
    with pytest.raises(ValueError, match="no contaminated windows"):
        simgen.select(sY.sum(axis=1), "train")
    _, sY, _ = _synthetic_rows(n_clean=0, n_single=5, n_multi=0)
    with pytest.raises(ValueError, match="cannot support"):
        simgen.select(sY.sum(axis=1), "train")
    _, sY, _ = _synthetic_rows(n_clean=10, n_single=5, n_multi=0)
    with pytest.raises(ValueError):
        simgen.select(sY.sum(axis=1), "validate")
    with pytest.raises(ValueError):
        simgen.select(sY.sum(axis=1), "test", r_c=0.0)


def test_label_rules_and_multi_anomaly_guard():
    sY = np.zeros((4, 6), dtype=np.int64)
    sY[1, 3] = 1
    sY[2, 0] = 1
    # p == n_steps: stock i's only window holds value-label row i
    prices, p = np.arange(1.0, sY.size + 1.0).reshape(sY.shape), sY.shape[1]
    lp = simgen.build_labeled_panel(prices, sY, p, "train")
    np.testing.assert_array_equal(lp.ident_labels, [0, 1, 1, 0])
    np.testing.assert_array_equal(lp.loc_labels, [0, 4, 1, 0])
    assert lp.ident_labels.dtype == lp.loc_labels.dtype == np.int64
    # a window with 2 anomalies is never kept, whatever the seed
    sY[3, 1] = sY[3, 5] = 1
    for seed in range(8):
        lp = simgen.build_labeled_panel(prices, sY, p, "test", r_c=1.0, seed=seed)
        np.testing.assert_array_equal(lp.provenance[:, 0], [1, 2])
        np.testing.assert_array_equal(lp.loc_labels, [4, 1])
    sY[3, 1] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        simgen.build_labeled_panel(prices, sY, p, "train")


def test_build_labeled_panel_locations_map_to_stamps():
    cfg = simgen.DiffusionConfig(n_stocks=4, n_steps=90, seed=21)
    clean = simgen.simulate_gbm(cfg)
    dirty, vlabels = simgen.contaminate(clean, simgen.ContaminationConfig(n_anom=2, rho=0.04, seed=8))
    lp = simgen.build_labeled_panel(dirty, vlabels, 20, "train", seed=13)
    assert lp.n_rows == 2 * int(lp.ident_labels.sum())
    assert lp.window_length == 20
    hot = lp.ident_labels == 1
    assert np.all(lp.loc_labels[hot] >= 1) and np.all(lp.loc_labels[hot] <= 20)
    np.testing.assert_array_equal(lp.loc_labels[~hot], 0)
    for row in np.flatnonzero(hot):
        stock, off = lp.provenance[row]
        stamp = off + lp.loc_labels[row] - 1
        assert vlabels[stock, stamp] == 1
        np.testing.assert_array_equal(lp.windows[row], dirty.prices[stock, off:off + 20])


def _reference_windows(prices, labels, p, mode, r_c, seed):
    """The copy-every-window slide -> select -> label path that build_labeled_panel replaced."""
    n_stocks, n_steps = prices.shape
    n_windows = n_steps - p + 1
    view = np.lib.stride_tricks.sliding_window_view
    X = view(prices, p, axis=1).reshape(n_stocks * n_windows, p).copy()
    sY = view(labels, p, axis=1).reshape(n_stocks * n_windows, p).copy()
    provenance = np.column_stack([np.repeat(np.arange(n_stocks), n_windows),
                                  np.tile(np.arange(n_windows), n_stocks)])
    counts = sY.sum(axis=1)
    contaminated = np.flatnonzero(counts == 1)
    clean = np.flatnonzero(counts == 0)
    if contaminated.size == 0:
        raise ValueError("no contaminated windows survive selection")
    if mode == "train":
        n_keep = min(contaminated.size, clean.size)
        n_clean = n_keep
    else:
        if r_c == 1.0:
            n_keep = contaminated.size
        else:
            n_keep = min(contaminated.size, int(np.floor(clean.size * r_c / (1.0 - r_c))))
        n_clean = int(np.ceil(n_keep * (1.0 - r_c) / r_c)) if r_c < 1.0 else 0
    if n_keep == 0:
        raise ValueError(f"{clean.size} uncontaminated windows cannot support "
                         f"mode {mode!r} at r_c={r_c}")
    rng = np.random.default_rng(seed)
    kept_c = rng.choice(contaminated, size=n_keep, replace=False)
    kept_u = rng.choice(clean, size=n_clean, replace=False)
    keep = np.sort(np.concatenate([kept_c, kept_u]))
    sY = sY[keep]
    A = sY.sum(axis=1).astype(np.int64)
    L = np.zeros(sY.shape[0], dtype=np.int64)
    L[A == 1] = np.argmax(sY[A == 1], axis=1) + 1
    return simgen.LabeledPanel(windows=X[keep], ident_labels=A, loc_labels=L,
                               provenance=provenance[keep])


def _build_or_refusal(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def _labeled_panels(draw):
    n_stocks = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 40))
    p = draw(st.integers(1, n_steps))
    labels = np.zeros((n_stocks, n_steps), dtype=np.int64)
    for i in range(n_stocks):  # windows end up with 0, 1 or more anomalies
        stamps = draw(st.lists(st.integers(0, n_steps - 1), max_size=3, unique=True))
        labels[i, stamps] = 1
    prices = np.random.default_rng(draw(st.integers(0, 99))).random((n_stocks, n_steps))
    mode = draw(st.sampled_from(["train", "test"]))
    r_c = draw(st.sampled_from([0.05, 0.16, 0.5, 0.9, 1.0]))
    return prices, labels, p, mode, r_c, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=_labeled_panels())
def test_build_labeled_panel_matches_the_copy_every_window_path(case):
    want = _build_or_refusal(_reference_windows, *case)
    got = _build_or_refusal(simgen.build_labeled_panel, *case)
    if isinstance(want, str):
        assert got == want
        return
    for field in ("windows", "ident_labels", "loc_labels", "provenance"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
        assert a.tobytes() == b.tobytes(), field


def test_windowing_memory_follows_the_kept_rows(traced_peak):
    # seed-0 train half: 15 900 windows of 206, of which 12 030 are kept
    cfg = workflows.PipelineConfig(seed=0)
    panels = workflows.build_panels(cfg)
    kept, peak = traced_peak(lambda: workflows.labeled_windows(
        panels.contaminated_train, panels.train_value_labels, "train",
        cfg.window_length, cfg.r_c, cfg.seed))
    assert peak <= 1.6 * kept.windows.nbytes


def test_split_train_test_partitions_columns():
    cfg = simgen.DiffusionConfig(n_stocks=3, n_steps=50, seed=1)
    panel = simgen.simulate_gbm(cfg)
    head, tail = simgen.split_train_test(panel, 30)
    assert head.prices.shape == (3, 30)
    assert tail.prices.shape == (3, 20)
    np.testing.assert_array_equal(np.hstack([head.prices, tail.prices]), panel.prices)
    for bad in (0, 50, -3):
        with pytest.raises(ValueError):
            simgen.split_train_test(panel, bad)
