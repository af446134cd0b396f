"""Network scorer: forward pass, exact loss gradients, training, naive baseline."""

import hashlib
import threading

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from panelscan import density, pcafeat, scorer

# symmetric two-row case: scores 0/0 at s=0 gives BCE ln 2 and AUC 0.5 + 0.5
SYMMETRIC_LOSS = 1.6931471805599453
# d loss / d W for that case with inputs -1/+1: -(2 * (0.25 + phi(0)))
SYMMETRIC_W_GRAD = -1.2978845608028654
# minibatch training of _imbalanced_set() with 4-row batches, where most
# batches hold one class, as the loop before the merged gradient path
# recorded it: (loss, cut-off) per iteration
MINIBATCH_HISTORY = (
    (3.0675998236711894, -6.638637781288035),
    (3.0028059767931436, -6.637637781291724),
    (2.9505776410090356, -6.636639156723269),
    (2.904272049463919, -6.635669463930015),
    (2.85597985623399, -6.634693297633828),
    (2.804885617507684, -6.633710460450592),
    (2.7548843808433574, -6.632725394113886),
    (2.7039173824180556, -6.63180064429798),
    (2.650573726114371, -6.630855039270437),
    (2.602606563109425, -6.629983165413078),
    (2.5550423788817422, -6.62907992915352),
    (2.5085788762820505, -6.628174903532401),
    (2.462688177768954, -6.627234185569379),
    (2.4173790206339874, -6.626288508919559),
    (2.3742892004320093, -6.625477077712147),
    (2.3345240663753795, -6.624698644546916),
    (2.2931210182534096, -6.623865867830623),
    (2.2555325424821895, -6.6230464534811775),
    (2.217849285006293, -6.622258861504398),
    (2.1831657530554995, -6.621513480969811),
    (2.1511241803861703, -6.620790222169331),
    (2.118134220691018, -6.6200275686802215),
    (2.0881488255956677, -6.619301372126419),
    (2.0596477053887803, -6.618586997125449),
    (2.031542883247888, -6.618026597369139),
)


def _toy_net(dims, seed, cutoff=0.1, temperature=0.7):
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-0.5, 0.5, size=(dims[l + 1], dims[l]))
               for l in range(len(dims) - 1)]
    biases = [rng.uniform(-0.5, 0.5, size=dims[l + 1]) for l in range(len(dims) - 1)]
    return scorer.ScoringNetwork(layer_dims=list(dims), weights=weights,
                                 biases=biases, cutoff=cutoff, temperature=temperature)


def _toy_batch(p, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    A = np.zeros(n)
    A[: n // 2] = 1.0
    return X, A


def test_forward_matches_manual_relu_chain():
    net = _toy_net([3, 4, 1], seed=0)
    x = np.array([0.3, -1.2, 0.7])
    hidden = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
    expected = float((net.weights[1] @ hidden + net.biases[1])[0])
    assert scorer.forward(net, x) == pytest.approx(expected, rel=1e-14)
    batch = np.vstack([x, 2 * x])
    out = scorer.forward(net, batch)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(expected, rel=1e-14)


def _row_major_chain(net, batch):
    """The plain ReLU chain a @ W^T + b, one layer at a time."""
    a = batch
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ W.T + b, 0.0)
    return (a @ net.weights[-1].T + net.biases[-1])[:, 0]


def _unit_major_chain(net, batch):
    """The order forward documents: W @ a^T on a column-major copy, then a
    row-major output layer on a C-contiguous copy of the last activation."""
    a = np.asfortranarray(batch).T
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(W @ a + b[:, None], 0.0)
    return (np.ascontiguousarray(a.T) @ net.weights[-1].T + net.biases[-1])[:, 0]


def test_forward_single_row_is_bit_identical_to_row_major_chain():
    for dims, seed in (([3, 4, 1], 0), ([206, 64, 32, 1], 1), ([9, 5, 3, 1], 2)):
        net = _toy_net(dims, seed=seed)
        rows = np.random.default_rng(seed + 10).standard_normal((20, dims[0]))
        for x in rows:
            assert scorer.forward(net, x) == _row_major_chain(net, x[None, :])[0]


def test_forward_batch_is_bit_identical_across_memory_layouts():
    # BLAS sums in a shape-dependent order, so a batch matches the row-major
    # chain only to round-off; it matches the documented unit-major order,
    # whatever the layout of the rows it is given, bit for bit
    net = _toy_net([206, 64, 32, 1], seed=3)
    rows = np.random.default_rng(4).standard_normal((2000, 206))
    for n in (2, 7, 16, 17, 255, 1000):
        strided = rows[: 2 * n : 2]  # every other row: a non-contiguous view
        expected = _unit_major_chain(net, np.ascontiguousarray(strided))
        for batch in (np.ascontiguousarray(strided), np.asfortranarray(strided), strided):
            assert np.array_equal(scorer.forward(net, batch), expected)
        np.testing.assert_allclose(expected, _row_major_chain(net, strided),
                                   rtol=1e-13, atol=1e-13)


def test_forward_single_row_is_bit_identical_across_memory_layouts():
    # the vector branch sees a strided row of an F-ordered array and an
    # overlapping row of a sliding-window view; both must give the bits of
    # a contiguous copy, through the PCA features and through the network
    # (one without hidden layers too, where the row meets the output dot)
    nets = (_toy_net([206, 64, 32, 1], seed=5), _toy_net([206, 1], seed=7))
    rng = np.random.default_rng(6)
    series = 100.0 + np.cumsum(rng.standard_normal(900))
    sliding = np.lib.stride_tricks.sliding_window_view(series, 206)
    pca = pcafeat.fit_pca(sliding[::3], k=40)
    fortran = np.asfortranarray(sliding[::7])
    for i in range(0, 90, 9):
        for row in (fortran[i], sliding[7 * i]):
            copy = np.ascontiguousarray(row)
            eps = pcafeat.reconstruction_errors(pca, row).epsilon
            assert np.array_equal(eps, pcafeat.reconstruction_errors(pca, copy).epsilon)
            for net in nets:
                expected = _row_major_chain(net, copy[None, :])[0]
                assert scorer.forward(net, row) == scorer.forward(net, copy) == expected


def test_forward_validates_width():
    net = _toy_net([3, 2, 1], seed=1)
    with pytest.raises(ValueError):
        scorer.forward(net, np.ones(4))


def test_symmetric_case_analytic_loss_and_gradient():
    # identity-like net: score(x) = w x with w = 0 collapses both rows to s
    net = scorer.ScoringNetwork(layer_dims=[1, 1], weights=[np.zeros((1, 1))],
                                biases=[np.zeros(1)], cutoff=0.0, temperature=1.0)
    X = np.array([[-1.0], [1.0]])
    A = np.array([0.0, 1.0])
    terms = scorer.loss_terms(net, X, A, bandwidths=(1.0, 1.0))
    assert terms.total == pytest.approx(SYMMETRIC_LOSS, rel=1e-12)
    assert terms.bce == pytest.approx(np.log(2.0), rel=1e-12)
    assert terms.auc_u == pytest.approx(0.5, rel=1e-12)
    assert terms.auc_c == pytest.approx(0.5, rel=1e-12)
    grads = scorer.loss_gradient(net, X, A, bandwidths=(1.0, 1.0))
    assert grads.weights[0][0, 0] == pytest.approx(SYMMETRIC_W_GRAD, rel=1e-12)
    assert grads.biases[0][0] == pytest.approx(0.0, abs=1e-15)
    assert grads.cutoff == pytest.approx(0.0, abs=1e-15)
    # the training steps' BCE-only fallback is not the loss of a single-class batch
    for one_class in (np.zeros(2), np.ones(2)):
        with pytest.raises(ValueError, match="both classes required"):
            scorer.loss_gradient(net, X, one_class, bandwidths=(1.0, 1.0))
        with pytest.raises(ValueError, match="both classes required"):
            scorer.loss_terms(net, X, one_class)


def _fd_check(net, X, A, bandwidths, step=1e-6):
    grads = scorer.loss_gradient(net, X, A, bandwidths=bandwidths)

    def probe(apply):
        apply(+step)
        up = scorer.loss(net, X, A, bandwidths=bandwidths)
        apply(-2 * step)
        down = scorer.loss(net, X, A, bandwidths=bandwidths)
        apply(+step)
        return (up - down) / (2 * step)

    for layer in range(len(net.weights)):
        W = net.weights[layer]
        for idx in np.ndindex(W.shape):
            fd = probe(lambda h, W=W, idx=idx: W.__setitem__(idx, W[idx] + h))
            assert abs(fd - grads.weights[layer][idx]) <= 1e-6 + 1e-4 * abs(fd)
        b = net.biases[layer]
        for i in range(b.size):
            fd = probe(lambda h, b=b, i=i: b.__setitem__(i, b[i] + h))
            assert abs(fd - grads.biases[layer][i]) <= 1e-6 + 1e-4 * abs(fd)

    def shift_cutoff(h):
        net.cutoff += h
    fd = probe(shift_cutoff)
    assert abs(fd - grads.cutoff) <= 1e-6 + 1e-4 * abs(fd)


def test_gradients_match_finite_differences():
    # bandwidths pinned: the training loop holds them constant inside a step
    for seed in range(20):
        net = _toy_net([4, 5, 3, 1], seed=seed)
        X, A = _toy_batch(4, 30, seed + 100)
        _fd_check(net, X, A, bandwidths=(0.8, 0.9))


def test_gradient_respects_probability_clip():
    # saturated rows drop out of the BCE gradient instead of exploding
    net = _toy_net([2, 1], seed=3, cutoff=0.0, temperature=1e-3)
    net.weights[0] = np.array([[10.0, 0.0]])
    net.biases[0] = np.zeros(1)
    X = np.array([[5.0, 0.0], [-5.0, 0.0]])
    A = np.array([1.0, 0.0])
    grads = scorer.loss_gradient(net, X, A, bandwidths=(1.0, 1.0))
    assert np.all(np.isfinite(grads.weights[0]))
    assert np.isfinite(grads.cutoff)


def _separable_set(seed=0, n=60):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([
        rng.normal([-1.0, 0.0], 0.1, size=(half, 2)),
        rng.normal([1.0, 0.0], 0.1, size=(half, 2)),
    ])
    A = np.concatenate([np.zeros(half), np.ones(half)])
    return X, A


def _imbalanced_set(seed=31):
    """36 clean rows and 4 contaminated ones."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 0.3, size=(36, 3)), rng.normal(0.8, 0.3, size=(4, 3))])
    A = np.concatenate([np.zeros(36), np.ones(4)])
    return X, A


def test_training_separates_planted_classes():
    X, A = _separable_set(seed=7)
    result = scorer.train(X, A, scorer.TrainConfig(hidden_dims=(8,), max_iters=150, seed=2))
    net = result.network
    scores = scorer.forward(net, X)
    predicted = (scores > net.cutoff).astype(float)
    np.testing.assert_array_equal(predicted, A)
    assert result.best_loss <= result.history[0].loss
    # perfect ranking: every contaminated score beats every clean score
    stat = mannwhitneyu(scores[A == 1], scores[A == 0], alternative="greater").statistic
    assert stat == pytest.approx((A == 1).sum() * (A == 0).sum())


def test_training_reduces_loss_on_overlapping_classes():
    rng = np.random.default_rng(23)
    X = np.vstack([
        rng.normal([-0.4, 0.0], 0.35, size=(40, 2)),
        rng.normal([0.4, 0.0], 0.35, size=(40, 2)),
    ])
    A = np.concatenate([np.zeros(40), np.ones(40)])
    result = scorer.train(X, A, scorer.TrainConfig(hidden_dims=(8,), max_iters=200, seed=4))
    assert result.history[0].loss > 0.1
    assert result.best_loss < result.history[0].loss


def test_training_history_and_best_snapshot():
    X, A = _separable_set(seed=9, n=40)
    cfg = scorer.TrainConfig(hidden_dims=(6,), max_iters=50, seed=3)
    result = scorer.train(X, A, cfg)
    assert len(result.history) == 51
    assert [row.iteration for row in result.history] == list(range(51))
    losses = [row.loss for row in result.history]
    assert result.best_loss == min(losses)
    assert losses[result.best_iteration] == result.best_loss
    # returned parameters reproduce the recorded best loss exactly
    assert scorer.loss(result.network, X, A) == pytest.approx(result.best_loss, rel=1e-12)


def test_training_best_loss_is_the_loss_of_the_returned_network():
    X, A = _toy_batch(6, 61, seed=12)
    cfg = scorer.TrainConfig(hidden_dims=(8, 4), max_iters=40, seed=5)
    result = scorer.train(X, A, cfg)
    assert result.best_loss == scorer.loss(result.network, X, A)
    assert result.best_loss == scorer.loss(result.network, np.asfortranarray(X), A)


def test_training_is_deterministic_per_seed():
    X, A = _separable_set(seed=11, n=30)
    cfg = scorer.TrainConfig(hidden_dims=(5,), max_iters=20, seed=8)
    a = scorer.train(X, A, cfg)
    b = scorer.train(X, A, cfg)
    for wa, wb in zip(a.network.weights, b.network.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.network.cutoff == b.network.cutoff
    c = scorer.train(X, A, scorer.TrainConfig(hidden_dims=(5,), max_iters=20, seed=9))
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.network.weights, c.network.weights))


def test_training_single_iteration_runs():
    X, A = _separable_set(seed=13, n=20)
    result = scorer.train(X, A, scorer.TrainConfig(hidden_dims=(4,), max_iters=1, seed=0))
    assert len(result.history) == 2
    assert np.isfinite(result.best_loss)


def test_training_temperature_fixed_by_default():
    X, A = _separable_set(seed=15, n=24)
    cfg = scorer.TrainConfig(hidden_dims=(4,), max_iters=8, seed=1)
    result = scorer.train(X, A, cfg)
    assert result.network.temperature == scorer.TrainConfig().temperature
    assert result.network.temperature == 0.2


def test_training_rejects_non_positive_temperature():
    X, A = _separable_set(seed=15, n=24)
    for tau in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            scorer.train(X, A, scorer.TrainConfig(max_iters=2, temperature=tau))


def test_training_refuses_meaningless_configurations_before_any_work(monkeypatch):
    X, A = _separable_set(seed=15, n=24)

    def no_work(*args):
        raise AssertionError("train did work before refusing its configuration")

    monkeypatch.setattr(scorer, "_init_network", no_work)
    threads = threading.active_count()
    for dims in ((0,), (8, 0), (-3,)):
        with pytest.raises(ValueError, match="hidden widths must be >= 1"):
            scorer.train(X, A, scorer.TrainConfig(hidden_dims=dims))
    assert threading.active_count() == threads


def test_training_validation_and_divergence_guard():
    X, A = _separable_set(seed=17, n=20)
    with pytest.raises(ValueError):
        scorer.train(X, np.zeros(20), scorer.TrainConfig(max_iters=2))
    with pytest.raises(ValueError):
        scorer.train(X, A[:-1], scorer.TrainConfig(max_iters=2))
    with pytest.raises(ValueError):
        scorer.train(X, A, scorer.TrainConfig(max_iters=0))
    for lr in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            scorer.train(X, A, scorer.TrainConfig(learning_rate=lr))
    X_bad = X.copy()
    X_bad[0, 0] = np.nan
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="diverged at iteration 0"):
        scorer.train(X_bad, A, scorer.TrainConfig(hidden_dims=(4,), max_iters=2, seed=0))
    with pytest.raises(FloatingPointError, match="diverged at iteration 0"):
        scorer.train(X_bad, A, scorer.TrainConfig(hidden_dims=(4,), max_iters=40, seed=0))
    assert threading.active_count() == threads


def test_training_books_earlier_observations_before_a_step_error(monkeypatch):
    # the third step fails while observations 0..2 may still be in flight
    X, A = _separable_set(seed=17, n=20)
    forward_cached = scorer._forward_cached
    calls = []

    def failing_step(net, rows):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("step failed")
        return forward_cached(net, rows)

    monkeypatch.setattr(scorer, "_forward_cached", failing_step)
    threads = threading.active_count()
    cfg = scorer.TrainConfig(hidden_dims=(4,), max_iters=40, seed=0)
    with pytest.raises(RuntimeError, match="step failed"):
        scorer.train(X, A, cfg)
    X_bad = X.copy()
    X_bad[0, 0] = np.nan
    calls.clear()
    # a serial run books the non-finite observation 0 before step 2 can fail
    with pytest.raises(FloatingPointError, match="diverged at iteration 0"):
        scorer.train(X_bad, A, cfg)
    assert threading.active_count() == threads


def test_training_history_row_matches_its_iterate_across_the_lookahead():
    X, A = _toy_batch(6, 61, seed=12)
    lookahead = 2 * scorer._observer_count()

    def run(iters):
        cfg = scorer.TrainConfig(hidden_dims=(8, 4), max_iters=iters, seed=5)
        return scorer.train(X, A, cfg)

    full = run(40)
    assert len(full.history) == 41
    for k in sorted({1, lookahead - 1, lookahead, lookahead + 1, 40}):
        assert full.history[k] == run(k).history[-1]


def test_minibatch_training_history_is_unchanged(monkeypatch):
    monkeypatch.setattr(scorer, "BATCH_SIZE", 4)
    X, A = _imbalanced_set()
    cfg = scorer.TrainConfig(hidden_dims=(5,), max_iters=24, seed=7)
    result = scorer.train(X, A, cfg)
    assert [row.iteration for row in result.history] == list(range(25))
    # rel 1e-12 leaves room for other BLAS kernels; a wrong iterate is off by far more
    for row, (loss, cutoff) in zip(result.history, MINIBATCH_HISTORY):
        assert row.loss == pytest.approx(loss, rel=1e-12)
        assert row.cutoff == pytest.approx(cutoff, rel=1e-12)
    assert result.best_iteration == 24
    assert result.network.cutoff == pytest.approx(MINIBATCH_HISTORY[-1][1], rel=1e-12)


def test_training_observations_run_under_the_callers_errstate(monkeypatch):
    observe = scorer._observe
    caller = threading.get_ident()
    seen = []

    def recording(*args):
        seen.append((threading.get_ident() == caller, np.geterr()))
        return observe(*args)

    monkeypatch.setattr(scorer, "_observe", recording)
    ignore_all = {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}
    # 20 rows take 16-row minibatches; 12 rows, at most one batch, step on all rows
    for n in (20, 12):
        X, A = _separable_set(seed=13, n=n)
        seen.clear()
        with np.errstate(all="ignore"):
            scorer.train(X, A, scorer.TrainConfig(hidden_dims=(4,), max_iters=10, seed=0))
        assert len(seen) == 11
        # the calling thread only takes the steps; the pool runs every observation
        assert not any(on_caller for on_caller, _ in seen)
        assert all(state == ignore_all for _, state in seen)


def _per_parameter_adam(params, m, v, grads, t, learning_rate):
    # the loop the flat step replaced: each of W..., b..., s on its own, s a scalar
    correct1 = 1.0 - scorer.ADAM_BETA1**t
    correct2 = 1.0 - scorer.ADAM_BETA2**t
    for i, g in enumerate(grads):
        m[i] = scorer.ADAM_BETA1 * m[i] + (1.0 - scorer.ADAM_BETA1) * g
        v[i] = scorer.ADAM_BETA2 * v[i] + (1.0 - scorer.ADAM_BETA2) * g ** 2
        params[i] = params[i] - learning_rate * (m[i] / correct1) / (
            np.sqrt(v[i] / correct2) + scorer.ADAM_EPS)


def test_flat_adam_step_is_bit_equal_to_the_per_parameter_loop():
    rng = np.random.default_rng(31)
    net = _toy_net((5, 4, 3, 1), seed=30)
    params = [*net.weights, *net.biases, net.cutoff]
    theta = scorer._flat(net.weights, net.biases, net.cutoff)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    m_ref = [np.zeros_like(p) for p in params]
    v_ref = [np.zeros_like(p) for p in m_ref]
    # s's first gradients are values whose pow(g, 2) and g * g round apart in v
    decay = 1.0 - scorer.ADAM_BETA2
    cutoff_grads = [g for g in rng.standard_normal(100_000).tolist()
                    if decay * g ** 2 != decay * (g * g)][:3]
    assert len(cutoff_grads) == 3
    for t, cutoff_grad in enumerate([*cutoff_grads, 0.37, -1e-9], start=1):
        grads = [rng.standard_normal(np.shape(p)) * 10.0 ** rng.integers(-8, 2)
                 for p in params[:-1]] + [cutoff_grad]
        g = scorer._flat(grads[:3], grads[3:-1], grads[-1])
        before = theta.copy()
        new_theta = scorer._adam_step(theta, m, v, g, t, 1e-3)
        np.testing.assert_array_equal(theta, before)  # the old theta stays as it was
        theta = new_theta
        _per_parameter_adam(params, m_ref, v_ref, grads, t, 1e-3)
        for flat, per_parameter in ((theta, params), (m, m_ref), (v, v_ref)):
            expected = scorer._flat(per_parameter[:3], per_parameter[3:-1], per_parameter[-1])
            assert flat.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    stepped = scorer._network(theta, net.layer_dims, net.temperature)
    assert all(np.shares_memory(a, theta) for a in (*stepped.weights, *stepped.biases))
    assert type(stepped.cutoff) is float and stepped.cutoff == params[-1]


def _digest(net):
    arrays = (*net.weights, *net.biases, np.float64(net.cutoff))
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def test_training_never_writes_into_an_iterate_it_handed_out(monkeypatch):
    # the observers read each iterate by reference while later steps run
    observe = scorer._observe
    arrived = []

    def hashing(net, *args):
        arrived.append((net, _digest(net)))
        return observe(net, *args)

    monkeypatch.setattr(scorer, "_observe", hashing)
    X, A = _toy_batch(6, 61, seed=12)
    result = scorer.train(X, A, scorer.TrainConfig(hidden_dims=(8, 4), max_iters=40, seed=5))
    assert len(arrived) == 41
    assert all(_digest(net) == digest for net, digest in arrived)
    assert len({digest for _, digest in arrived}) == 41
    assert any(net is result.network for net, _ in arrived)
    assert type(result.network.cutoff) is float


def test_naive_scores_are_row_norms():
    assert scorer.naive_scores(np.array([3.0, 4.0])) == 5.0
    eps = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(scorer.naive_scores(eps), [5.0, 0.0, np.sqrt(2.0)], rtol=1e-15)


def test_naive_fit_matches_density_crossing():
    rng = np.random.default_rng(19)
    eps_u = rng.normal(0.0, 0.05, size=(80, 4))
    eps_c = rng.normal(0.0, 0.05, size=(80, 4)) + 0.6
    eps = np.vstack([eps_u, eps_c])
    A = np.concatenate([np.zeros(80), np.ones(80)])
    cut = scorer.naive_fit(eps, A)
    norms = scorer.naive_scores(eps)
    f_u = density.fit_kde(norms[A == 0])
    f_c = density.fit_kde(norms[A == 1])
    assert cut == density.intersection_cutoff(f_u, f_c)
    assert norms[A == 0].mean() < cut < norms[A == 1].mean()
