"""Anomaly scorers: naive reconstruction-error norms and the trained network.

The network maps a reconstruction-error row to a scalar score through ReLU
hidden layers and an affine output, and carries its own decision cut-off s.
Training minimizes

    loss = BCE(A, p_hat) + AUC_u(s) + AUC_c(s)

where p_hat = logistic((score - s) / tau) is a smooth stand-in for the hard
indicator 1{score > s}, AUC_u is the mass of the uncontaminated score density
above s and AUC_c the mass of the contaminated density below s, both taken
from Gaussian KDEs refit on the current scores at every iteration. With a
Gaussian kernel the AUC terms are means of kernel CDFs, so their gradients
with respect to every score and to s are exact:

    d AUC_u / d s = -f_u(s),   d AUC_c / d s = +f_c(s),

and per-score derivatives are kernel CDF derivatives. Everything else is
plain backpropagation. The optimizer is Adam on 16-row minibatches by default;
the loss is observed on the full training set at every iteration, and the
returned parameters are the best-loss snapshot.

A pool of observer threads runs the full-set observations while the calling
thread takes the Adam steps alone. An observation reads only its own iterate,
which the steps never write into, and touches neither the network being
trained nor the RNG; the results are booked in iteration order. So the
history, the snapshot and every error are those of a serial run, whatever the
number of threads or their timing.
"""

from __future__ import annotations

import collections
import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from . import density

PROB_CLIP = 1e-7
# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BATCH_SIZE = 16  # rows per Adam update

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass
class ScoringNetwork:
    layer_dims: list
    weights: list    # W^l of shape (dims[l+1], dims[l])
    biases: list     # b^l of shape (dims[l+1],)
    cutoff: float
    temperature: float


@dataclass
class TrainConfig:
    hidden_dims: tuple = (64, 32)
    learning_rate: float = 1e-3
    max_iters: int = 2000
    seed: int = 0
    temperature: float = 0.2   # label smoothing scale; initial scores have unit spread


@dataclass
class LossTerms:
    total: float
    bce: float
    auc_u: float
    auc_c: float


@dataclass
class LossGradient:
    weights: list
    biases: list
    cutoff: float


@dataclass
class TrainLogRow:
    iteration: int
    loss: float
    bce: float
    auc_u: float
    auc_c: float
    cutoff: float


@dataclass
class TrainResult:
    network: ScoringNetwork
    history: list
    best_iteration: int

    @property
    def best_loss(self):
        return self.history[self.best_iteration].loss


def _forward_cached(net, batch):
    """Forward pass keeping pre-activations and activations for backprop."""
    activations = [batch]
    pre_activations = []
    a = batch
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ W.T + b
        pre_activations.append(z)
        a = np.maximum(z, 0.0)
        activations.append(a)
    scores = a @ net.weights[-1].T + net.biases[-1]
    return scores[:, 0], pre_activations, activations


def forward(net: ScoringNetwork, epsilon):
    """Score reconstruction-error rows; scalar for a single row.

    A 1-D row runs as a vector: W @ a + b and ReLU per hidden layer, then the
    output row dotted with the last activation. Its bits are those of the
    row-major chain a @ W^T + b on the one-row batch, whatever the row's
    memory layout.

    A batch runs its hidden layers unit-major, W @ a^T with activations stored
    as units x rows, on a column-major view of the batch (a C-ordered batch is
    copied once), so the scores do not depend on the input's memory layout.
    The single-unit output layer reads a C-contiguous row-major copy of the
    last hidden activation. A batch agrees with the row-major chain to
    round-off.
    """
    batch = np.asarray(epsilon, dtype=float)
    if batch.ndim not in (1, 2) or batch.shape[-1] != net.layer_dims[0]:
        raise ValueError(f"expected rows of length {net.layer_dims[0]}, got shape {batch.shape}")
    if batch.ndim == 1:
        a = np.ascontiguousarray(batch)  # BLAS dot sums a strided row in another order
        for W, b in zip(net.weights[:-1], net.biases[:-1]):
            z = W @ a
            z += b
            a = np.maximum(z, 0.0, out=z)
        return float(a @ net.weights[-1][0] + net.biases[-1][0])
    a = np.asfortranarray(batch).T
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = W @ a
        z += b[:, None]
        a = np.maximum(z, 0.0, out=z)
    scores = np.ascontiguousarray(a.T) @ net.weights[-1].T + net.biases[-1]
    return scores[:, 0]


def _require_both_classes(labels):
    if not (np.any(labels == 0) and np.any(labels == 1)):
        raise ValueError("both classes required")


def _class_split(scores, A):
    _require_both_classes(A)
    return scores[A == 0], scores[A == 1]


def _bandwidths(scores_u, scores_c, pinned):
    """(h_u, h_c): the pinned pair, or refit on the class scores by Silverman's rule."""
    if pinned is not None:
        return pinned
    return density.silverman_bandwidth(scores_u), density.silverman_bandwidth(scores_c)


def _score_gradients(scores, A, s, tau, bandwidths):
    """d loss / d score_i and d loss / d s, treating the bandwidths as fixed.

    Clipped rows are flat in the BCE part. A single-class batch has no class
    pair for the density terms, so it gets the BCE part alone.
    """
    n = scores.size
    raw = expit((scores - s) / tau)
    unclipped = (raw > PROB_CLIP) & (raw < 1.0 - PROB_CLIP)
    bce_z = np.where(unclipped, (raw - A) / n, 0.0)
    d_scores = bce_z / tau
    d_cutoff = -float(bce_z.sum()) / tau

    mask_u = A == 0
    mask_c = A == 1
    if not (mask_u.any() and mask_c.any()):
        return d_scores, d_cutoff
    scores_u, scores_c = scores[mask_u], scores[mask_c]
    h_u, h_c = _bandwidths(scores_u, scores_c, bandwidths)
    z_u = (scores_u - s) / h_u
    z_c = (s - scores_c) / h_c
    phi_u = np.exp(-0.5 * z_u * z_u) / _SQRT_2PI
    phi_c = np.exp(-0.5 * z_c * z_c) / _SQRT_2PI
    auc_scores = np.zeros(n)
    auc_scores[mask_u] = phi_u / (mask_u.sum() * h_u)
    auc_scores[mask_c] = -phi_c / (mask_c.sum() * h_c)
    d_scores = d_scores + auc_scores
    d_cutoff += -float(phi_u.mean()) / h_u  # -f_u(s)
    d_cutoff += float(phi_c.mean()) / h_c   # +f_c(s)
    return d_scores, d_cutoff


def _backprop(net, pre_activations, activations, d_scores):
    delta = d_scores[:, None]
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer]) * (pre_activations[layer - 1] > 0.0)
    return grad_w, grad_b


def _gradients(net, batch, A, bandwidths=None):
    """The exact gradients of a batch's loss: the one gradient path."""
    scores, pre_activations, activations = _forward_cached(net, batch)
    d_scores, d_cutoff = _score_gradients(scores, A, net.cutoff, net.temperature, bandwidths)
    grad_w, grad_b = _backprop(net, pre_activations, activations, d_scores)
    return LossGradient(weights=grad_w, biases=grad_b, cutoff=d_cutoff)


def _as_batch(net, epsilon, A):
    batch = np.atleast_2d(np.asarray(epsilon, dtype=float))
    if batch.shape[1] != net.layer_dims[0]:
        raise ValueError(f"expected rows of length {net.layer_dims[0]}, got {batch.shape[1]}")
    labels = np.asarray(A, dtype=float).ravel()
    if labels.size != batch.shape[0]:
        raise ValueError("labels and batch disagree on the number of rows")
    return batch, labels


def _observe(net, batch, labels, bandwidths=None):
    """The one loss kernel, BCE plus both density terms: loss_terms and every observation."""
    scores = forward(net, batch)
    s, tau = net.cutoff, net.temperature
    scores_u, scores_c = _class_split(scores, labels)
    h_u, h_c = _bandwidths(scores_u, scores_c, bandwidths)
    raw = expit((scores - s) / tau)
    p_hat = np.clip(raw, PROB_CLIP, 1.0 - PROB_CLIP)
    bce = -float(np.mean(labels * np.log(p_hat) + (1.0 - labels) * np.log(1.0 - p_hat)))
    auc_u = float(np.mean(ndtr((scores_u - s) / h_u)))
    auc_c = float(np.mean(ndtr((s - scores_c) / h_c)))
    return LossTerms(total=bce + auc_u + auc_c, bce=bce, auc_u=auc_u, auc_c=auc_c)


def loss_terms(net: ScoringNetwork, epsilon_batch, A, bandwidths=None) -> LossTerms:
    """Loss decomposition at the current parameters.

    bandwidths pins (h_u, h_c) explicitly; by default they are refit on the
    current scores with Silverman's rule, exactly as one training
    observation sees them.
    """
    batch, labels = _as_batch(net, epsilon_batch, A)
    return _observe(net, batch, labels, bandwidths)


def loss(net: ScoringNetwork, epsilon_batch, A, bandwidths=None) -> float:
    return loss_terms(net, epsilon_batch, A, bandwidths=bandwidths).total


def loss_gradient(net: ScoringNetwork, epsilon_batch, A, bandwidths=None) -> LossGradient:
    """Exact gradients of the loss over weights, biases and the cut-off."""
    batch, labels = _as_batch(net, epsilon_batch, A)
    _require_both_classes(labels)
    return _gradients(net, batch, labels, bandwidths)


def _init_network(p, hidden_dims, rng):
    dims = [int(p), *(int(d) for d in hidden_dims), 1]
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return ScoringNetwork(layer_dims=dims, weights=weights, biases=biases,
                          cutoff=0.0, temperature=1.0)


def _flat(weights, biases, cutoff):
    """[W..., b..., s] as one vector: the layout Adam steps on."""
    return np.concatenate([*(p.ravel() for p in (*weights, *biases)), [cutoff]])


def _network(theta, dims, temperature):
    """The network read from theta = [W..., b..., s]: W^l and b^l are views into it, s a float."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(theta[offset:offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
    for fan_out in dims[1:]:
        biases.append(theta[offset:offset + fan_out])
        offset += fan_out
    return ScoringNetwork(layer_dims=list(dims), weights=weights, biases=biases,
                          cutoff=float(theta[offset]), temperature=temperature)


def _adam_step(theta, m, v, g, t, learning_rate):
    """Step t (from 1) of Adam on the flat gradient g: a new theta; m and v update in place.

    theta is never written into, so an iterate that holds it stays as it was;
    g is spent as scratch. Each in-place line rounds as its term of
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    theta - lr (m / c1) / (sqrt(v / c2) + eps) does on fresh arrays.
    """
    # s's entry squares through C pow, as the scalar s's gradient always has; pow rounds
    # apart from g * g about once in 1 200 draws, and the Adam oracle test pins this
    cutoff_squared = float(g[-1]) ** 2
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    g_squared = np.square(g, out=g)
    g_squared[-1] = cutoff_squared
    g_squared *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += g_squared
    step = m / (1.0 - ADAM_BETA1**t)
    step *= learning_rate
    denominator = np.divide(v, 1.0 - ADAM_BETA2**t, out=g_squared)
    np.sqrt(denominator, out=denominator)
    denominator += ADAM_EPS
    step /= denominator
    return theta - step


def _observer_count():
    """One observer per usable core, at most 4: past that the serial steps set the pace."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), 4)
    return min(os.cpu_count() or 1, 4)


def train(epsilon_train, A_train, cfg: TrainConfig = None) -> TrainResult:
    """Minibatch Adam on the custom loss; returns the best-loss snapshot.

    Each of the max_iters iterations takes one Adam step on a minibatch of
    BATCH_SIZE rows, shuffled anew each pass over the data; a set of at most
    BATCH_SIZE rows steps on all of its rows. The loss is observed on the full
    training set at every iteration and the returned parameters are the
    snapshot with the lowest observed loss, so the log and the snapshot rule
    are independent of the batching. Gradients on a batch use KDE bandwidths
    refit from that batch's scores; a single-class batch gets the gradients of
    its BCE term alone.

    Adam steps on one flat vector theta = [W..., b..., s]. Each step makes a
    new theta and a new network whose weights and biases are views into it
    (s is a float), and never writes into an earlier theta, so an iterate
    handed to an observer or kept as the snapshot stays as it was. Every
    parameter rounds as it would in a step over each array on its own.

    The observations run on the observer pool, one thread per usable core and
    at most 4; the calling thread waits for the oldest observation once more
    than two per observer are in flight. Each observation runs in a copy of
    the caller's context, so a numpy errstate set around train holds there
    too. The observations are booked in iteration order by the serial rule
    (strict <, the first minimum wins), and the first non-finite one raises
    FloatingPointError naming its iteration before any error from a later
    step is re-raised.

    Initialization: uniform +-1/sqrt(fan_in) weights; the output layer is then
    rescaled so the initial scores have unit spread (keeps the learned cut-off
    and its robustness bands on a feature-scale-free footing); s starts at the
    median initial score. The default tau of 0.2 on that unit scale keeps the
    BCE pull bounded once |score - s| clears a few units, so trained scores
    stay compact around the cut-off instead of stretching to the probability
    clip.
    """
    cfg = cfg or TrainConfig()
    if not (np.isfinite(cfg.learning_rate) and cfg.learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {cfg.learning_rate}")
    if not (np.isfinite(cfg.temperature) and cfg.temperature > 0):
        raise ValueError(f"temperature must be finite and > 0, got {cfg.temperature}")
    if any(int(width) < 1 for width in cfg.hidden_dims):
        raise ValueError(f"hidden widths must be >= 1, got {tuple(cfg.hidden_dims)}")
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    # column-major once: every observation below runs forward on the whole set
    batch = np.asfortranarray(np.atleast_2d(np.asarray(epsilon_train, dtype=float)))
    labels = np.asarray(A_train, dtype=float).ravel()
    if labels.size != batch.shape[0]:
        raise ValueError("labels and batch disagree on the number of rows")
    _require_both_classes(labels)

    rng = np.random.default_rng(cfg.seed)
    net = _init_network(batch.shape[1], cfg.hidden_dims, rng)
    scores = forward(net, batch)
    spread = float(np.std(scores))
    if spread > 0:
        net.weights[-1] = net.weights[-1] / spread
        net.biases[-1] = net.biases[-1] / spread
        scores = scores / spread
    net.cutoff = float(np.median(scores))
    theta = _flat(net.weights, net.biases, net.cutoff)
    net = _network(theta, net.layer_dims, float(cfg.temperature))

    history = []
    best = net
    best_loss = np.inf
    best_iteration = 0

    n_rows = batch.shape[0]
    order = np.empty(0, dtype=np.intp)
    cursor = 0

    observers = _observer_count()
    pool = ThreadPoolExecutor(max_workers=observers)
    pending = collections.deque()  # (iteration, iterate, future), oldest first

    def _book_oldest():
        nonlocal best, best_loss, best_iteration
        iteration, iterate, future = pending.popleft()
        terms = future.result()
        history.append(TrainLogRow(iteration, terms.total, terms.bce,
                                   terms.auc_u, terms.auc_c, iterate.cutoff))
        if not np.isfinite(terms.total):
            raise FloatingPointError(
                f"training diverged at iteration {iteration}: "
                f"loss={terms.total}, bce={terms.bce}, "
                f"auc_u={terms.auc_u}, auc_c={terms.auc_c}")
        if terms.total < best_loss:
            best_loss = terms.total
            best = iterate
            best_iteration = iteration

    def _observe_current(iteration):
        future = pool.submit(contextvars.copy_context().run, _observe, net, batch, labels)
        pending.append((iteration, net, future))
        while len(pending) > 2 * observers:
            _book_oldest()

    def _minibatch_gradient():
        nonlocal order, cursor
        if cursor >= order.size:
            order = rng.permutation(n_rows)
            cursor = 0
        idx = order[cursor:cursor + BATCH_SIZE]  # all rows of a set of fewer rows
        cursor += BATCH_SIZE
        grads = _gradients(net, batch[idx], labels[idx])
        return _flat(grads.weights, grads.biases, grads.cutoff)

    # Adam's two moments, laid out as theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)

    try:
        for k in range(cfg.max_iters):
            _observe_current(k)
            try:
                theta = _adam_step(theta, m, v, _minibatch_gradient(), k + 1, cfg.learning_rate)
            except Exception:
                # a serial run books every observation up to k before step k
                while pending:
                    _book_oldest()
                raise
            net = _network(theta, net.layer_dims, net.temperature)
        _observe_current(cfg.max_iters)  # evaluate the final iterate so the last step can win
        while pending:
            _book_oldest()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return TrainResult(network=best, history=history, best_iteration=best_iteration)


def naive_scores(epsilon):
    """L2 norm of each reconstruction-error row."""
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim == 1:
        return float(np.linalg.norm(eps))
    return np.linalg.norm(eps, axis=1)


def naive_fit(epsilon_train, A_train):
    """Cut-off at the crossing of the class-conditional naive score densities."""
    labels = np.asarray(A_train)
    scores = naive_scores(epsilon_train)
    scores_u, scores_c = _class_split(np.atleast_1d(scores), labels)
    return density.intersection_cutoff(density.fit_kde(scores_u), density.fit_kde(scores_c))
