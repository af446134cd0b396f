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
plain backpropagation, written in the layout of theta = [W..., b..., s], the
one vector Adam steps on. The optimizer is Adam on 16-row minibatches by default;
the loss is observed on the full training set at every iteration, and the
returned parameters are the best-loss snapshot. A loss observation has one
record, TrainLogRow, whether train logs it or loss_terms returns it.

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
    weights: list    # W^l of shape (dims[l+1], dims[l])
    biases: list     # b^l of shape (dims[l+1],)
    cutoff: float
    temperature: float

    @property
    def layer_dims(self):
        return [self.weights[0].shape[1], *(W.shape[0] for W in self.weights)]


@dataclass
class TrainConfig:
    hidden_dims: tuple = (64, 32)
    learning_rate: float = 1e-3
    max_iters: int = 2000
    seed: int = 0
    temperature: float = 0.2   # label smoothing scale; initial scores have unit spread


@dataclass
class TrainLogRow:
    """One loss observation: total, terms and cut-off; iteration is None outside training."""
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
    """Forward pass keeping each layer's input for backprop."""
    inputs = [batch]
    a = batch
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ W.T + b
        a = np.maximum(z, 0.0, out=z)
        inputs.append(a)
    scores = a @ net.weights[-1].T + net.biases[-1]
    return scores[:, 0], inputs


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
    width = net.weights[0].shape[1]
    if batch.ndim not in (1, 2) or batch.shape[-1] != width:
        raise ValueError(f"expected rows of length {width}, got shape {batch.shape}")
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


def _class_indices(labels):
    """Row indices of the uncontaminated and of the contaminated rows; both must exist."""
    index_u, index_c = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    if not (index_u.size and index_c.size):
        raise ValueError("both classes required")
    return index_u, index_c


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
    from scipy.special import expit

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


def _gradients(net, batch, A, bandwidths=None):
    """The exact gradient of a batch's loss in theta's layout: the one gradient path.

    A ReLU output is > 0 exactly where its pre-activation is, so it is the mask.
    """
    scores, inputs = _forward_cached(net, batch)
    d_scores, d_cutoff = _score_gradients(scores, A, net.cutoff, net.temperature, bandwidths)
    grad = np.empty(_parameter_count(net.layer_dims))
    grad[-1] = d_cutoff
    layers = _network(grad, net.layer_dims, net.temperature)
    delta = d_scores[:, None]
    for layer in range(len(inputs) - 1, -1, -1):
        np.matmul(delta.T, inputs[layer], out=layers.weights[layer])
        np.sum(delta, axis=0, out=layers.biases[layer])
        if layer > 0:
            delta = (delta @ net.weights[layer]) * (inputs[layer] > 0.0)
    return grad


def _as_batch(epsilon, A, width):
    """2-D rows and flat labels, one per row; a width of None skips the width check."""
    batch = np.atleast_2d(np.asarray(epsilon, dtype=float))
    if width is not None and batch.shape[1] != width:
        raise ValueError(f"expected rows of length {width}, got {batch.shape[1]}")
    labels = np.asarray(A, dtype=float).ravel()
    if labels.size != batch.shape[0]:
        raise ValueError("labels and batch disagree on the number of rows")
    return batch, labels


def _observe(net, batch, labels, classes, bandwidths=None):
    """The one loss kernel, BCE plus both density terms: loss_terms and every observation.

    classes is _class_indices(labels), which train finds once for all its observations.
    """
    from scipy.special import expit, ndtr

    scores = forward(net, batch)
    s, tau = net.cutoff, net.temperature
    index_u, index_c = classes
    scores_u, scores_c = scores[index_u], scores[index_c]
    h_u, h_c = _bandwidths(scores_u, scores_c, bandwidths)
    raw = expit((scores - s) / tau)
    p_hat = np.clip(raw, PROB_CLIP, 1.0 - PROB_CLIP)
    bce = -float(np.mean(labels * np.log(p_hat) + (1.0 - labels) * np.log(1.0 - p_hat)))
    auc_u = float(np.mean(ndtr((scores_u - s) / h_u)))
    auc_c = float(np.mean(ndtr((s - scores_c) / h_c)))
    return TrainLogRow(None, bce + auc_u + auc_c, bce, auc_u, auc_c, s)


def loss_terms(net: ScoringNetwork, epsilon_batch, A, bandwidths=None) -> TrainLogRow:
    """Loss decomposition at the current parameters, as one training observation's row.

    bandwidths pins (h_u, h_c) explicitly; by default they are refit on the
    current scores with Silverman's rule, exactly as one training
    observation sees them.
    """
    batch, labels = _as_batch(epsilon_batch, A, net.weights[0].shape[1])
    return _observe(net, batch, labels, _class_indices(labels), bandwidths)


def loss(net: ScoringNetwork, epsilon_batch, A, bandwidths=None) -> float:
    return loss_terms(net, epsilon_batch, A, bandwidths=bandwidths).loss


def loss_gradient(net: ScoringNetwork, epsilon_batch, A, bandwidths=None) -> ScoringNetwork:
    """Exact gradient of the loss, built in theta's layout as training builds it
    and read in the network's shape: weights, biases and cutoff hold d loss / d W^l,
    d b^l and d s; temperature is the network's own."""
    batch, labels = _as_batch(epsilon_batch, A, net.weights[0].shape[1])
    _class_indices(labels)  # raises on a single-class batch
    return _network(_gradients(net, batch, labels, bandwidths), net.layer_dims, net.temperature)


def _init_network(dims, rng):
    """theta for a fresh network over dims: W^1, b^1, W^2, b^2, ... drawn in that
    order, uniform +-1/sqrt(fan_in), into their views; s is 0."""
    theta = np.zeros(_parameter_count(dims))
    net = _network(theta, dims, 1.0)
    for W, b in zip(net.weights, net.biases):
        bound = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return theta


def _parameter_count(dims):
    """The length of theta = [W..., b..., s] for a network over dims."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims[:-1], dims[1:])) + 1


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
    return ScoringNetwork(weights=weights, biases=biases, cutoff=float(theta[offset]),
                          temperature=temperature)


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


def _minibatches(rng, n_rows):
    """Row indices of each minibatch, without end: a fresh rng.permutation of the
    n_rows rows per pass, cut into BATCH_SIZE-row slices in order. The last slice
    of a pass may be shorter, and a set of at most BATCH_SIZE rows steps on all
    of its rows. A pass's permutation is drawn when its first slice is asked for."""
    while True:
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, BATCH_SIZE):
            yield order[start:start + BATCH_SIZE]


def train(epsilon_train, A_train, cfg: TrainConfig = None) -> TrainResult:
    """Minibatch Adam on the custom loss; returns the best-loss snapshot.

    Each of the max_iters iterations takes one Adam step on the next minibatch
    of _minibatches, drawn from the seeded RNG after the initial weights. The
    loss is observed on the full training set at every iteration and the
    returned parameters are the snapshot with the lowest observed loss, so the
    log and the snapshot rule are independent of the batching. Gradients on a
    batch use KDE bandwidths refit from that batch's scores; a single-class
    batch gets the gradients of its BCE term alone.

    Adam steps on one flat vector theta = [W..., b..., s], drawn in place; each
    gradient is built in its layout. Each step makes a new theta and a new
    network whose weights and biases are views into it (s is a float), and
    never writes into an earlier theta, so an iterate handed to an observer or
    kept as the snapshot stays as it was. Every parameter rounds as it would in
    a step over each array on its own.

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
    batch, labels = _as_batch(epsilon_train, A_train, None)
    batch = np.asfortranarray(batch)  # once: every observation runs forward on the whole set
    classes = _class_indices(labels)

    rng = np.random.default_rng(cfg.seed)
    dims = [batch.shape[1], *(int(width) for width in cfg.hidden_dims), 1]
    theta = _init_network(dims, rng)
    net = _network(theta, dims, float(cfg.temperature))
    scores = forward(net, batch)
    spread = float(np.std(scores))
    if spread > 0:
        net.weights[-1] /= spread
        net.biases[-1] /= spread
        scores = scores / spread
    theta[-1] = np.median(scores)
    net.cutoff = float(theta[-1])

    history = []
    best = net
    best_loss = np.inf
    best_iteration = 0

    batches = _minibatches(rng, batch.shape[0])

    observers = _observer_count()
    pool = ThreadPoolExecutor(max_workers=observers)
    pending = collections.deque()  # (iteration, iterate, future), oldest first

    def _book_oldest():
        nonlocal best, best_loss, best_iteration
        iteration, iterate, future = pending.popleft()
        row = future.result()
        row.iteration = iteration
        history.append(row)
        if not np.isfinite(row.loss):
            raise FloatingPointError(
                f"training diverged at iteration {iteration}: "
                f"loss={row.loss}, bce={row.bce}, "
                f"auc_u={row.auc_u}, auc_c={row.auc_c}")
        if row.loss < best_loss:
            best_loss = row.loss
            best = iterate
            best_iteration = iteration

    def _observe_current(iteration):
        future = pool.submit(contextvars.copy_context().run, _observe, net, batch, labels, classes)
        pending.append((iteration, net, future))
        while len(pending) > 2 * observers:
            _book_oldest()

    # Adam's two moments, laid out as theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)

    try:
        for k in range(cfg.max_iters):
            _observe_current(k)
            try:
                idx = next(batches)
                gradient = _gradients(net, batch[idx], labels[idx])
                theta = _adam_step(theta, m, v, gradient, k + 1, cfg.learning_rate)
            except Exception:
                # a serial run books every observation up to k before step k
                while pending:
                    _book_oldest()
                raise
            net = _network(theta, dims, net.temperature)
        _observe_current(cfg.max_iters)  # evaluate the final iterate so the last step can win
        while pending:
            _book_oldest()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return TrainResult(network=best, history=history, best_iteration=best_iteration)


def naive_scores(epsilon):
    """L2 norm of each reconstruction-error row."""
    return np.linalg.norm(np.asarray(epsilon, dtype=float), axis=1)


def naive_fit(epsilon_train, A_train):
    """Cut-off at the crossing of the class-conditional naive score densities."""
    scores = naive_scores(epsilon_train)
    index_u, index_c = _class_indices(np.asarray(A_train))
    return density.intersection_cutoff(density.fit_kde(scores[index_u]),
                                       density.fit_kde(scores[index_c]))
