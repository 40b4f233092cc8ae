"""Online convex problems, a small hand-differentiated MLP, and regret accounting.

Every problem exposes oracles indexed by the step t (1-based) over a box
feasible set, together with a fixed comparator theta_star where one
exists.  The step loop calls ``loss_and_grad(t, theta)`` once per step,
which returns the loss and the gradient from one pass over the data;
``loss_at`` gives the loss alone (for the comparator and the final
train loss) and ``grad_at`` the gradient alone.  Oracles are pure
functions of (t, theta), so runs are bit-reproducible given the
construction seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, SequenceError
from .numkit import dot, norms
from .optim import FeasibleBox


class OnlineProblem:
    """Base class: a sequence of losses over a box with a known comparator.

    ``theta_star`` is None for problems without a meaningful fixed
    comparator (the MLP); regret is then not defined.
    ``grad_bound`` is the declared sup-norm gradient bound over the box,
    infinity when unknown.  ``n_train`` is the training-set size of the
    minibatch problems, from which an epoch count derives the horizon;
    None for problems without a dataset.
    """

    name = "online"
    n_train: Optional[int] = None

    def __init__(self, dim: int, box: FeasibleBox,
                 theta_star: Optional[np.ndarray], grad_bound: float):
        self.dim = dim
        self.box = box
        self.theta_star = None if theta_star is None else np.asarray(
            theta_star, dtype=np.float64)
        self.grad_bound = float(grad_bound)
        if self.theta_star is not None and not box.contains(self.theta_star, tol=1e-12):
            raise DomainError("comparator lies outside the feasible box")

    def loss_at(self, t: int, theta: np.ndarray) -> float:
        raise NotImplementedError

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        """f_t(theta) and its gradient, computed together."""
        raise NotImplementedError

    def grad_at(self, t: int, theta: np.ndarray) -> np.ndarray:
        return self.loss_and_grad(t, theta)[1]

    def star_loss_at(self, t: int) -> float:
        if self.theta_star is None:
            raise DomainError(f"{self.name} problem has no comparator")
        return self.loss_at(t, self.theta_star)

    def initial_point(self, seed: int = 0) -> np.ndarray:
        """Deterministic feasible starting point."""
        rng = np.random.default_rng([int(seed), 0xA11CE])
        theta = rng.uniform(-0.5, 0.5, size=self.dim)
        return self.box.project(theta)

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise DimensionError(
                f"theta has shape {theta.shape}, expected ({self.dim},)"
            )
        return theta


class QuadraticTracking(OnlineProblem):
    """f_t(theta) = 0.5 * ||theta - c_t||^2 with bounded random centers."""

    name = "quadratic"

    def __init__(self, centers: np.ndarray, box: FeasibleBox):
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2:
            raise DimensionError("centers must be a (T, d) array")
        dim = centers.shape[1]
        theta_star = box.project(centers.mean(axis=0))
        # Largest |theta_i - c_{t,i}| over the box and all centers.
        hi = box.hi if box.hi is not None else np.full(dim, np.inf)
        lo = box.lo if box.lo is not None else np.full(dim, -np.inf)
        g_inf = float(np.max(np.maximum(hi - centers.min(axis=0),
                                        centers.max(axis=0) - lo)))
        super().__init__(dim, box, theta_star, g_inf)
        self.centers = centers
        self.horizon = centers.shape[0]

    def _center(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.horizon:
            raise DomainError(
                f"step {t} outside the problem horizon {self.horizon}"
            )
        return self.centers[t - 1]

    def loss_at(self, t: int, theta: np.ndarray) -> float:
        theta = self._check_theta(theta)
        diff = theta - self._center(t)
        return 0.5 * dot(diff, diff)

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        theta = self._check_theta(theta)
        diff = theta - self._center(t)
        return 0.5 * dot(diff, diff), diff


def make_quadratic(dim: int, horizon: int, seed: int,
                   box_halfwidth: float = 2.0) -> QuadraticTracking:
    """Random-centers quadratic: centers uniform in [-1, 1]^d."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(horizon, dim))
    return QuadraticTracking(centers, FeasibleBox.cube(box_halfwidth, dim))


class ReddiCycle(OnlineProblem):
    """The classic 1-D construction on which Adam fails to converge.

    f_t(theta) = C * theta when t = 1, 4, 7, ...  and -theta otherwise,
    over [-1, 1].  One full 3-cycle sums to (C - 2) * theta, so for C > 2
    the comparator is theta_star = -1.
    """

    name = "reddi"

    def __init__(self, c: float):
        if c <= 1.0:
            raise DomainError(f"construction needs C > 1, got C={c}")
        self.c = float(c)
        box = FeasibleBox(np.array([-1.0]), np.array([1.0]))
        super().__init__(1, box, np.array([-1.0]), grad_bound=self.c)

    def _slope(self, t: int) -> float:
        if t < 1:
            raise DomainError(f"step index starts at 1, got {t}")
        return self.c if t % 3 == 1 else -1.0

    def loss_at(self, t: int, theta: np.ndarray) -> float:
        theta = self._check_theta(theta)
        return self._slope(t) * float(theta[0])

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        theta = self._check_theta(theta)
        slope = self._slope(t)
        return slope * float(theta[0]), np.array([slope])

    def initial_point(self, seed: int = 0) -> np.ndarray:
        return np.array([0.0])


def make_reddi(c: float = 3.0) -> ReddiCycle:
    return ReddiCycle(c)


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic per-epoch shuffle, a pure function of (seed, epoch)."""
    return np.random.default_rng([int(seed), 0x5EED, int(epoch)]).permutation(n)


class _MinibatchMixin:
    """Deterministic minibatch selection by step index, reshuffled per epoch.

    Only the current epoch's permutation is kept; an earlier epoch asked
    for again is recomputed, since the order is a pure function of
    (seed, epoch).
    """

    def _init_batching(self, n: int, batch_size: int, seed: int):
        if batch_size < 1 or batch_size > n:
            raise DomainError(
                f"batch_size must lie in [1, {n}], got {batch_size}"
            )
        self.n_train = n
        self._batch_size = batch_size
        self._order_seed = seed
        self._orders: dict = {}
        self.batches_per_epoch = math.ceil(n / batch_size)

    def batch_indices(self, t: int) -> np.ndarray:
        if t < 1:
            raise DomainError(f"step index starts at 1, got {t}")
        epoch, slot = divmod(t - 1, self.batches_per_epoch)
        if epoch not in self._orders:
            self._orders = {epoch: _epoch_order(self._order_seed, epoch,
                                                self.n_train)}
        start = slot * self._batch_size
        return self._orders[epoch][start:start + self._batch_size]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticMinibatch(OnlineProblem, _MinibatchMixin):
    """Minibatch logistic regression with labels in {-1, +1}.

    f_t is the mean logistic loss of the t-th minibatch under a seeded
    per-epoch shuffle.  The comparator minimizes the full-batch loss over
    the box and is computed once at construction by projected gradient
    descent (see :func:`logistic_comparator`).
    """

    name = "logistic"

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 batch_size: int, seed: int, box: FeasibleBox,
                 theta_star: Optional[np.ndarray] = None):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise DimensionError("features must be (n, d) and labels (n,)")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise DomainError("labels must be -1 or +1")
        n, dim = features.shape
        self.features = features
        self.labels = labels
        self._init_batching(n, batch_size, seed)
        if theta_star is None:
            theta_star = logistic_comparator(features, labels, box)
        # |grad_i| <= mean over the batch of |x_i| since the sigmoid factor
        # is in (0, 1); max |X| bounds that for every possible batch.
        g_inf = float(np.max(np.abs(features)))
        super().__init__(dim, box, theta_star, g_inf)

    def _batch(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        idx = self.batch_indices(t)
        return self.features[idx], self.labels[idx]

    def loss_at(self, t: int, theta: np.ndarray) -> float:
        theta = self._check_theta(theta)
        x, y = self._batch(t)
        margins = y * (x @ theta)
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        theta = self._check_theta(theta)
        x, y = self._batch(t)
        margins = y * (x @ theta)
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        weights = -y * _sigmoid(-margins)
        return loss, x.T @ weights / len(y)


def full_logistic_loss(theta: np.ndarray, features: np.ndarray,
                       labels: np.ndarray) -> float:
    margins = labels * (features @ theta)
    return float(np.mean(np.logaddexp(0.0, -margins)))


def full_logistic_grad(theta: np.ndarray, features: np.ndarray,
                       labels: np.ndarray) -> np.ndarray:
    margins = labels * (features @ theta)
    weights = -labels * _sigmoid(-margins)
    return features.T @ weights / len(labels)


def logistic_comparator(features: np.ndarray, labels: np.ndarray,
                        box: FeasibleBox, tol: float = 1e-9,
                        max_iter: int = 2_000_000) -> np.ndarray:
    """Full-batch projected gradient descent to a tiny projected-gradient norm.

    The box keeps the minimizer finite even for separable data.  The step
    size is 1/L with L the exact Lipschitz constant of the gradient
    (lambda_max(X^T X) / (4 n)).
    """
    n, dim = features.shape
    lipschitz = float(np.linalg.eigvalsh(features.T @ features / (4.0 * n))[-1])
    step = 1.0 / max(lipschitz, 1e-12)
    theta = np.zeros(dim)
    for _ in range(max_iter):
        grad = full_logistic_grad(theta, features, labels)
        nxt = box.project(theta - step * grad)
        gap = norms(theta - nxt).linf / step
        theta = nxt
        if gap < tol:
            break
    else:
        raise DomainError("comparator descent did not reach the tolerance")
    return theta


def make_logistic(n_samples: int, dim: int, seed: int,
                  batch_size: int = 32,
                  box_halfwidth: float = 5.0) -> LogisticMinibatch:
    """Synthetic logistic problem: gaussian features, noisy linear labels."""
    if n_samples < batch_size:
        raise DomainError(
            f"need n_samples >= batch_size, got {n_samples} < {batch_size}"
        )
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_samples, dim))
    w_true = rng.normal(size=dim)
    probs = _sigmoid(features @ w_true)
    labels = np.where(rng.uniform(size=n_samples) < probs, 1.0, -1.0)
    return LogisticMinibatch(features, labels, batch_size, seed,
                             FeasibleBox.cube(box_halfwidth, dim))


# ---------------------------------------------------------------------------
# Regret accounting
# ---------------------------------------------------------------------------

@dataclass
class RegretLedger:
    """Running sum of (algorithm loss - comparator loss) per step."""

    cumulative_alg_loss: float = 0.0
    cumulative_star_loss: float = 0.0
    series: List[Tuple[int, float]] = field(default_factory=list)

    def update(self, t: int, loss_alg: float, loss_star: float) -> None:
        if self.series and t <= self.series[-1][0]:
            raise SequenceError(
                f"step {t} is not after the last recorded step "
                f"{self.series[-1][0]}"
            )
        self.cumulative_alg_loss += loss_alg
        self.cumulative_star_loss += loss_star
        prev = self.series[-1][1] if self.series else 0.0
        self.series.append((t, prev + (loss_alg - loss_star)))

    @property
    def regret(self) -> float:
        return self.series[-1][1] if self.series else 0.0

    @property
    def steps(self) -> int:
        return len(self.series)


# ---------------------------------------------------------------------------
# Desk-scale MLP with manual backprop
# ---------------------------------------------------------------------------

class Mlp:
    """Fully connected ReLU net with a softmax cross-entropy head.

    Parameters live in one flat vector: for each layer, the weight matrix
    in row-major order followed by the bias vector.
    """

    def __init__(self, layer_sizes: Sequence[int]):
        if len(layer_sizes) < 2:
            raise DimensionError("need at least input and output sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.n_params = sum(
            fan_in * fan_out + fan_out
            for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:])
        )

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        chunks = []
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            scale = math.sqrt(2.0 / fan_in)
            chunks.append(rng.normal(0.0, scale, size=fan_in * fan_out))
            chunks.append(np.zeros(fan_out))
        return np.concatenate(chunks)

    def _unpack(self, theta: np.ndarray):
        if theta.shape != (self.n_params,):
            raise DimensionError(
                f"theta has {theta.shape[0] if theta.ndim == 1 else '?'} "
                f"entries, expected {self.n_params}"
            )
        layers = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            w = theta[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            b = theta[offset:offset + fan_out]
            offset += fan_out
            layers.append((w, b))
        return layers

    def forward(self, theta: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> Tuple[float, np.ndarray]:
        """Mean cross-entropy loss and the logits for a batch."""
        loss, logits, _ = self._forward_cached(theta, x, y)
        return loss, logits

    def _forward_cached(self, theta, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise DimensionError(
                f"batch features must be (n, {self.layer_sizes[0]})"
            )
        if y.shape != (x.shape[0],) or x.shape[0] == 0:
            raise DimensionError("labels must be one non-empty row per sample")
        layers = self._unpack(np.asarray(theta, dtype=np.float64))
        activations = [x]
        h = x
        for w, b in layers[:-1]:
            h = np.maximum(h @ w + b, 0.0)
            activations.append(h)
        w_out, b_out = layers[-1]
        logits = h @ w_out + b_out
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = -float(np.mean(log_probs[np.arange(len(y)), y]))
        return loss, logits, (layers, activations, log_probs, y)

    def loss_and_grad(self, theta: np.ndarray, x: np.ndarray,
                      y: np.ndarray) -> Tuple[float, np.ndarray]:
        """Mean batch loss and its gradient with respect to flat theta,
        both from one forward pass."""
        loss, _, cache = self._forward_cached(theta, x, y)
        layers, activations, log_probs, y = cache
        n = len(y)
        delta = np.exp(log_probs)
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grads = []
        for i in reversed(range(len(layers))):
            w, _ = layers[i]
            a_in = activations[i]
            grads.append((a_in.T @ delta, delta.sum(axis=0)))
            if i > 0:
                delta = (delta @ w.T) * (activations[i] > 0.0)
        flat = []
        for gw, gb in reversed(grads):
            flat.append(gw.ravel())
            flat.append(gb)
        return loss, np.concatenate(flat)

    def backward(self, theta: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
        """Gradient of the mean batch loss with respect to flat theta."""
        return self.loss_and_grad(theta, x, y)[1]

    def accuracy(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        _, logits = self.forward(theta, x, y)
        return float(np.mean(logits.argmax(axis=1) == y))


def two_cluster_dataset(n: int, seed: int,
                        spread: float = 0.9) -> Tuple[np.ndarray, np.ndarray]:
    """2-D gaussian blobs at (-1,-1) and (+1,+1), half the points each."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal(loc=(-1.0, -1.0), scale=spread, size=(half, 2))
    x1 = rng.normal(loc=(1.0, 1.0), scale=spread, size=(n - half, 2))
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(half, dtype=np.int64),
                        np.ones(n - half, dtype=np.int64)])
    order = rng.permutation(n)
    return x[order], y[order]


class MlpClassification(OnlineProblem, _MinibatchMixin):
    """Minibatch training of the small MLP; no fixed comparator."""

    name = "mlp"

    def __init__(self, net: Mlp, x_train: np.ndarray, y_train: np.ndarray,
                 x_test: np.ndarray, y_test: np.ndarray,
                 batch_size: int, seed: int,
                 box: Optional[FeasibleBox] = None):
        box = box if box is not None else FeasibleBox.unbounded()
        super().__init__(net.n_params, box, None, float("inf"))
        self.net = net
        self.x_train = x_train
        self.y_train = y_train
        self.x_test = x_test
        self.y_test = y_test
        self.seed = seed
        self._init_batching(len(y_train), batch_size, seed)

    def _batch(self, t: int):
        idx = self.batch_indices(t)
        return self.x_train[idx], self.y_train[idx]

    def loss_at(self, t: int, theta: np.ndarray) -> float:
        x, y = self._batch(t)
        loss, _ = self.net.forward(np.asarray(theta, dtype=np.float64), x, y)
        return loss

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        x, y = self._batch(t)
        return self.net.loss_and_grad(np.asarray(theta, dtype=np.float64),
                                      x, y)

    def initial_point(self, seed: int = 0) -> np.ndarray:
        return self.net.init_params(seed)

    def train_loss(self, theta: np.ndarray) -> float:
        loss, _ = self.net.forward(theta, self.x_train, self.y_train)
        return loss

    def test_accuracy(self, theta: np.ndarray) -> float:
        return self.net.accuracy(theta, self.x_test, self.y_test)


def make_mlp_problem(seed: int, hidden: Sequence[int] = (16, 16),
                     n_train: int = 512, n_test: int = 256,
                     batch_size: int = 128,
                     box_halfwidth: Optional[float] = None) -> MlpClassification:
    net = Mlp((2, *hidden, 2))
    x_train, y_train = two_cluster_dataset(n_train, seed)
    x_test, y_test = two_cluster_dataset(n_test, seed + 1)
    box = None if box_halfwidth is None else \
        FeasibleBox.cube(box_halfwidth, net.n_params)
    return MlpClassification(net, x_train, y_train, x_test, y_test,
                             batch_size, seed, box=box)


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def save_dataset_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    """One row per sample: features, then an integer label."""
    features = np.asarray(features, dtype=np.float64)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"x{i}" for i in range(features.shape[1])] + ["label"])
        for row, label in zip(features, labels):
            writer.writerow([f"{v:.17g}" for v in row] + [int(label)])


def load_dataset_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    dim = len(header) - 1
    features = np.array([[float(v) for v in row[:dim]] for row in rows])
    labels = np.array([int(row[dim]) for row in rows], dtype=np.int64)
    return features, labels


def save_vector_csv(path, vector: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"v{i}" for i in range(len(vector))])
        writer.writerow([f"{v:.17g}" for v in vector])


def load_vector_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        return np.array([float(v) for v in next(reader)])
