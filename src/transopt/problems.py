"""Online convex problems, a small hand-differentiated MLP, and regret accounting.

Every problem exposes oracles indexed by the step t (1-based) over a box
feasible set, together with a fixed comparator theta_star where one
exists.  The step loop calls ``loss_and_grad(t, theta)`` once per step,
which returns the loss and the gradient from one pass over the data;
``loss_at`` gives the loss alone (for the comparator and the final
train loss) and ``grad_at`` the gradient alone.  ``star_losses`` gives
the comparator's loss at every step of a run at once.  Oracles are pure
functions of (t, theta), so runs are bit-reproducible given the
construction seed.

The oracles take one (d,) iterate, or the (R, d) iterates of a batch:
:func:`stack_problems` merges R problems built alike into one whose
oracles answer row r as problem r would alone, bit for bit.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import row_blocks
from .errors import DimensionError, DomainError, SequenceError
from .numkit import norms
from .optim import FeasibleBox, stack_like


class OnlineProblem:
    """Base class: a sequence of losses over a box with a known comparator.

    ``theta_star`` is None for problems without a meaningful fixed
    comparator (the MLP); regret is then not defined.
    ``grad_bound`` is the declared sup-norm gradient bound over the box,
    infinity when unknown.  ``n_train`` is the training-set size of the
    minibatch problems, from which an epoch count derives the horizon;
    None for problems without a dataset.  ``shape`` is the shape of the
    iterate the oracles take: (d,), or (R, d) once stacked.
    """

    name = "online"
    n_train: Optional[int] = None

    def __init__(self, dim: int, box: FeasibleBox,
                 theta_star: Optional[np.ndarray], grad_bound: float):
        self.dim = dim
        self.shape = (dim,)
        self.box = box
        self.theta_star = None if theta_star is None else np.asarray(
            theta_star, dtype=np.float64)
        self.grad_bound = float(grad_bound)
        if self.theta_star is not None and not box.contains(self.theta_star, tol=1e-12):
            raise DomainError("comparator lies outside the feasible box")

    def loss_at(self, t: int, theta: np.ndarray) -> float:
        return self.loss_and_grad(t, theta)[0]

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

    def star_losses(self, horizon: int) -> np.ndarray:
        """``star_loss_at(t)`` for t = 1..horizon, bit for bit."""
        return np.fromiter((self.star_loss_at(t)
                            for t in range(1, horizon + 1)),
                           dtype=np.float64, count=horizon)

    def initial_point(self, seed: int = 0) -> np.ndarray:
        """Deterministic feasible starting point."""
        rng = np.random.default_rng([int(seed), 0xA11CE])
        theta = rng.uniform(-0.5, 0.5, size=self.dim)
        return self.box.project(theta)

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.shape:
            raise DimensionError(
                f"theta has shape {theta.shape}, expected {self.shape}"
            )
        return theta

    def _stacked(self) -> None:
        """Finish a :func:`stack_problems` copy whose fields are stacked."""


def stack_problems(problems: Sequence[OnlineProblem]) -> OnlineProblem:
    """One problem whose oracles take the (R, d) iterates of R problems.

    The problems must be of one kind and shape; they may differ in their
    data and scalars (seeds, centers, datasets, the box, the reddi
    slope).  Row r of a stacked oracle's loss and gradient equals
    problem r's, bit for bit.  A single problem is returned as it is.
    Only the step oracle ``loss_and_grad`` is stacked: the comparator,
    the box checks and the final MLP metrics stay with each problem.
    """
    if len(problems) == 1:
        return problems[0]
    out = stack_like(problems)
    out.shape = (len(problems), out.dim)
    out._stacked()
    return out


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
        g_inf = float(np.max(np.maximum(box.hi - centers.min(axis=0),
                                        centers.max(axis=0) - box.lo)))
        super().__init__(dim, box, theta_star, g_inf)
        self.centers = centers
        self.horizon = centers.shape[0]

    def _center(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.horizon:
            raise DomainError(
                f"step {t} outside the problem horizon {self.horizon}"
            )
        # centers are (T, d), or (R, T, d) when stacked
        return self.centers[..., t - 1, :]

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        theta = self._check_theta(theta)
        diff = theta - self._center(t)
        # vecdot takes the dot product of each row as np.dot would
        return 0.5 * np.vecdot(diff, diff), diff

    def star_losses(self, horizon: int) -> np.ndarray:
        self._center(horizon)  # past the problem horizon raises here too
        out = np.empty(horizon)
        for lo, hi in row_blocks(horizon, self.dim):
            diff = self.theta_star - self.centers[lo:hi]
            out[lo:hi] = np.vecdot(diff, diff)
        out *= 0.5
        return out


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
        # written so that NaN fails it too
        if not c > 1.0:
            raise DomainError(f"construction needs C > 1, got C={c}")
        self.c = float(c)
        box = FeasibleBox(np.array([-1.0]), np.array([1.0]))
        super().__init__(1, box, np.array([-1.0]), grad_bound=self.c)
        # the gradient of each slope, copied out at its steps
        self._up = np.array([self.c])
        self._down = np.array([-1.0])

    def _slope(self, t: int) -> float:
        if t < 1:
            raise DomainError(f"step index starts at 1, got {t}")
        return self.c if t % 3 == 1 else -1.0

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        theta = self._check_theta(theta)
        slope = self._slope(t)
        grad = (self._up if t % 3 == 1 else self._down).copy()
        return slope * theta[..., 0], grad

    def _stacked(self) -> None:
        # one slope per replica, as theta[..., 0] has one entry per replica
        self.c = np.ravel(self.c)

    def star_losses(self, horizon: int) -> np.ndarray:
        slopes = np.where(np.arange(1, horizon + 1) % 3 == 1, self.c, -1.0)
        return slopes * float(self.theta_star[0])

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

    A subclass names its per-sample arrays in ``_data``.  Stacked, they
    are concatenated, replica r's samples at rows r * n .. (r + 1) * n - 1,
    and each replica draws its own batch from its own permutation, so
    one fancy index gathers the (R, batch) samples of a step.
    """

    _data: Tuple[str, ...] = ()

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

    def _stacked(self) -> None:
        for name in self._data:
            rows = getattr(self, name)
            setattr(self, name, rows.reshape(-1, *rows.shape[2:]))
        # one seed per replica; replicas that share it share a column entry
        self._order_seed = np.broadcast_to(
            np.ravel(self._order_seed), self.shape[:1]).tolist()

    def _epoch_orders(self, epoch: int) -> np.ndarray:
        """The epoch's sample order: (n,), or (R, n) into stacked data."""
        n = self.n_train
        if not isinstance(self._order_seed, list):
            return _epoch_order(self._order_seed, epoch, n)
        # one permutation per distinct seed: replicas may share a seed
        perms = {seed: _epoch_order(seed, epoch, n)
                 for seed in dict.fromkeys(self._order_seed)}
        orders = np.stack([perms[seed] for seed in self._order_seed])
        orders += np.arange(0, orders.size, n)[:, None]
        return orders

    def batch_indices(self, t: int) -> np.ndarray:
        if t < 1:
            raise DomainError(f"step index starts at 1, got {t}")
        epoch, slot = divmod(t - 1, self.batches_per_epoch)
        if epoch not in self._orders:
            self._orders = {epoch: self._epoch_orders(epoch)}
        start = slot * self._batch_size
        return self._orders[epoch][..., start:start + self._batch_size]


def _mean_of_rows(a: np.ndarray):
    """np.mean(a, axis=-1), bit for bit (the same pairwise sum over
    each row, divided by the row length) without np.mean's overhead."""
    return np.add.reduce(a, -1) / a.shape[-1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so
    exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class LogisticMinibatch(_MinibatchMixin, OnlineProblem):
    """Minibatch logistic regression with labels in {-1, +1}.

    f_t is the mean logistic loss of the t-th minibatch under a seeded
    per-epoch shuffle.  The comparator minimizes the full-batch loss over
    the box and is computed once at construction by projected gradient
    descent (see :func:`logistic_comparator`).
    """

    name = "logistic"
    _data = ("features", "labels")

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

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        theta = self._check_theta(theta)
        x, y = self._batch(t)
        # x is (b, d) or (R, b, d); matmul runs the same BLAS product
        # (gemv) on each replica's rows as on a lone batch
        margins = y * np.matmul(x, theta[..., None])[..., 0]
        loss = _mean_of_rows(np.logaddexp(0.0, -margins))
        weights = -y * _sigmoid(-margins)
        grad = np.matmul(x.mT, weights[..., None])[..., 0]
        return loss, grad / y.shape[-1]

    def star_losses(self, horizon: int) -> np.ndarray:
        """``star_loss_at`` for t = 1..horizon: one pass per epoch.

        The epoch's full batches go through one stacked product and mean,
        which take each batch's rows as ``loss_at`` does; a partial last
        batch goes alone.
        """
        n, b = self.n_train, self._batch_size
        full = n // b
        out = np.empty(horizon)
        for lo in range(0, horizon, self.batches_per_epoch):
            order = _epoch_order(self._order_seed,
                                 lo // self.batches_per_epoch, n)
            hi = min(horizon, lo + self.batches_per_epoch)
            k = min(hi - lo, full)
            x = self.features[order[:k * b]].reshape(k, b, self.dim)
            y = self.labels[order[:k * b]].reshape(k, b)
            margins = y * np.matmul(x, self.theta_star)
            out[lo:lo + k] = _mean_of_rows(np.logaddexp(0.0, -margins))
            if lo + k < hi:
                idx = order[k * b:]
                out[lo + k] = np.mean(np.logaddexp(
                    0.0, -self.labels[idx] * (self.features[idx]
                                              @ self.theta_star)))
        return out


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

    The softmax takes each row's max and sum over the classes as left
    folds over the class columns, ``((c0 + c1) + c2) ...``, which is
    cheaper than numpy's reduction over a short axis.  A max is exact in
    any order.  A left-fold sum equals numpy's contiguous row sum for
    rows shorter than 8 (numpy sums 8 or more in pairwise blocks), so
    the output layer has at most ``MAX_CLASSES`` = 7 classes.
    """

    MAX_CLASSES = 7

    def __init__(self, layer_sizes: Sequence[int]):
        if len(layer_sizes) < 2:
            raise DimensionError("need at least input and output sizes")
        if layer_sizes[-1] > self.MAX_CLASSES:
            raise DimensionError(
                f"the output layer has {layer_sizes[-1]} classes; at most "
                f"{self.MAX_CLASSES} keep the softmax folds exact"
            )
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
        """Per layer, (weights, bias) views of theta: (in, out) and
        (1, out), with theta's leading replica axis in front if any."""
        if theta.shape[-1:] != (self.n_params,):
            raise DimensionError(
                f"theta has {theta.shape[-1] if theta.ndim else '?'} "
                f"entries, expected {self.n_params}"
            )
        lead = theta.shape[:-1]
        layers = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            w = theta[..., offset:offset + fan_in * fan_out].reshape(
                lead + (fan_in, fan_out))
            offset += fan_in * fan_out
            b = theta[..., None, offset:offset + fan_out]
            offset += fan_out
            layers.append((w, b))
        return layers

    def forward(self, theta: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> Tuple[float, np.ndarray]:
        """Mean cross-entropy loss and the logits for a batch."""
        loss, logits, _ = self._forward_cached(theta, x, y)
        return loss, logits

    def _forward_cached(self, theta, x, y):
        # A batch of replicas stacks theta (R, d), x (R, n, in) and
        # y (R, n); matmul then runs each replica's products as the same
        # BLAS calls as a lone batch, and every reduction runs along the
        # axis it would alone.
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim < 2 or x.shape[-1] != self.layer_sizes[0]:
            raise DimensionError(
                f"batch features must be (n, {self.layer_sizes[0]})"
            )
        if y.shape != x.shape[:-1] or x.shape[-2] == 0:
            raise DimensionError("labels must be one non-empty row per sample")
        layers = self._unpack(np.asarray(theta, dtype=np.float64))
        activations = [x]
        h = x
        for w, b in layers[:-1]:
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            activations.append(h)
        w_out, b_out = layers[-1]
        logits = h @ w_out
        logits += b_out
        # the row max and row sum over the classes as column folds (see
        # the class docstring); exp and log see the same contiguous
        # arrays as a per-row reduction would give them
        log_probs = logits - _fold_columns(np.maximum, logits)
        log_probs -= np.log(_fold_columns(np.add, np.exp(log_probs)))
        labels = np.take(_one_hot(logits.shape[-1]), y, axis=0)
        loss = -_mean_of_rows(log_probs[labels].reshape(y.shape))
        return loss, logits, (layers, activations, log_probs, labels)

    def loss_and_grad(self, theta: np.ndarray, x: np.ndarray,
                      y: np.ndarray) -> Tuple[float, np.ndarray]:
        """Mean batch loss and its gradient with respect to flat theta,
        both from one forward pass."""
        loss, _, cache = self._forward_cached(theta, x, y)
        layers, activations, log_probs, labels = cache
        delta = np.exp(log_probs)
        # x - 1.0 at the label, x - 0.0 = x elsewhere
        np.subtract(delta, labels, out=delta)
        delta /= labels.shape[-2]
        grads = []
        for i in reversed(range(len(layers))):
            w, _ = layers[i]
            a_in = activations[i]
            grads.append((a_in.mT @ delta, delta.sum(axis=-2)))
            if i > 0:
                delta = delta @ w.mT
                np.multiply(delta, activations[i] > 0.0, out=delta)
        flat_shape = delta.shape[:-2] + (-1,)
        flat = []
        for gw, gb in reversed(grads):
            flat.append(gw.reshape(flat_shape))
            flat.append(gb)
        return loss, np.concatenate(flat, axis=-1)

    def backward(self, theta: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
        """Gradient of the mean batch loss with respect to flat theta."""
        return self.loss_and_grad(theta, x, y)[1]

    def accuracy(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        _, logits = self.forward(theta, x, y)
        return float(np.mean(logits.argmax(axis=-1) == y))


def _fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded left over the columns of ``a``, as a (..., 1)
    column: ``ufunc(ufunc(a0, a1), a2) ...``."""
    out = a[..., :1]
    for j in range(1, a.shape[-1]):
        out = ufunc(out, a[..., j:j + 1])
    return out


@functools.lru_cache(maxsize=Mlp.MAX_CLASSES)
def _one_hot(classes: int) -> np.ndarray:
    """Row c is the one-hot row of label c (read only)."""
    rows = np.eye(classes, dtype=bool)
    rows.flags.writeable = False
    return rows


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


class MlpClassification(_MinibatchMixin, OnlineProblem):
    """Minibatch training of the small MLP; no fixed comparator."""

    name = "mlp"
    _data = ("x_train", "y_train")

    def __init__(self, net: Mlp, x_train: np.ndarray, y_train: np.ndarray,
                 x_test: np.ndarray, y_test: np.ndarray,
                 batch_size: int, seed: int,
                 box: Optional[FeasibleBox] = None):
        box = box if box is not None else FeasibleBox.unbounded(net.n_params)
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
        return (np.take(self.x_train, idx, axis=0),
                np.take(self.y_train, idx, axis=0))

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
        return float(loss)

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


def load_vector_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        return np.array([float(v) for v in next(reader)])
