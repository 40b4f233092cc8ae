"""Online convex problems, a small hand-differentiated MLP, and regret accounting.

Every problem exposes oracles indexed by the step t (1-based) over a box
feasible set, together with a fixed comparator theta_star where one
exists.  ``loss_and_grad(t, theta)`` returns the loss and the gradient
from one pass over the data, and the step loop calls it once per step,
but for the kinds that take their losses from its step slots (the
quadratic and the reddi cycle, with a ``slot_losses``); ``loss_at`` gives
the loss alone and ``grad_at`` the gradient alone; the comparator's
losses come from ``block`` (below).  Oracles are pure functions of
(t, theta), so runs are bit-reproducible given the construction seed.

A problem hands out its per-step data a block of steps at a time:
``block(t0, n)`` loads the data of steps t0 + 1 .. t0 + n, which the
oracles read until the next block, and returns the comparator's losses
at those steps.  The quadratic's block is its centers, drawn from its
seeded generator; the logistic kind's is the epoch orders the block
spans, each built once for the steps and the comparator alike (the
MLP, without a comparator, builds each epoch's order as its steps
reach it); the reddi cycle's is its slopes, a closed form of t.  The
step loop loads one block per buffer of steps
(:func:`~transopt.diagnostics.buffer_rows`), so a run holds O(d)
problem data besides the per-step losses.  An oracle asked for a step
outside the loaded block loads the block that starts there.

The oracles take one (d,) iterate, or the (R, d) iterates of a batch:
:func:`stack_problems` merges R problems built alike into one whose
oracles and blocks answer row r as problem r would alone, bit for bit.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import TOL, buffer_rows
from .errors import DimensionError, DomainError, SequenceError
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

    Each kind defines ``loss_and_grad(t, theta)``, f_t(theta) and its
    gradient computed together; ``_stacked()``, which finishes a
    :func:`stack_problems` copy whose fields are stacked; and, with a
    comparator, ``_star_block(t0, n)``, the comparator's losses at the
    loaded steps t0 + 1 .. t0 + n.
    """

    name = "online"
    n_train: Optional[int] = None
    #: if set, the loop calls ``grad_into(t, theta, out)`` (g_t into ``out``,
    #: unchecked) and ``slot_losses(grads, thetas, first, out)``, which puts
    #: in ``out`` the (n, R) losses of steps k entered at ``thetas[k - 1]``
    #: (or ``first``), bit for bit, and returns the next ``first`` or None
    slot_losses = None

    def __init__(self, dim: int, box: FeasibleBox,
                 theta_star: Optional[np.ndarray], grad_bound: float):
        self.dim = dim
        self.shape = (dim,)
        self.box = box
        self.theta_star = None if theta_star is None else np.asarray(
            theta_star, dtype=np.float64)
        self.grad_bound = float(grad_bound)
        if self.theta_star is not None and \
                not box.widened(TOL).contains(self.theta_star):
            raise DomainError("comparator lies outside the feasible box")

    def loss_at(self, t: int, theta: np.ndarray) -> float:
        return self.loss_and_grad(t, theta)[0]

    def grad_at(self, t: int, theta: np.ndarray) -> np.ndarray:
        return self.loss_and_grad(t, theta)[1]

    def star_loss_at(self, t: int) -> float:
        if self.theta_star is None:
            raise DomainError(f"{self.name} problem has no comparator")
        return self.loss_at(t, self.theta_star)

    def block(self, t0: int, n: int) -> Optional[np.ndarray]:
        """Load the data of steps t0 + 1 .. t0 + n, which the oracles read
        until another block is loaded, and return ``star_loss_at`` at
        those steps, bit for bit: (n,), or (R, n) once stacked; None
        without a comparator."""
        self._load(t0, n)
        if self.theta_star is None:
            return None
        return self._star_block(t0, n).reshape(self.shape[:-1] + (n,))

    def _load(self, t0: int, n: int) -> None:
        """Load the data of steps t0 + 1 .. t0 + n; a kind whose data is
        a closed form of t loads nothing."""
        if t0 < 0:
            raise DomainError(f"step index starts at 1, got {t0 + 1}")

    def _unload(self) -> None:
        """Drop the loaded block."""

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


def stack_problems(problems: Sequence[OnlineProblem]) -> OnlineProblem:
    """One problem whose oracles take the (R, d) iterates of R problems.

    The problems must be of one kind and shape; they may differ in their
    data and scalars (seeds, centers, datasets, the box, the reddi
    slope).  Row r of a stacked oracle's loss and gradient equals
    problem r's, bit for bit.  A single problem is returned as it is.
    Only the step oracles, ``slot_losses`` and ``block`` are stacked: the
    comparator, the box checks and the final MLP metrics stay with each
    problem.  The problems are left as they are; their loaded blocks are
    not carried over.
    """
    if len(problems) == 1:
        return problems[0]
    bare = []
    for p in problems:
        p = copy.copy(p)
        p._unload()
        bare.append(p)
    out = stack_like(bare)
    out.shape = (len(problems), out.dim)
    out._stacked()
    return out


#: Elements of each block of a seeded quadratic's build pass.
BUILD_ELEMENTS = 2 ** 16


def _stream(seed: int, skip: int) -> np.random.Generator:
    """``default_rng(seed)`` after ``skip`` doubles: a uniform double
    takes one 64-bit draw of PCG64."""
    bits = np.random.PCG64(seed)
    bits.advance(skip)
    return np.random.Generator(bits)


def _per_replica(value, replicas: int) -> list:
    """A stacked field (one value, or an (R, 1) column) as R values."""
    return np.broadcast_to(np.ravel(value), (replicas,)).tolist()


class QuadraticTracking(OnlineProblem):
    """f_t(theta) = 0.5 * ||theta - c_t||^2 with bounded random centers.

    The centers are a (T, d) array, or (:meth:`seeded`) the rows of one
    seeded uniform draw, of which a block holds only the loaded steps.
    """

    name = "quadratic"

    def __init__(self, centers: np.ndarray, box: FeasibleBox):
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim != 2:
            raise DimensionError("centers must be a (T, d) array")
        self._setup(box, centers.shape[0], centers.mean(axis=0),
                    centers.min(axis=0), centers.max(axis=0), centers, None)

    @classmethod
    def seeded(cls, dim: int, horizon: int, seed: int,
               box: FeasibleBox) -> "QuadraticTracking":
        """The quadratic on the centers
        ``default_rng(seed).uniform(-1, 1, size=(horizon, dim))``, whose
        blocks draw their rows from the seeded generator, bit for bit.

        A build pass draws the rows BUILD_ELEMENTS at a time, once, for
        the comparator and the gradient bound.  ``centers.mean(axis=0)``
        adds the rows one after another when d >= 2, so the sum carried
        from block to block, added into a block's first row before the
        block's own sum, gives its bits.  A min and a max are exact in
        any order: the pass keeps each row's running min and max over
        the blocks, elementwise, and reduces them once at its end.  At
        d = 1 numpy sums the contiguous column pairwise, so the draw is
        kept as the (T, 1) centers of the explicit problem, O(T) as the
        per-step losses are.
        """
        if dim == 1:
            return cls(np.random.default_rng(seed).uniform(
                -1.0, 1.0, size=(horizon, 1)), box)
        stream = np.random.default_rng(seed)
        rows = max(1, BUILD_ELEMENTS // dim)
        total = lo = hi = None
        for t0 in range(0, horizon, rows):
            block = stream.uniform(-1.0, 1.0,
                                   size=(min(rows, horizon - t0), dim))
            if total is None:
                lo, hi = block.copy(), block.copy()
            else:
                n = len(block)
                np.minimum(lo[:n], block, out=lo[:n])
                np.maximum(hi[:n], block, out=hi[:n])
                block[0] += total
            total = np.add.reduce(block, axis=0)
        problem = cls.__new__(cls)
        problem._setup(box, horizon, total / horizon, lo.min(axis=0),
                       hi.max(axis=0), None, seed)
        return problem

    def _setup(self, box: FeasibleBox, horizon: int, mean: np.ndarray,
               lo: np.ndarray, hi: np.ndarray,
               centers: Optional[np.ndarray], seed: Optional[int]) -> None:
        """Finish a problem whose centers have the mean, min and max given
        over their ``horizon`` rows."""
        # Largest |theta_i - c_{t,i}| over the box and all centers.
        g_inf = float(np.max(np.maximum(box.hi - lo, hi - box.lo)))
        super().__init__(len(mean), box, box.project(mean), g_inf)
        self.centers = centers
        self.seed = seed
        self.horizon = horizon
        self._unload()

    def _unload(self) -> None:
        # the loaded rows, steps _t0 + 1 .. _t0 + _n, and per distinct
        # seed the generator standing at the row after step _drawn
        self._t0 = self._n = self._drawn = 0
        self._centers = self._streams = None

    def _stacked(self) -> None:
        if self.centers is None:
            self.seed = _per_replica(self.seed, self.shape[0])

    def _load(self, t0: int, n: int) -> None:
        if t0 < 0 or t0 + n > self.horizon:
            step = t0 + 1 if t0 < 0 else max(t0, self.horizon) + 1
            raise DomainError(
                f"step {step} outside the problem horizon {self.horizon}")
        self._centers = self._draw(t0, n)
        self._t0, self._n = t0, n

    def _draw(self, t0: int, n: int) -> np.ndarray:
        """Rows t0 .. t0 + n - 1 of the centers: (n, d), or (R, n, d)."""
        if self.centers is not None:
            return self.centers[..., t0:t0 + n, :]
        seeds = self.seed if isinstance(self.seed, list) else [self.seed]
        if self._streams is None or t0 != self._drawn:
            # one stream per distinct seed: replicas may share a seed
            self._streams = {seed: _stream(seed, t0 * self.dim)
                             for seed in dict.fromkeys(seeds)}
        rows = {seed: stream.uniform(-1.0, 1.0, size=(n, self.dim))
                for seed, stream in self._streams.items()}
        self._drawn = t0 + n
        if isinstance(self.seed, list):
            return np.stack([rows[seed] for seed in seeds])
        return rows[self.seed]

    def _center(self, t: int) -> np.ndarray:
        k = t - 1 - self._t0
        if not 0 <= k < self._n:
            # a step outside the loaded block loads the block from it
            self._load(t - 1, max(1, buffer_rows(self.horizon - t + 1,
                                                 math.prod(self.shape))))
            k = 0
        # the loaded rows are (n, d), or (R, n, d) when stacked
        return self._centers[..., k, :]

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        theta = self._check_theta(theta)
        diff = theta - self._center(t)
        # vecdot takes the dot product of each row as np.dot would
        return 0.5 * np.vecdot(diff, diff), diff

    def grad_into(self, t: int, theta: np.ndarray, out: np.ndarray) -> None:
        np.subtract(theta, self._center(t), out=out)

    def slot_losses(self, grads, thetas, first, out) -> None:
        # 0.5 ||theta - c_t||^2 is 0.5 ||g_t||^2, a row at a time
        np.multiply(0.5, np.vecdot(grads, grads), out=out)

    def _star_block(self, t0: int, n: int) -> np.ndarray:
        diff = self.theta_star[..., None, :] - self._centers
        return 0.5 * np.vecdot(diff, diff)


def make_quadratic(dim: int, horizon: int, seed: int,
                   box_halfwidth: float = 2.0) -> QuadraticTracking:
    """Random-centers quadratic: centers uniform in [-1, 1]^d, streamed
    from the seeded generator (:meth:`QuadraticTracking.seeded`)."""
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    return QuadraticTracking.seeded(dim, horizon, seed,
                                    FeasibleBox.cube(box_halfwidth, dim))


class ReddiCycle(OnlineProblem):
    """The classic 1-D construction on which Adam fails to converge.

    f_t(theta) = C * theta when t = 1, 4, 7, ...  and -theta otherwise,
    over [-1, 1].  One full 3-cycle sums to (C - 2) * theta, so for C > 2
    the comparator is theta_star = -1.  Its block data are its slopes, a
    closed form of t: the oracle takes a step's slope from t, and
    ``block`` the comparator's losses from the block's slopes.
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

    def loss_and_grad(self, t: int,
                      theta: np.ndarray) -> Tuple[float, np.ndarray]:
        theta = self._check_theta(theta)
        if t < 1:
            raise DomainError(f"step index starts at 1, got {t}")
        grad = (self._up if t % 3 == 1 else self._down).copy()
        # slope * theta, the slope read back from the gradient
        return grad[..., 0] * theta[..., 0], grad

    def grad_into(self, t: int, theta: np.ndarray, out: np.ndarray) -> None:
        out[...] = self._up if t % 3 == 1 else self._down

    def slot_losses(self, grads, thetas, first, out) -> np.ndarray:
        # as loss_and_grad, at the iterate theta_{t-1} that entered step t
        np.multiply(grads[0, :, 0], first[..., 0], out=out[0])
        np.multiply(grads[1:, :, 0], thetas[:len(out) - 1, :, 0], out=out[1:])
        return thetas[len(out) - 1].copy()

    def _stacked(self) -> None:
        # one slope per replica, as theta[..., 0] has one entry per replica
        self.c = np.ravel(self.c)

    def _star_block(self, t0: int, n: int) -> np.ndarray:
        # (n,), or (R, n) with a slope column and a comparator per replica
        up = np.arange(t0 + 1, t0 + n + 1) % 3 == 1
        slopes = np.where(up, np.reshape(self.c, np.shape(self.c) + (1,)),
                          -1.0)
        return slopes * self.theta_star[..., :1]

    def initial_point(self, seed: int = 0) -> np.ndarray:
        return np.array([0.0])


def make_reddi(c: float = 3.0) -> ReddiCycle:
    return ReddiCycle(c)


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic per-epoch shuffle, a pure function of (seed, epoch)."""
    return np.random.default_rng([int(seed), 0x5EED, int(epoch)]).permutation(n)


class _MinibatchMixin:
    """Deterministic minibatch selection by step index, reshuffled per epoch.

    A block's data are the sample orders of the epochs its steps span.
    Loading a block keeps the orders of the last one that it still
    spans, so the step loop builds each epoch's permutation once, and
    the comparator's losses read the same orders as the steps.  Without
    a comparator (the MLP) a block loads nothing.  A step outside the
    loaded orders loads its own epoch's order alone; an earlier epoch
    asked for again is recomputed, since the order is a pure function
    of (seed, epoch).

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
        self.batches_per_epoch = math.ceil(n / batch_size)
        self._unload()

    def _unload(self) -> None:
        self._orders: dict = {}

    def _stacked(self) -> None:
        for name in self._data:
            rows = getattr(self, name)
            setattr(self, name, rows.reshape(-1, *rows.shape[2:]))
        # one seed per replica; replicas that share it share a column entry
        self._order_seed = _per_replica(self._order_seed, self.shape[0])

    def _load(self, t0: int, n: int) -> None:
        super()._load(t0, n)
        if self.theta_star is None:
            # no comparator reads the block at once, so the steps load
            # each epoch's order as they reach it, and hold one
            return
        per = self.batches_per_epoch
        loaded = self._orders
        self._orders = {
            epoch: loaded[epoch] if epoch in loaded
            else self._epoch_orders(epoch)
            for epoch in range(t0 // per, (t0 + n - 1) // per + 1)}

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
                 batch_size: int, seed: int, box: FeasibleBox):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise DimensionError("features must be (n, d) and labels (n,)")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise DomainError("labels must be -1 or +1")
        _check_features(features)
        n, dim = features.shape
        self.features = features
        self.labels = labels
        self._init_batching(n, batch_size, seed)
        # |grad_i| <= mean over the batch of |x_i| since the sigmoid factor
        # is in (0, 1); max |X| bounds that for every possible batch.
        g_inf = float(np.max(np.abs(features)))
        super().__init__(dim, box, logistic_comparator(features, labels, box),
                         g_inf)

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

    def _star_block(self, t0: int, n: int) -> np.ndarray:
        """The loaded epoch orders' comparator losses, per replica.

        The block's full batches of an epoch go through one stacked
        product and mean, which take each batch's rows as ``loss_at``
        does; a partial last batch goes alone.
        """
        b, per = self._batch_size, self.batches_per_epoch
        full = self.n_train // b
        thetas = self.theta_star.reshape(-1, self.dim)
        out = np.empty((len(thetas), n))
        for epoch, orders in self._orders.items():
            # the epoch's batch slots lo .. hi - 1 are the block's steps
            # at .. at + hi - lo - 1
            start = epoch * per
            lo, hi = max(t0, start) - start, min(t0 + n, start + per) - start
            at = start + lo - t0
            k = max(0, min(hi, full) - lo)
            for row, order, theta in zip(
                    out, orders.reshape(len(thetas), -1), thetas):
                if k:
                    idx = order[lo * b:(lo + k) * b]
                    x = self.features[idx].reshape(k, b, self.dim)
                    y = self.labels[idx].reshape(k, b)
                    margins = y * np.matmul(x, theta)
                    row[at:at + k] = _mean_of_rows(
                        np.logaddexp(0.0, -margins))
                if hi > full:
                    idx = order[full * b:]
                    row[at + hi - 1 - lo] = np.mean(np.logaddexp(
                        0.0, -self.labels[idx] * (self.features[idx]
                                                  @ theta)))
        return out


def full_logistic_grad(theta: np.ndarray, features: np.ndarray,
                       labels: np.ndarray) -> np.ndarray:
    margins = labels * (features @ theta)
    weights = -labels * _sigmoid(-margins)
    return features.T @ weights / len(labels)


def _check_features(features: np.ndarray) -> None:
    """Raise a DomainError naming the first non-finite feature."""
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise DomainError(f"features: {features[row, col]} at row {row}, "
                          f"column {col} is not finite")


COMPARATOR_TOL = 1e-9
COMPARATOR_STEPS = 2_000_000


def logistic_comparator(features: np.ndarray, labels: np.ndarray,
                        box: FeasibleBox) -> np.ndarray:
    """Full-batch projected gradient descent until a step moves theta by
    less than COMPARATOR_TOL * step, within COMPARATOR_STEPS steps.

    The box keeps the minimizer finite even for separable data.  The step
    size is 1/L with L the exact Lipschitz constant of the gradient
    (lambda_max(X^T X) / (4 n)).
    """
    _check_features(features)
    n, dim = features.shape
    lipschitz = float(np.linalg.eigvalsh(features.T @ features / (4.0 * n))[-1])
    step = 1.0 / max(lipschitz, 1e-12)
    theta = np.zeros(dim)
    for _ in range(COMPARATOR_STEPS):
        grad = full_logistic_grad(theta, features, labels)
        nxt = box.project(theta - step * grad)
        gap = float(np.max(np.abs(theta - nxt))) / step
        theta = nxt
        if gap < COMPARATOR_TOL:
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
        """Mean cross-entropy loss and the logits for a batch; a label
        outside [0, classes) raises a DomainError."""
        check_labels(y, self.layer_sizes[-1])
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
        both from one forward pass.

        Every label of ``y`` must lie in [0, classes).  That is not
        checked here, as this runs every step: a negative label would
        pick a class from the end.  Labels are checked where they enter
        (:class:`MlpClassification`, :meth:`forward`).
        """
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


def check_labels(labels, classes: int, name: str = "labels") -> None:
    """Raise a DomainError naming the first row of ``labels`` whose label
    lies outside [0, classes)."""
    labels = np.asarray(labels)
    bad = (labels < 0) | (labels >= classes)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise DomainError(f"{name}: label {labels[at]} at row {at[-1]} "
                          f"lies outside [0, {classes})")


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


def two_cluster_dataset(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Half the points near (-1,-1), half near (+1,+1), gaussian with sd 0.9."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal(loc=(-1.0, -1.0), scale=0.9, size=(half, 2))
    x1 = rng.normal(loc=(1.0, 1.0), scale=0.9, size=(n - half, 2))
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
        classes = net.layer_sizes[-1]
        check_labels(y_train, classes, "y_train")
        check_labels(y_test, classes, "y_test")
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
