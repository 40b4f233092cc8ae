"""Trajectory measurements: rate histograms, convergence-condition
monitors, and theoretical regret-bound evaluators.

The monitors stream: each is fed the (n, R, d) rows of n consecutive
steps of R runs a block at a time, reduces a block over its coordinate
axis and carries O(R d) state between blocks (the previous rate row for
C2, the v recursion and prefix sum of g^2 for zeta, the running max of
1/eta_hat for the inverse-rate cap, and per run C2's violation count and
first violation).  :class:`RunMonitor` feeds them all from the step
buffers of one step loop: the screens, the inverse-rate max, the rate
summaries and the histograms in the loop's process, and the reductions
that never raise (:class:`ConditionMonitors`: zeta, C2, the box test and
the |g| max) there too, or, for a long loop with a writer process, in
that process (:mod:`transopt.writer`).  ``check_c2``, ``estimate_zeta``
and ``eta_bound_check`` feed a whole (T, d) array as one block of one
run.
:func:`buffer_rows` is the one block rule of a pass over the steps (the
step buffers and the problems' blocks of per-step data), and :data:`TOL`
the one tolerance of every check.

The monitors never enforce anything; they report.  Whether a run
satisfies the convergence hypotheses is an empirical question answered
per trajectory, and downstream scoring only compares the theoretical
bound against measured regret on runs where every hypothesis flag is
true.
"""

from __future__ import annotations

import csv
import math
import mmap
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DomainError
from .optim import first_non_finite, screen_gradients

#: Shared log10 grid so histograms of different optimizers line up.
HIST_BINS = 60
HIST_LO = 1e-8
HIST_HI = 1e3

#: Slack of every check: C2, the inverse-rate cap, the gradient bound
#: and the box (iterates and comparator).
TOL = 1e-12

#: Distinct histogram rows whose CSV text ``LrHistogram.to_csv`` keeps.
TEXT_CACHE_ROWS = 64


class LrHistogram:
    """Per-iteration histogram of effective learning rates on the shared
    log grid: HIST_BINS bins from HIST_LO to HIST_HI.

    Every coordinate of every recorded iteration lands in exactly one
    bin; values off the grid go to the underflow/overflow counters, so
    row totals always equal the dimension.  Rows are binned and kept a
    block at a time: one counter row per recorded step.
    """

    def __init__(self):
        self.edges = np.logspace(math.log10(HIST_LO), math.log10(HIST_HI),
                                 HIST_BINS + 1)
        # slot 0 is underflow (below edges[0]), slot k holds
        # [edges[k-1], edges[k]), and the last slot is overflow (>= edges[-1])
        self._width = HIST_BINS + 2
        # one entry per recorded block: its steps and its counter rows
        self.steps: List[np.ndarray] = []
        self.counts: List[np.ndarray] = []

    def record(self, t: int, lrs: np.ndarray) -> None:
        """Bin the rates of step t; see :meth:`record_rows`."""
        lrs = np.asarray(lrs, dtype=np.float64)
        self.record_rows(np.array([t]), lrs.reshape(1, -1))

    def record_rows(self, ts: np.ndarray, rows: np.ndarray) -> None:
        """Bin ``rows[k]``, the rates of step ``ts[k]``, for every k.

        A rate that is not positive and finite raises, naming the step
        and coordinate of the first one, and the block leaves no trace.
        """
        rows = np.asarray(rows, dtype=np.float64)
        n = len(rows)
        if n == 0:
            return
        # min/max propagate NaN, so the screen fails on it too
        if not (rows.min() > 0.0 and rows.max() < math.inf):
            bad = ~((rows > 0.0) & (rows < math.inf))
            k, i = divmod(int(np.flatnonzero(bad)[0]), rows.shape[1])
            raise DomainError(
                f"learning rate {rows[k, i]!r} at step {ts[k]}, "
                f"coordinate {i}: only positive finite rates can be binned")
        # offset row k's slots by k * width, so one bincount bins the block
        slots = self.edges.searchsorted(rows, side="right")
        slots += np.arange(0, n * self._width, self._width)[:, None]
        counts = np.bincount(slots.ravel(), minlength=n * self._width)
        self.counts.append(counts.reshape(n, self._width).astype(
            self.counter_type(rows.shape[1])))
        self.steps.append(np.array(ts, dtype=np.int64))

    @staticmethod
    def counter_type(dim: int) -> np.dtype:
        """The type of the counters of rows of ``dim`` rates: a counter
        never exceeds the dimension, so the smallest unsigned type that
        holds d holds it (one byte a counter below d = 256)."""
        return np.min_scalar_type(dim)

    @property
    def rows(self) -> List[Tuple[int, np.ndarray, int, int]]:
        """(t, bin counts, underflow, overflow) of every recorded step."""
        return [(t, s[1:-1].astype(np.int64), int(s[0]), int(s[-1]))
                for ts, slots in zip(self.steps, self.counts)
                for t, s in zip(ts.tolist(), slots)]

    def csv_header(self) -> str:
        """The CSV header line: t, each bin's log10 lower edge, then
        underflow and overflow."""
        edges = [f"{math.log10(e):.17g}" for e in self.edges[:-1]]
        return ",".join(["t", *edges, "underflow", "overflow"]) + "\r\n"

    def csv_lines(self, ts: np.ndarray, counts: np.ndarray,
                  texts: Dict[bytes, str]) -> str:
        """The CSV lines of counter rows ``counts`` of steps ``ts``.

        Formatting dominates, and runs repeat counter rows (at d = 1
        there are at most width distinct ones), so each distinct row is
        formatted once and kept in ``texts``, a cache shared by the calls
        that write one file and capped to keep memory bounded.
        """
        # CSV column order: the bins, then underflow and overflow
        slots = counts[:, np.r_[1:self._width - 1, 0, self._width - 1]]
        data, size = slots.tobytes(), slots.itemsize * self._width
        lines = []
        for k, t in enumerate(ts.tolist()):
            key = data[k * size:(k + 1) * size]
            text = texts.get(key)
            if text is None:
                text = ",".join(map(str, slots[k].tolist()))
                if len(texts) < TEXT_CACHE_ROWS:
                    texts[key] = text
            lines.append(f"{t},{text}\r\n")
        return "".join(lines)

    def to_csv(self, path) -> None:
        texts: Dict[bytes, str] = {}
        with open(path, "w", newline="") as f:
            f.write(self.csv_header())
            for ts, counts in zip(self.steps, self.counts):
                f.write(self.csv_lines(ts, counts, texts))


def _as_rows(rate_rows) -> np.ndarray:
    rows = np.asarray(rate_rows, dtype=np.float64)
    return rows[:, None] if rows.ndim == 1 else rows


class C2Monitor:
    """Streamed C2 check, fed the (n, R, d) eta-hat rows of consecutive
    steps of R runs.

    Keeps, per run, the number of violations and the (t, i) of the first
    (t is 1-based, i 0-based), and carries only sqrt(t)/eta_hat of the
    last step fed, so a block's first row is compared with the previous
    block's last.  A step violates C2 where its sqrt(t)/eta_hat falls
    more than :data:`TOL` below the previous step's.
    """

    def __init__(self, replicas: int = 1):
        self.count = np.zeros(replicas, dtype=np.int64)
        self.first: List[Optional[Tuple[int, int]]] = [None] * replicas
        self._t = 0
        # the first step of a run has no predecessor, and -inf fails no test
        self._last = -math.inf

    def update(self, rows: np.ndarray) -> np.ndarray:
        """Count the violations of the block; returns its (n, R, d) mask
        of them."""
        n = len(rows)
        t0, self._t = self._t, self._t + n
        # q[j + 1] = sqrt(t)/eta_hat_t of step t = t0 + j + 1, and q[0]
        # that of the step before, so the test of step t reads
        # q[j + 1] < q[j] - TOL
        q = np.empty((n + 1, *rows.shape[1:]))
        q[0] = self._last
        t = np.arange(t0 + 1, t0 + n + 1, dtype=np.float64)[:, None, None]
        with np.errstate(over="ignore"):  # a subnormal rate makes q inf
            np.divide(np.sqrt(t), rows, out=q[1:])
        self._last = q[-1].copy()
        bad = q[1:] < q[:-1] - TOL
        counts = np.count_nonzero(bad, axis=(0, 2))
        for r in np.flatnonzero((counts > 0) & (self.count == 0)).tolist():
            k, i = divmod(int(np.argmax(bad[:, r])), bad.shape[2])
            self.first[r] = (t0 + k + 1, i)
        self.count += counts
        return bad


def check_c2(rate_rows: Sequence[np.ndarray]) -> List[Tuple[int, int]]:
    """Violations of sqrt(t)/rate_t >= sqrt(t-1)/rate_{t-1} per coordinate.

    ``rate_rows[k]`` is the eta-hat vector of step k+1.  Returns (t, i)
    pairs (t is 1-based, i 0-based) where the inverse-rate monotonicity
    fails by more than :data:`TOL`, ordered by t and then i; the pairs of
    one step share one t object.
    """
    bad = C2Monitor(1).update(_as_rows(rate_rows)[:, None])
    steps, coords = np.nonzero(bad[:, 0])
    ts = (steps + 1).tolist()
    shared = dict(zip(ts, ts))
    return list(zip(map(shared.__getitem__, ts), coords.tolist()))


#: Widest (R, d) gradient block for which ZetaMonitor runs the v
#: recursion on Python floats, column by column, instead of one numpy
#: call per row.
SCALAR_RECURSION_DIM = 16


class ZetaMonitor:
    """Streamed :func:`estimate_zeta` of R runs, fed the (n, R, d)
    gradient rows of consecutive steps; ``beta2`` holds each run's decay.

    Carries the v recursion, the prefix sum of g^2 and the running zeta
    of every run.
    """

    def __init__(self, dim: int, beta2: Sequence[float]):
        self.beta2 = np.array(beta2, dtype=np.float64)[:, None]
        replicas = len(self.beta2)
        # the decay of each (run, coordinate) column, for the scalar path
        self._column_beta2 = np.repeat(self.beta2, dim).tolist()
        self._v = np.zeros((replicas, dim))
        self._raw = np.zeros((replicas, dim))
        self._t = 0
        self._zeta = np.zeros(replicas)
        self._nonzero = np.zeros(replicas, dtype=bool)

    @property
    def value(self) -> List[Optional[float]]:
        """Each run's zeta: None while every gradient is zero, inf once no
        finite zeta works."""
        return [zeta if nonzero else None for nonzero, zeta in zip(
            self._nonzero.tolist(), self._zeta.tolist())]

    def update(self, grads: np.ndarray) -> None:
        n = len(grads)
        lo, self._t = self._t, self._t + n
        if not n:
            return
        # all-zero rows leave v and the prefix sum at zero
        if not self._nonzero.all():
            self._nonzero |= np.any(grads, axis=(0, 2))
        g2 = grads * grads
        # vs starts as (1 - beta) * g2 and becomes v row by row:
        # beta * v + (1 - beta) * g2, one step at a time, as the rounding
        # of this sequential recursion fixes zeta_min's bits.  Python
        # floats round as numpy does; on narrow blocks a loop over them
        # costs less than a numpy call per row.
        vs = np.multiply(g2, 1.0 - self.beta2)
        if self._v.size <= SCALAR_RECURSION_DIM:
            columns = []
            for beta, v, column in zip(self._column_beta2,
                                       self._v.ravel().tolist(),
                                       vs.reshape(n, -1).T.tolist()):
                out = []
                for f in column:
                    v = beta * v + f
                    out.append(v)
                columns.append(out)
            vs = np.array(columns).T.reshape(g2.shape)
        else:
            v = self._v
            for k in range(n):
                v = self.beta2 * v + vs[k]
                vs[k] = v
        self._v = vs[-1].copy()
        # a running sum that continues from the previous block; then both
        # sides of the condition, in place
        g2[0] += self._raw
        rhs = np.cumsum(g2, axis=0, out=g2)
        self._raw = rhs[-1].copy()
        np.sqrt(rhs, out=rhs)
        lhs = vs
        lhs *= np.arange(lo + 1, self._t + 1, dtype=np.float64)[:, None, None]
        np.sqrt(lhs, out=lhs)
        # a zero v under a nonzero raw sum makes the ratio, and zeta for
        # good, +inf; fmax, like Python's max before it, passes over a
        # NaN block max
        active = rhs > 0.0
        with np.errstate(divide="ignore"):
            ratio = np.divide(rhs, lhs, out=rhs, where=active)
        np.fmax(self._zeta, np.max(ratio, axis=(0, 2), where=active,
                                   initial=-math.inf), out=self._zeta)


def estimate_zeta(grads: np.ndarray, beta2: float) -> Optional[float]:
    """Smallest zeta making the averaged-gradient lower bound hold.

    For each step t and coordinate i the monitored condition is

        sqrt(t * v_{t,i}) >= (1/zeta) * sqrt(sum_{j<=t} g_{j,i}^2)

    where v is the (unrolled) exponential average of squared gradients
    with the constant decay ``beta2``.  The nested products collapse to
    the forward recursion v_t = beta2 * v_{t-1} + (1 - beta2) * g_t^2, so
    the scan is O(T d).  Returns None when every gradient is zero and inf
    when no finite zeta works (some v_{t,i} is zero while the raw sum is
    not).
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise DomainError("grads must be a (T, d) array")
    monitor = ZetaMonitor(grads.shape[1], [beta2])
    monitor.update(grads[:, None])
    return monitor.value[0]


class InverseRateMonitor:
    """Streamed max of 1/eta_hat of R runs, fed (n, R, d) eta-hat rows;
    a run's max is +inf once one of its rates is not positive, or so
    small (below about 5.6e-309) that its inverse overflows."""

    def __init__(self, replicas: int = 1):
        self.max = np.full(replicas, -math.inf)

    def update(self, rows: np.ndarray) -> np.ndarray:
        """Fold in a block; returns its (R,) per-run min rates (NaN
        where a run's rates are all NaN)."""
        # a correctly rounded 1/x falls as x grows, so 1/min is the max of
        # 1/x; fmin and fmax skip NaN, as the elementwise tests did
        low = np.fmin.reduce(rows, axis=(0, 2), initial=math.nan)
        with np.errstate(over="ignore"):
            inverse = np.divide(1.0, low, out=np.full_like(low, math.inf),
                                where=low > 0.0)
        inverse[np.isnan(low)] = math.nan
        np.fmax(self.max, inverse, out=self.max)
        return low


def inverse_rate_bounded(inverse_max: float, r_l: float, rho: float) -> bool:
    """True iff a max of 1/eta_hat is <= 1/(r_l (1 - rho)) + TOL."""
    if not 0.0 < rho < 1.0 or r_l <= 0.0:
        raise DomainError("need r_l > 0 and rho in (0, 1)")
    return bool(inverse_max <= 1.0 / (r_l * (1.0 - rho)) + TOL)


def eta_bound_check(rate_rows: Sequence[np.ndarray], r_l: float,
                    rho: float) -> bool:
    """True iff every 1/eta_hat entry is <= 1/(r_l (1 - rho)) + TOL."""
    monitor = InverseRateMonitor()
    monitor.update(_as_rows(rate_rows)[:, None])
    return inverse_rate_bounded(float(monitor.max[0]), r_l, rho)


def sampled_steps(horizon: int, stride: int) -> np.ndarray:
    """Steps that carry a CSV row: every stride-th, plus 1 and the horizon."""
    return np.union1d(np.arange(stride, horizon + 1, stride), [1, horizon])


#: A run's step buffers: a (rows, R, d) temporary of a flush holds about
#: STREAM_ELEMENTS elements, the histogram's int64 (rows, HIST_BINS + 2)
#: temporary at most HIST_ELEMENTS, and at least MIN_STREAM_ROWS rows
#: share a flush's fixed cost (about 0.1 ms).  On the 24-run grid of 200
#: steps at d <= 42, 200-row buffers raised peak RSS by 0.3 MB and 64-row
#: ones left it flat.
STREAM_ELEMENTS = 2048
HIST_ELEMENTS = 32768
MIN_STREAM_ROWS = 64


def buffer_rows(horizon: int, dim: int) -> int:
    """Rows of a run's step buffers, and of any other pass over a run's
    steps; ``dim`` counts every replica's coordinates in a batch."""
    rows = max(MIN_STREAM_ROWS, STREAM_ELEMENTS // dim)
    return min(horizon, rows, HIST_ELEMENTS // (HIST_BINS + 2))


#: numpy's error handling in the step loop and in the reductions of its
#: blocks, wherever they run: overflow, divide and invalid-value warnings
#: off.  Each value they flag in the loop is screened there and raised as
#: one DomainError naming its step (the monitor's loss and gradient
#: screens and positive-rate screen, and the stepper's NaN-v, zero-rate
#: and infinite-rate screens); a reduction reports what it meets, as the
#: zeta sums that a big finite gradient's square overflows to inf.
STEP_ERRSTATE = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


class ConditionMonitors:
    """The streamed reductions of R runs' condition reports that never
    raise: C2, zeta, the box test of the iterates and the max of |g|,
    fed the (n, R, d) gradient, raw-rate and iterate rows of consecutive
    steps.

    ``box`` and ``beta2`` hold one entry per run, as for
    :class:`RunMonitor`.  A step loop runs them in its writer process
    when it has one (:mod:`transopt.writer`), which sends their final
    state back pickled, and otherwise at its flushes; either way under
    :data:`STEP_ERRSTATE`.
    """

    def __init__(self, dim: int, box: Sequence,
                 beta2: Sequence[Optional[float]]):
        replicas = len(box)
        self.c2 = C2Monitor(replicas)
        self._beta2 = list(beta2)
        zeta_rows = [r for r, b in enumerate(beta2) if b is not None]
        self._zeta_rows = (slice(None) if len(zeta_rows) == replicas
                           else zeta_rows)
        self.zeta = (ZetaMonitor(dim, [beta2[r] for r in zeta_rows])
                     if zeta_rows else None)
        # runs without a finite side have no iterate to test
        self._lo = np.stack([b.lo for b in box])
        self._hi = np.stack([b.hi for b in box])
        self._boxed = bool(np.isfinite(self._lo).any()
                           or np.isfinite(self._hi).any())
        self.grad_abs_max = np.zeros(replicas)
        self.iterates_feasible = np.ones(replicas, dtype=bool)

    @property
    def zeta_min(self) -> List[Optional[float]]:
        """Each run's zeta; None for a run fed no beta2."""
        values = iter(self.zeta.value if self.zeta else ())
        return [None if b is None else next(values) for b in self._beta2]

    def update(self, grads: np.ndarray, rates: np.ndarray,
               thetas: np.ndarray) -> None:
        if self._boxed and self.iterates_feasible.any():
            self.iterates_feasible &= np.all(
                (thetas >= self._lo) & (thetas <= self._hi), axis=(0, 2))
        self.c2.update(rates)
        if self.zeta is not None:
            self.zeta.update(grads[:, self._zeta_rows])
        np.maximum(self.grad_abs_max, np.max(grads, axis=(0, 2)),
                   out=self.grad_abs_max)
        np.maximum(self.grad_abs_max, -np.min(grads, axis=(0, 2)),
                   out=self.grad_abs_max)


#: Fewest buffers of steps whose reductions a loop's writer process runs.
#: The loop waits for the reductions of its last block, and with few
#: blocks that wait (a wake-up and the writer's backlog) costs more than
#: the overlap saves: the criterion-02 grid, three loops of 8 runs of 200
#: steps in 3 buffers each, waited about 6 ms a loop for them and took
#: 7% longer in all.
WRITER_BLOCKS = 8

#: The step slots of a monitor whose writer process reduces them: two,
#: so that the loop fills one while the writer reduces the other, and
#: more while they hold at most SLOT_BYTES together, up to MAX_SLOTS.  A
#: writer woken under SCHED_BATCH can wait about a scheduler tick for a
#: CPU, longer than the 100k-step quadratic takes to fill a slot (204
#: steps, about 3 ms): with two slots its loop waited for a free slot
#: for 1-5% of a sweep, with four almost never.  An MLP batch's slots
#: are megabytes each, so it gets two.
SLOT_BYTES = 2 ** 18
MAX_SLOTS = 4


def shared_slots(size: int) -> int:
    """Step slots of a monitor whose writer reduces them, with buffers
    of ``size`` elements each (rows * R * d)."""
    return min(MAX_SLOTS, max(2, SLOT_BYTES // (3 * 8 * size)))


def _shared_zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """A float64 array of zeros in its own anonymous shared mapping: a
    process forked after it is made sees every later write to it."""
    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * math.prod(shape)))


class RunMonitor:
    """Every streamed monitor of the R runs of one step loop, fed a block
    of steps at a time; a lone run is R = 1.

    ``box``, ``beta2`` and ``sqrt_decay`` hold one entry per run: its
    feasible box, the constant decay of its zeta (None for a run without
    a schedule, which gets no zeta) and whether its effective rate is
    eta-hat divided by sqrt(t).  The step loop writes step t's losses
    into row t - 1 of the (T, R) ``losses``, and with ``comparator`` the
    comparators' losses of each block of steps into the same columns of
    the (R, T) ``regret``; it copies its gradients, raw rates eta-hat and
    iterates, (R, d) or (d,), into row k of the three (rows, R, d)
    ``buffers`` (grads, rates, thetas; rows from :func:`buffer_rows`) and
    calls ``flush(k + 1)`` when they are full and ``finish(k)`` after the
    last step.

    A flush first screens the block's losses and gradients
    (:meth:`screen`), so no non-finite one reaches a monitor, a
    histogram or the artifacts.  It then turns the block's comparator
    losses into R(t) in place: ``regret[r, t - 1]`` is R(t) of run r
    once step t is flushed.  Then it reduces the whole block over
    its coordinate axis, so it makes one call per monitor whatever R
    is: a raw rate that is not positive raises, naming the run, step and
    coordinate, at any stride; the min/median/max of the sampled steps'
    raw rates go to ``rate_summary`` (R, sampled steps, 3), and their
    effective rates to each run's own ``histograms[r]``.  The reductions
    that never raise (``conditions``: C2, zeta, the box test and |g|)
    run at the flush too, unless ``writer_reduces``.

    A ``shared`` monitor keeps its losses, regrets and rate summaries
    in anonymous shared mappings, for the loop's writer process forked
    after it to read.  When the run spans at least
    :data:`WRITER_BLOCKS` buffers of steps, the writer also runs the
    reductions (``writer_reduces``): the buffers are ``slots[slot]``,
    one of :func:`shared_slots` slots of one more shared mapping, and
    the writer reduces each flushed slot while the loop fills the next.

    The runs keep O(R d) state besides the per-step losses and regrets
    and the per-sampled-step histogram and summary rows; ``grads`` and
    ``rate_rows`` hold the (R, T, d) trajectories only with
    ``keep_trajectory``.
    """

    def __init__(self, dim: int, horizon: int, stride: int,
                 box: Sequence, beta2: Sequence[Optional[float]],
                 sqrt_decay: Sequence[bool], keep_trajectory: bool = False,
                 shared: bool = False, comparator: bool = False):
        replicas = len(box)
        rows = buffer_rows(horizon, replicas * dim)
        self.dim = dim
        self.writer_reduces = shared and horizon > (WRITER_BLOCKS - 1) * rows
        zeros = _shared_zeros if shared else np.zeros
        self.losses = zeros((horizon, replicas))
        self.regret = zeros((replicas, horizon)) if comparator else None
        # (slots, grads/rates/thetas, rows, R, d)
        if self.writer_reduces:
            self.slots = _shared_zeros((shared_slots(rows * replicas * dim),
                                        3, rows, replicas, dim))
        else:
            self.slots = np.zeros((1, 3, rows, replicas, dim))
        self.slot = 0
        # the grads, rates and thetas buffers the loop fills
        self.buffers = tuple(self.slots[0])
        self.steps = sampled_steps(horizon, stride)
        self.histograms = [LrHistogram() for _ in range(replicas)]
        self.rate_summary = zeros((replicas, len(self.steps), 3))
        self.inverse_rate = InverseRateMonitor(replicas)
        self.conditions = ConditionMonitors(dim, box, beta2)
        # effective rate = raw / divisor, with a divisor of 1 (exact) for
        # the runs without sqrt_decay
        self._sqrt_decay = np.array(sqrt_decay, dtype=bool)[:, None]
        self.grads = self.rate_rows = None
        if keep_trajectory:
            self.grads = np.empty((replicas, horizon, dim))
            self.rate_rows = np.empty((replicas, horizon, dim))
        # steps flushed so far, and how many of them are sampled steps
        self.t = 0
        self.sampled = 0

    def next_slot(self) -> int:
        """Fill the next step slot; returns it."""
        self.slot = (self.slot + 1) % len(self.slots)
        self.buffers = tuple(self.slots[self.slot])
        return self.slot

    def finish(self, n: int) -> None:
        """Flush the last n rows, if any, and let go of the buffers."""
        if n:
            self.flush(n)
        self.slots = self.buffers = None

    def screen(self, n: int) -> None:
        """Raise DomainError at the first non-finite loss or gradient of
        the n steps after the last flush (the first n buffer rows).

        The error names the first bad step; at one step a bad loss comes
        before a bad gradient, and then the first bad run and
        coordinate, as a screen at each step would.
        """
        t0 = self.t
        losses = self.losses[t0:t0 + n]
        k = first_non_finite(losses)
        grads = self.buffers[0][:k]
        # a lone run's gradients are (d,), whose error names no run
        screen_gradients(grads[:, 0] if grads.shape[1] == 1 else grads, t0)
        if k < n:
            raise DomainError(
                f"non-finite loss at step {t0 + k + 1}; run aborted",
                replica=int(np.argmax(~np.isfinite(losses[k]))))

    def flush(self, n: int) -> None:
        """Screen the first n buffer rows, the steps after the last flush,
        sum their R(t) and hand them to the monitors."""
        self.screen(n)
        grads, rates, thetas = (b[:n] for b in self.buffers)
        t0, self.t = self.t, self.t + n
        if self.regret is not None:
            # the sequential sums of a per-step ledger, carried on from
            # R(t0); the first block's 0.0 turns a -0.0 difference into
            # the ledger's 0.0 + -0.0.  A sum past the largest double is
            # inf here, and the runner raises it as a DomainError
            regret = self.regret[:, t0:self.t]
            np.subtract(self.losses[t0:self.t].T, regret, out=regret)
            regret[:, 0] += self.regret[:, t0 - 1] if t0 else 0.0
            np.add.accumulate(regret, axis=1, out=regret)
        if self.grads is not None:
            self.grads[:, t0:self.t] = grads.swapaxes(0, 1)
            self.rate_rows[:, t0:self.t] = rates.swapaxes(0, 1)
        if (self.inverse_rate.update(rates) <= 0.0).any():
            # fmin skips NaN, as InverseRateMonitor does
            k, r, i = np.unravel_index(
                np.flatnonzero(np.fmin(rates, 1.0) <= 0.0)[0], rates.shape)
            raise DomainError(
                f"raw rate {float(rates[k, r, i])!r} at step {t0 + k + 1}, "
                f"coordinate {i}: a rate must stay positive (an overflowed "
                "second moment leaves 0)", replica=int(r))
        lo = self.sampled
        self.sampled = hi = int(self.steps.searchsorted(self.t, "right"))
        if hi > lo:
            ts = self.steps[lo:hi]
            sampled = rates[ts - (t0 + 1)] if hi - lo < n else rates
            effective = sampled
            if self._sqrt_decay.any():
                # the step's eta-hat / math.sqrt(t), bit for bit
                effective = sampled / np.where(
                    self._sqrt_decay, np.sqrt(ts)[:, None, None], 1.0)
            for r, histogram in enumerate(self.histograms):
                histogram.record_rows(ts, effective[:, r])
            # min, median and max of one sort; the histogram has screened
            # every rate finite, and np.median's mean of the two middle
            # values of an even count is (a + b) / 2
            ordered = np.sort(sampled, axis=2)
            half = ordered.shape[2] // 2
            median = ordered[..., half]
            if not ordered.shape[2] % 2:
                median = (ordered[..., half - 1] + median) / 2
            summary = self.rate_summary[:, lo:hi]
            summary[..., 0] = ordered[..., 0].T
            summary[..., 1] = median.T
            summary[..., 2] = ordered[..., -1].T
        if not self.writer_reduces:
            self.conditions.update(grads, rates, thetas)


@dataclass(frozen=True)
class TheoryParams:
    """Problem/schedule constants entering the regret bounds."""

    d_inf: float
    g_inf: float
    beta1: float
    rho: float
    r_l: float
    r_u: float
    alpha: float
    lam: Optional[float] = None

    def __post_init__(self):
        for name in ("d_inf", "g_inf", "r_l", "r_u", "alpha"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be > 0")
        for name in ("beta1", "rho"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise DomainError(f"{name} must lie in [0, 1)")
        if self.lam is not None and not 0.0 < self.lam < 1.0:
            raise DomainError("lam must lie in (0, 1)")


def _bound_common(grads: np.ndarray, rate_final: np.ndarray,
                  params: TheoryParams, zeta: float) -> Tuple[float, float, float]:
    grads = np.asarray(grads, dtype=np.float64)
    rate_final = np.asarray(rate_final, dtype=np.float64)
    horizon = grads.shape[0]
    one_minus = 1.0 - params.beta1
    term1 = (math.sqrt(horizon) * params.d_inf ** 2
             / (2.0 * one_minus) * float(np.sum(1.0 / rate_final)))
    col_norms = np.sqrt(np.sum(grads * grads, axis=0))
    col_sq_norms = np.sqrt(np.sum(grads ** 4, axis=0))
    term3 = (2.0 * params.alpha * params.rho * zeta / one_minus ** 3
             * float(np.sum(col_norms)))
    term4 = (params.r_u * math.sqrt(1.0 + math.log(horizon)) / one_minus ** 3
             * float(np.sum(col_sq_norms)))
    return term1, term3, term4


def _usable_zeta(grads: np.ndarray, zeta: Optional[float]) -> Optional[float]:
    # The gradient-dependent terms vanish on an all-zero history, so the
    # bound survives an absent zeta there; otherwise it cannot be evaluated.
    if zeta is not None and math.isfinite(zeta):
        return zeta
    if not np.any(np.asarray(grads)):
        return 0.0
    return None


def bound_corollary1(grads: np.ndarray, rate_final: np.ndarray,
                     params: TheoryParams,
                     zeta: Optional[float]) -> Optional[float]:
    """Regret bound under the geometric momentum schedule beta1 * lam**(t-1)."""
    zeta = _usable_zeta(grads, zeta)
    if zeta is None:
        return None
    if params.lam is None:
        raise DomainError("corollary-1 bound needs lam")
    term1, term3, term4 = _bound_common(grads, rate_final, params, zeta)
    d = np.shape(grads)[1]
    term2 = (d * params.d_inf ** 2
             / (2.0 * params.r_l * (1.0 - params.rho)
                * (1.0 - params.lam) ** 2 * (1.0 - params.beta1)))
    return term1 + term2 + term3 + term4


def bound_corollary2(grads: np.ndarray, rate_final: np.ndarray,
                     params: TheoryParams,
                     zeta: Optional[float]) -> Optional[float]:
    """Regret bound under the harmonic momentum schedule beta1 / t."""
    zeta = _usable_zeta(grads, zeta)
    if zeta is None:
        return None
    term1, term3, term4 = _bound_common(grads, rate_final, params, zeta)
    horizon, d = np.shape(grads)
    term2 = (d * params.d_inf ** 2 * math.sqrt(horizon)
             / (params.r_l * (1.0 - params.rho) * (1.0 - params.beta1)))
    return term1 + term2 + term3 + term4


def lemma_a1_holds(values: Sequence[float], tol: float = TOL) -> bool:
    """Check sum_i a_i / sqrt(prefix_i) <= 2 sqrt(total) for nonnegative a.

    Terms with a zero prefix sum (only possible while every a seen so far
    is zero) contribute 0.
    """
    a = np.asarray(values, dtype=np.float64)
    if np.any(a < 0.0):
        raise DomainError("entries must be nonnegative")
    prefix = np.cumsum(a)
    mask = prefix > 0.0
    lhs = float(np.sum(a[mask] / np.sqrt(prefix[mask])))
    rhs = 2.0 * math.sqrt(float(prefix[-1])) if len(a) else 0.0
    return lhs <= rhs + tol


@dataclass
class ConditionReport:
    """Everything the convergence theorem assumes, measured on one run."""

    zeta_min: Optional[float] = None
    c2_violation_count: int = 0
    #: (t, i) of the first C2 violation, or None
    c2_first_violation: Optional[Tuple[int, int]] = None
    rho_bounded: Optional[bool] = None
    r_ordered: Optional[bool] = None
    beta1_bounded: Optional[bool] = None
    grad_bound_ok: Optional[bool] = None
    diameter_ok: Optional[bool] = None
    eta_inverse_bounded: Optional[bool] = None
    #: max of 1/eta_hat over the run; reported in meta.json, not the CSV
    inverse_rate_max: Optional[float] = None

    @property
    def all_hypotheses_hold(self) -> bool:
        flags = (self.rho_bounded, self.r_ordered, self.beta1_bounded,
                 self.grad_bound_ok, self.diameter_ok)
        return all(f is True for f in flags)

    def items(self):
        yield "zeta_min", self.zeta_min
        yield "c2_violation_count", self.c2_violation_count
        yield "rho_bounded", self.rho_bounded
        yield "r_ordered", self.r_ordered
        yield "beta1_bounded", self.beta1_bounded
        yield "grad_bound_ok", self.grad_bound_ok
        yield "diameter_ok", self.diameter_ok
        yield "eta_inverse_bounded", self.eta_inverse_bounded

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["key", "value"])
            for key, value in self.items():
                if value is None:
                    out = "absent"
                elif isinstance(value, bool):
                    out = str(value).lower()
                elif isinstance(value, float):
                    out = f"{value:.17g}"
                else:
                    out = str(value)
                writer.writerow([key, out])
