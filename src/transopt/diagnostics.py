"""Trajectory measurements: rate histograms, convergence-condition
monitors, and theoretical regret-bound evaluators.

The monitors never enforce anything; they report.  Whether a run
satisfies the convergence hypotheses is an empirical question answered
per trajectory, and downstream scoring only compares the theoretical
bound against measured regret on runs where every hypothesis flag is
true.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .problems import RegretLedger

#: Shared log10 grid so histograms of different optimizers line up.
HIST_BINS = 60
HIST_LO = 1e-8
HIST_HI = 1e3


#: Elements per block in the array passes over (T, d) run data and in the
#: histogram's counter storage, so the temporaries stay bounded whatever T
#: and d are.  Small blocks keep the allocator's high-water mark down: on
#: a sweep of 24 runs of 200 steps, peak RSS rose by 1.0 MB over per-row
#: loops at 32768 elements, by 0.4 MB at 2048 and by 0.1 MB at 1024.
BLOCK_ELEMENTS = 1024


def block_rows(width: int) -> int:
    """Rows of ``width`` elements in one block; at least one."""
    return max(1, BLOCK_ELEMENTS // max(1, width))


def row_blocks(n_rows: int, width: int):
    """Consecutive (lo, hi) row ranges of about BLOCK_ELEMENTS elements each."""
    step = block_rows(width)
    for lo in range(0, n_rows, step):
        yield lo, min(n_rows, lo + step)


class LrHistogram:
    """Per-iteration histogram of effective learning rates on a log grid.

    Every coordinate of every recorded iteration lands in exactly one
    bin; values off the grid go to the underflow/overflow counters, so
    row totals always equal the dimension.  Recorded rows are kept in
    fixed-size blocks of counters, one counter row per recorded step.
    """

    def __init__(self, n_bins: int = HIST_BINS, lo: float = HIST_LO,
                 hi: float = HIST_HI):
        if n_bins < 1 or not 0.0 < lo < hi:
            raise DomainError("need n_bins >= 1 and 0 < lo < hi")
        self.edges = np.logspace(math.log10(lo), math.log10(hi), n_bins + 1)
        # slot 0 is underflow (below edges[0]), slot k holds
        # [edges[k-1], edges[k]), and the last slot is overflow (>= edges[-1])
        self._width = n_bins + 2
        self._block_rows = block_rows(self._width)
        self._ts: List[int] = []
        self._blocks: List[np.ndarray] = []

    def record(self, t: int, lrs: np.ndarray) -> None:
        lrs = np.asarray(lrs, dtype=np.float64)
        ok = (lrs > 0.0) & (lrs < math.inf)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise DomainError(
                f"learning rate {lrs[i]!r} at step {t}, coordinate {i}: "
                "only positive finite rates can be binned")
        k = len(self._ts) % self._block_rows
        if k == 0:
            # a counter never exceeds the dimension, so int32 holds it
            self._blocks.append(
                np.empty((self._block_rows, self._width), dtype=np.int32))
        self._blocks[-1][k] = np.bincount(
            self.edges.searchsorted(lrs, side="right"), minlength=self._width)
        self._ts.append(t)

    def _filled(self):
        """(steps, slot counters) of each block, trimmed to recorded rows."""
        for b, block in enumerate(self._blocks):
            ts = self._ts[b * self._block_rows:(b + 1) * self._block_rows]
            yield ts, block[:len(ts)]

    @property
    def rows(self) -> List[Tuple[int, np.ndarray, int, int]]:
        """(t, bin counts, underflow, overflow) of every recorded step."""
        return [(t, s[1:-1], int(s[0]), int(s[-1]))
                for ts, slots in self._filled() for t, s in zip(ts, slots)]

    def to_csv(self, path) -> None:
        line = ",".join(["%d"] * (self._width + 1)) + "\r\n"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            header = ["t"] + [f"{math.log10(e):.17g}" for e in self.edges[:-1]]
            writer.writerow(header + ["underflow", "overflow"])
            for ts, slots in self._filled():
                cells = np.column_stack([ts, slots[:, 1:-1], slots[:, 0],
                                         slots[:, -1]])
                f.write(line * len(ts) % tuple(cells.ravel().tolist()))


def _as_rows(rate_rows) -> np.ndarray:
    rows = np.asarray(rate_rows, dtype=np.float64)
    return rows[:, None] if rows.ndim == 1 else rows


def check_c2(rate_rows: Sequence[np.ndarray],
             tol: float = 1e-12) -> List[Tuple[int, int]]:
    """Violations of sqrt(t)/rate_t >= sqrt(t-1)/rate_{t-1} per coordinate.

    ``rate_rows[k]`` is the eta-hat vector of step k+1.  Returns (t, i)
    pairs (t is 1-based, i 0-based) where the inverse-rate monotonicity
    fails beyond the tolerance, ordered by t and then i.
    """
    rows = _as_rows(rate_rows)
    coords = list(range(rows.shape[1]))  # one shared int per coordinate
    violations: List[Tuple[int, int]] = []
    # block row j compares step lo + j + 2 with the step before it
    for lo, hi in row_blocks(len(rows) - 1, rows.shape[1]):
        t = np.arange(lo + 2, hi + 2, dtype=np.float64)[:, None]
        lhs = np.sqrt(t) / rows[lo + 1:hi + 1]
        rhs = np.sqrt(t - 1.0) / rows[lo:hi]
        bad = lhs < rhs - tol
        for j in np.flatnonzero(bad.any(axis=1)).tolist():
            step = lo + j + 2
            violations.extend([(step, coords[i])
                               for i in np.flatnonzero(bad[j]).tolist()])
    return violations


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
    if not np.any(grads):
        return None
    beta = float(beta2)
    v = np.zeros(grads.shape[1])
    raw = np.zeros(grads.shape[1])
    zeta = 0.0
    for lo, hi in row_blocks(grads.shape[0], grads.shape[1]):
        g2 = grads[lo:hi] * grads[lo:hi]
        fresh = (1.0 - beta) * g2
        vs = np.empty_like(g2)
        for k in range(hi - lo):
            # beta * v + (1 - beta) * g2, one row at a time: the rounding
            # of this sequential recursion fixes zeta_min's bits
            v = beta * v + fresh[k]
            vs[k] = v
        # a running sum that continues from the previous block
        g2[0] += raw
        raws = np.cumsum(g2, axis=0)
        raw = raws[-1]
        t = np.arange(lo + 1, hi + 1, dtype=np.float64)[:, None]
        lhs = np.sqrt(t * vs)
        rhs = np.sqrt(raws)
        active = rhs > 0.0
        if np.any(active & (lhs == 0.0)):
            return float("inf")
        if np.any(active):
            zeta = max(zeta, float(np.max(rhs[active] / lhs[active])))
    return zeta


def eta_bound_check(rate_rows: Sequence[np.ndarray], r_l: float, rho: float,
                    tol: float = 1e-12) -> bool:
    """True iff every 1/eta_hat entry is <= 1/(r_l (1 - rho)) + tol."""
    if not 0.0 < rho < 1.0 or r_l <= 0.0:
        raise DomainError("need r_l > 0 and rho in (0, 1)")
    cap = 1.0 / (r_l * (1.0 - rho))
    rows = _as_rows(rate_rows)
    for lo, hi in row_blocks(len(rows), rows.shape[1]):
        block = rows[lo:hi]
        if np.any(block <= 0.0):
            return False
        if np.any(1.0 / block > cap + tol):
            return False
    return True


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


def sqrt_t_regret_series(ledger: RegretLedger) -> List[Tuple[int, float]]:
    """The normalized series (t, R(t)/sqrt(t)); bounded iff regret is O(sqrt T)."""
    if not ledger.series:
        raise DomainError("ledger is empty")
    return [(t, r / math.sqrt(t)) for t, r in ledger.series]


def lemma_a1_holds(values: Sequence[float], tol: float = 1e-12) -> bool:
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
    c2_violations: List[Tuple[int, int]] = field(default_factory=list)
    rho_bounded: Optional[bool] = None
    r_ordered: Optional[bool] = None
    beta1_bounded: Optional[bool] = None
    grad_bound_ok: Optional[bool] = None
    diameter_ok: Optional[bool] = None
    eta_inverse_bounded: Optional[bool] = None

    @property
    def all_hypotheses_hold(self) -> bool:
        flags = (self.rho_bounded, self.r_ordered, self.beta1_bounded,
                 self.grad_bound_ok, self.diameter_ok)
        return all(f is True for f in flags)

    def items(self):
        yield "zeta_min", self.zeta_min
        yield "c2_violation_count", len(self.c2_violations)
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
