"""Optimizer steppers.

Each stepper owns an :class:`OptimizerState` and advances it with
``step(theta, grad) -> theta_next``.  A single state must not be shared
between concurrent runs; distinct stepper instances are independent.

Every stepper runs one skeleton, :meth:`_AdaptiveStepper.step`: update
the moving averages m_t, v_t of the gradient and its square in place,
optionally de-bias them, form the rate alpha / (sqrt(v_t) + epsilon),
apply a rate rule, optionally divide by sqrt(t), and take the projected
step theta - eta_t * m_t with the diagonal metric 1/eta_t.  The rules
are the identity (:class:`Adam`), the rate of the running max of v_t
(:class:`Amsgrad`), a clamp into ``eval_bounds`` (:class:`ClippedTransition`),
the blend rho_t * rate + (1 - rho_t) * r_t toward the decreasing SGD
target r_t (:class:`DstAdam`) and the constant rate lr of heavy-ball
:class:`MomentumSgd`, whose first moment takes the gradient undamped
and which, reading no rate from v_t, skips v_t when it steps alone.
The moment decays beta1 and beta2 and the first moment's gain on the
gradient are fields of the skeleton, constant in every stepper but
DstAdam, whose schedule is the one override of ``_betas``.

Bad inputs raise before any state changes; a NaN second moment (an
overflowed one times a zero beta2) or a bad derived rate raises after
the in-place moment update, before t and the last rates advance.

A stepper steps one (d,) iterate, or the (R, d) iterates of R replicas
at once: :func:`stack_like` merges R steppers built alike into one whose
hyperparameters are (R, 1) columns where the replicas differ and plain
floats where they agree, so every update below broadcasts row by row
and gives each replica the bits it would get alone.  :func:`stack_kinds`
goes one step further: groups of different kinds (say SGDM, Adam and
DstAdam on one problem) share one skeleton step over all their rows,
alpha, epsilon, the bias correction and sqrt_decay become columns where
the groups differ, the betas and the first-moment gain become columns
filled once, and each group runs on its own rows only the hooks its kind
overrides.
"""

from __future__ import annotations

import copy
import math
import types
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, StateError
from .numkit import clamp, holds
from .schedule import BoundFunctionSpec, TransitionSchedule, eval_bounds


def column(values: Sequence):
    """One field across R replicas: the value itself when every replica
    has it, else an (R, 1) column that broadcasts against (R, d) rows."""
    first = values[0]
    if all(v == first for v in values):
        return first
    return np.array(values)[:, None]


def stack_like(objs: Sequence):
    """One object standing for R objects built alike, field by field.

    Arrays stack along a new leading axis, numbers become a
    :func:`column`, and other objects (steppers and problems, and their
    configs, schedules and boxes) are copied with each field stacked in
    turn.  Anything else, such as a kind string or a callable, must be
    the same in every object.
    """
    first = objs[0]
    if isinstance(first, np.ndarray):
        return np.stack(objs)
    if isinstance(first, (int, float)):
        return column(objs)
    if hasattr(first, "__dict__") and not isinstance(
            first, (type, types.FunctionType, types.MethodType)):
        if any(type(o) is not type(first) for o in objs):
            raise DomainError(f"cannot batch a {type(first).__name__} "
                              "with objects of other types")
        out = copy.copy(first)
        for name, value in vars(first).items():
            object.__setattr__(out, name,
                               stack_like([vars(o)[name] for o in objs]))
        return out
    if any(o != first for o in objs):
        raise DomainError(f"cannot batch differing values {objs!r}")
    return first


def stack_kinds(groups: Sequence[Sequence["_AdaptiveStepper"]]
                ) -> "_AdaptiveStepper":
    """One stepper for the rows of several kind groups, group after group.

    Each group holds steppers of one kind built alike, merged by
    :func:`stack_like`, or a lone stepper, kept as it is; so a single
    group steps exactly as it would without this function.  Groups of
    different kinds become one :class:`_KindBatch`.  The steppers must
    not have stepped yet.
    """
    parts = [g[0] if len(g) == 1 else stack_like(g) for g in groups]
    if len(parts) == 1:
        return parts[0]
    return _KindBatch(parts, [o for g in groups for o in g])


def _divide_where(x: np.ndarray, flag, divisor):
    """x / divisor where flag holds, else x.

    ``flag`` is a bool, or an (R, 1) bool column in a batch whose rows
    differ in it; the other rows are divided by 1.0, which leaves their
    bits as they are.
    """
    if isinstance(flag, np.ndarray):
        return x / np.where(flag, divisor, 1.0)
    return x / divisor if flag else x


def _raise_first(bad: np.ndarray, message: str) -> None:
    """Raise DomainError(message) at the first True entry of bad.

    ``message`` is formatted with the entry's coordinate ``i``; in an
    (R, d) batch the error also carries the entry's replica.
    """
    r, i = divmod(int(np.flatnonzero(bad)[0]), bad.shape[-1])
    raise DomainError(message.format(i=i),
                      replica=r if bad.ndim > 1 else None)


@dataclass
class StepConfig:
    """Scalar knobs common to the adaptive steppers.

    ``epsilon`` guards the 1/sqrt(v) denominator and may be set to 0 for
    theory-exact runs (then a zero second moment raises).  ``sqrt_decay``
    divides the rate by sqrt(t) as the convergence analysis assumes; off
    by default because the plain rate works better in practice.
    ``bias_correction`` de-biases the moment averages; the transition
    steppers leave it off by default.
    """

    alpha: float = 0.001
    epsilon: float = 1e-8
    bias_correction: bool = False
    sqrt_decay: bool = False

    def __post_init__(self):
        # written so that NaN fails them too
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not self.epsilon >= 0.0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")


class FeasibleBox:
    """Axis-aligned feasible set; either side may be unbounded (None)."""

    def __init__(self, lo=None, hi=None):
        self.lo = None if lo is None else np.asarray(lo, dtype=np.float64)
        self.hi = None if hi is None else np.asarray(hi, dtype=np.float64)
        if self.lo is not None and self.hi is not None:
            if np.any(self.lo > self.hi):
                raise DomainError("box has lo > hi in some coordinate")

    @classmethod
    def unbounded(cls) -> "FeasibleBox":
        return cls(None, None)

    @classmethod
    def cube(cls, halfwidth: float, dim: int) -> "FeasibleBox":
        if halfwidth <= 0.0:
            raise DomainError(f"halfwidth must be > 0, got {halfwidth}")
        return cls(np.full(dim, -halfwidth), np.full(dim, halfwidth))

    @property
    def is_bounded(self) -> bool:
        return (
            self.lo is not None
            and self.hi is not None
            and bool(np.all(np.isfinite(self.lo)))
            and bool(np.all(np.isfinite(self.hi)))
        )

    def contains(self, theta: np.ndarray, tol: float = 0.0) -> bool:
        """Whether theta lies in the box grown by tol; False on NaN."""
        if tol:
            return self.widened(tol).contains(theta)
        if self.lo is not None and not (theta >= self.lo).all():
            return False
        return self.hi is None or bool((theta <= self.hi).all())

    def widened(self, tol: float) -> "FeasibleBox":
        """The box grown by tol >= 0 on every bounded side."""
        return FeasibleBox(None if self.lo is None else self.lo - tol,
                           None if self.hi is None else self.hi + tol)

    def project(self, y: np.ndarray, metric=None) -> np.ndarray:
        return project_box(y, self, metric)

    def clamp_into(self, y: np.ndarray) -> np.ndarray:
        """Clamp the float64 array y into the box in place; returns y."""
        if self.lo is not None:
            np.maximum(y, self.lo, out=y)
        if self.hi is not None:
            np.minimum(y, self.hi, out=y)
        return y


def project_box(y: np.ndarray, box: FeasibleBox, metric=None) -> np.ndarray:
    """Metric-weighted projection of y onto the box.

    For a diagonal metric the weighted nearest point in a box is the
    coordinatewise clamp, whatever the (positive) weights are; the metric
    argument is still validated because a nonpositive weight would make
    the projection ill-defined.
    """
    if metric is not None:
        metric = np.asarray(metric, dtype=np.float64)
        if metric.shape not in ((), np.shape(y)):
            raise DimensionError(
                f"metric shape {metric.shape} does not match {np.shape(y)}"
            )
        if np.any(metric <= 0.0):
            raise DomainError("projection metric must be positive")
    return box.clamp_into(np.array(y, dtype=np.float64))


class OptimizerState:
    """Mutable per-run state: moments, step counter, last applied rates."""

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        # (d,), or (R, d) once stacked with its replicas' states
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.v_max: Optional[np.ndarray] = None
        self.t = 0
        self.last_effective_lr: Optional[np.ndarray] = None
        self.last_rate_raw: Optional[np.ndarray] = None
        # Running products of the beta schedules, for bias correction
        # with time-varying decay (reduce to 1 - beta**t when constant).
        self.beta1_prod = 1.0
        self.beta2_prod = 1.0


class _AdaptiveStepper:
    """The step shared by every stepper.

    ``beta1`` and ``beta2`` are the constant moment decays, which the
    default ``_betas(t)`` returns; only a schedule (:class:`DstAdam`)
    overrides it with time-varying betas, and then also refreshes
    ``gain1``, the first moment's gain on the gradient, which is
    1 - beta1 for every kind but heavy ball's 1.0.  A subclass may
    override the rate rule ``_rate(t, rate)``, which may rewrite the
    fresh array ``rate`` in place, and ``_second_moment(v)``, the second
    moment the rate is built from.  A kind whose rate rule never reads
    the adaptive rate (heavy ball) sets ``reads_v`` false: then v, its
    square root and the divide are skipped and the rule fills an
    uninitialised array.
    """

    reads_v = True

    def __init__(self, dim: int, cfg: Optional[StepConfig],
                 box: Optional[FeasibleBox], beta1: float = 0.9,
                 beta2: float = 0.999):
        self.state = OptimizerState(dim)
        self.box = box if box is not None else FeasibleBox.unbounded()
        self.cfg = cfg if cfg is not None else StepConfig()
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= value < 1.0:
                raise DomainError(f"{name} must lie in [0, 1), got {value}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.gain1 = 1.0 - beta1

    def _check_inputs(self, theta: np.ndarray, grad: np.ndarray):
        """Reject a bad step before any state changes.

        A non-finite gradient would otherwise pass into m, v and theta
        (``np.maximum`` and the rate blend propagate NaN), so it raises
        naming the step and the first bad coordinate.  The sum screens
        it in one reduction; the exact test runs only when the sum is
        not finite, which a finite gradient can reach by overflow.
        """
        shape = self.state.m.shape
        # np.shape, which costs more than the attribute, only for inputs
        # without a matching shape attribute
        if getattr(theta, "shape", None) != shape \
                and np.shape(theta) != shape:
            raise DimensionError(
                f"theta has shape {np.shape(theta)}, expected {shape}")
        if getattr(grad, "shape", None) != shape and np.shape(grad) != shape:
            raise DimensionError(
                f"grad has shape {np.shape(grad)}, expected {shape}")
        if not math.isfinite(np.add.reduce(grad, None)):
            bad = ~np.isfinite(grad)
            if bad.any():
                _raise_first(bad, f"non-finite gradient at step "
                                  f"{self.state.t + 1}, coordinate {{i}}")

    def _project(self, y: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Project y onto the box in place under the metric 1/eta.

        The clamp is the projection for any positive diagonal metric.
        Every rule gives eta >= 0 or NaN, so the metric is positive
        unless some eta is +inf (``fmax`` skips NaN).
        """
        if np.fmax.reduce(eta, None) == math.inf:
            raise DomainError("projection metric must be positive")
        return self.box.clamp_into(y)

    def effective_lr(self) -> np.ndarray:
        """Per-coordinate rate applied at the most recent step."""
        if self.state.last_effective_lr is None:
            raise StateError("no step has been taken yet")
        return self.state.last_effective_lr.copy()

    def rate_raw(self) -> np.ndarray:
        """The pre-sqrt-decay rate of the most recent step (eta-hat)."""
        if self.state.last_rate_raw is None:
            raise StateError("no step has been taken yet")
        return self.state.last_rate_raw.copy()

    def _betas(self, t: int) -> Tuple[float, float]:
        return self.beta1, self.beta2

    def _second_moment(self, v: np.ndarray) -> np.ndarray:
        return v

    def _rate(self, t: int, rate: np.ndarray) -> np.ndarray:
        return rate

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._check_inputs(theta, grad)
        s, cfg = self.state, self.cfg
        t = s.t + 1
        b1, b2 = self._betas(t)
        beta1_prod = s.beta1_prod * b1
        beta2_prod = s.beta2_prod * b2
        bias_correction = cfg.bias_correction
        debias = isinstance(bias_correction, np.ndarray) or bias_correction
        # in place, in the operation order of b1 * m + gain1 * g
        m = s.m
        m *= b1
        m += self.gain1 * grad
        if self.reads_v:
            # b2 * v + (1 - b2) * g * g, in place
            v = s.v
            v *= b2
            v += (1.0 - b2) * grad * grad
            # A finite gradient can overflow v to inf, which only zeroes
            # that coordinate's rate while b2 > 0 (the run monitors reject
            # that rate); b2 = 0 turns it into NaN at the next step, and
            # NaN would reach theta.  Screened as in _check_inputs.
            if not math.isfinite(np.add.reduce(v, None)):
                bad = np.isnan(v)
                if bad.any():
                    _raise_first(bad, f"non-finite second moment at step "
                                      f"{t}, coordinate {{i}}")
            v = self._second_moment(v)
            if debias:
                v = _divide_where(v, bias_correction, 1.0 - beta2_prod)
            rate = np.sqrt(v)
            rate += cfg.epsilon
            # sqrt(v) >= 0, so only epsilon == 0 can leave a zero
            # denominator
            if holds(cfg.epsilon == 0.0) and (rate == 0.0).any():
                _raise_first(rate == 0.0, "zero second moment with "
                                          "epsilon=0; supply a positive "
                                          "epsilon")
            rate = np.divide(cfg.alpha, rate, out=rate)
        else:
            rate = np.empty_like(m)
        if debias:
            m = _divide_where(m, bias_correction, 1.0 - beta1_prod)
        rate = self._rate(t, rate)
        eta = _divide_where(rate, cfg.sqrt_decay, math.sqrt(t))
        theta = self._project(theta - eta * m, eta)
        s.t, s.beta1_prod, s.beta2_prod = t, beta1_prod, beta2_prod
        s.last_rate_raw, s.last_effective_lr = rate, eta
        return theta


class MomentumSgd(_AdaptiveStepper):
    """Heavy-ball SGD: m <- momentum * m + g; theta <- theta - lr * m.

    The skeleton with an undamped first moment (gain 1.0, and 1.0 * g is
    g exactly) and the rate rule eta = lr.  Its rate never reads the
    second moment, which a lone stepper therefore skips; in a kind batch
    with adaptive rows its rows' v is updated but unread, and a beta2 in
    (0, 1) keeps an overflowed one inf, never NaN.
    """

    reads_v = False

    def __init__(self, dim: int, lr: float = 0.1, momentum: float = 0.9,
                 box: Optional[FeasibleBox] = None):
        if not lr > 0.0:
            raise DomainError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise DomainError(f"momentum must lie in [0, 1), got {momentum}")
        super().__init__(dim, None, box, beta1=momentum, beta2=0.5)
        self.gain1 = 1.0
        self.lr = lr

    def _rate(self, t: int, rate: np.ndarray) -> np.ndarray:
        rate[...] = self.lr
        return rate


class Adam(_AdaptiveStepper):
    """Adam baseline; bias correction is on by default for this one."""

    def __init__(self, dim: int, cfg: Optional[StepConfig] = None,
                 beta1: float = 0.9, beta2: float = 0.999,
                 box: Optional[FeasibleBox] = None):
        if cfg is None:
            cfg = StepConfig(bias_correction=True)
        super().__init__(dim, cfg, box, beta1, beta2)


class Amsgrad(Adam):
    """Adam with a coordinatewise running max of the second moment."""

    def __init__(self, dim: int, cfg: Optional[StepConfig] = None,
                 beta1: float = 0.9, beta2: float = 0.999,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, cfg, beta1, beta2, box)
        self.state.v_max = np.zeros(dim)

    def _second_moment(self, v: np.ndarray) -> np.ndarray:
        return np.maximum(self.state.v_max, v, out=self.state.v_max)


class ClippedTransition(_AdaptiveStepper):
    """Generic transition stepper: clamp the adaptive rate into bounds.

    With the constant (swats) bounds the rate collapses to a single SGD
    rate; with widening/narrowing bounds it interpolates between Adam
    and SGD behaviour.  Bounds may be scalar or per-coordinate (adadb)
    and scalars broadcast over coordinates.
    """

    def __init__(self, dim: int, bounds: BoundFunctionSpec,
                 cfg: Optional[StepConfig] = None,
                 beta1: float = 0.9, beta2: float = 0.999,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, cfg, box, beta1, beta2)
        self.bounds = bounds
        # running max of ||m||_inf, for the adadb bounds: one per replica
        self._m_abs_peak = 0.0

    def _rate(self, t: int, rate: np.ndarray) -> np.ndarray:
        m_abs = None
        if self.bounds.kind == "adadb":
            m_abs = np.abs(self.state.m)
            self._m_abs_peak = np.maximum(
                self._m_abs_peak, m_abs.max(axis=-1, keepdims=True))
        lower, upper = eval_bounds(self.bounds, t, momentum_abs=m_abs,
                                   momentum_abs_peak=self._m_abs_peak)
        return clamp(rate, lower, upper)


class DstAdam(_AdaptiveStepper):
    """Decreasing-scaling transition from Adam to SGD.

    Per coordinate the raw rate is the rho_t-weighted blend

        eta_hat = rho_t * alpha / sqrt(v_t)  +  (1 - rho_t) * r_t

    so the run starts Adam-like and ends at the decreasing SGD rate r_t.
    The blend keeps every rate above (1 - rho_t) * r_t, which is what
    bounds 1/eta_hat by 1/(r_l (1 - rho)) for the whole run.  The betas
    of step t come from the schedule, like rho_t and r_t.
    """

    def __init__(self, dim: int, schedule: TransitionSchedule,
                 cfg: Optional[StepConfig] = None,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, cfg, box, schedule.beta1, schedule.beta2)
        self.schedule = schedule
        self._blend = None  # (rho_t, r_t) of the step in progress

    def _betas(self, t: int) -> Tuple[float, float]:
        b1, b2, rho_t, r_t = self.schedule.step_values(t)
        self._blend = (rho_t, r_t)
        self.gain1 = 1.0 - b1
        return b1, b2

    def _rate(self, t: int, rate: np.ndarray) -> np.ndarray:
        rho_t, r_t = self._blend
        rate *= rho_t
        rate += (1.0 - rho_t) * r_t
        # Only rho_t = 1 with an adaptive rate of 0 (an overflowed second
        # moment) reaches 0; fmin skips NaN, as the elementwise test did
        if np.fmin.reduce(rate, None) <= 0.0:
            _raise_first(rate <= 0.0, f"eta_hat not positive at step {t}, "
                                      "coordinate {i}")
        return rate


class _KindBatch(_AdaptiveStepper):
    """Steppers of several kinds stepping one (R, d) batch.

    ``parts`` are the kind groups' steppers (see :func:`stack_kinds`) and
    ``steppers`` the R lone steppers they were built from, in row order.
    The skeleton step runs once over all rows with the rows' alpha,
    epsilon, bias correction and sqrt_decay as columns where they
    differ.  The betas and the first-moment gain are (R, 1) columns
    filled once from the lone steppers; each step, a part whose kind
    overrides a hook (a schedule's ``_betas``, which also refreshes its
    rows' gain, AMSGrad's ``_second_moment``, a rate rule such as heavy
    ball's eta = lr) runs it on its own rows, whose moments are views of
    the batch's.  Row r gets the bits its stepper would get alone.
    """

    def __init__(self, parts: Sequence[_AdaptiveStepper],
                 steppers: Sequence[_AdaptiveStepper]):
        dim = steppers[0].state.dim
        super().__init__(dim, stack_like([o.cfg for o in steppers]),
                         stack_like([o.box for o in steppers]))
        s = self.state
        s.m = np.zeros((len(steppers), dim))
        s.v = np.zeros((len(steppers), dim))
        self._v_hat = np.empty_like(s.v)
        self.beta1, self.beta2, self.gain1 = np.array(
            [[o.beta1 for o in steppers], [o.beta2 for o in steppers],
             [o.gain1 for o in steppers]])[..., None]
        rows = []
        lo = 0
        for part in parts:
            hi = lo + part.state.m.size // dim
            part.state.m, part.state.v = s.m[lo:hi], s.v[lo:hi]
            if part.state.v_max is not None:
                part.state.v_max = part.state.v_max.reshape(hi - lo, dim)
            rows.append((lo, hi, part))
            lo = hi

        def overriding(hook):
            default = getattr(_AdaptiveStepper, hook)
            return [(lo, hi, part) for lo, hi, part in rows
                    if getattr(type(part), hook) is not default]

        self.reads_v = any(part.reads_v for part in parts)
        self._schedules = overriding("_betas")
        self._moments = overriding("_second_moment")
        self._rules = overriding("_rate")

    def _betas(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        for lo, hi, part in self._schedules:
            self.beta1[lo:hi], self.beta2[lo:hi] = part._betas(t)
            self.gain1[lo:hi] = part.gain1
        return self.beta1, self.beta2

    def _second_moment(self, v: np.ndarray) -> np.ndarray:
        if not self._moments:
            return v
        v_hat = self._v_hat
        v_hat[...] = v
        for lo, hi, part in self._moments:
            v_hat[lo:hi] = part._second_moment(v[lo:hi])
        return v_hat

    def _rate(self, t: int, rate: np.ndarray) -> np.ndarray:
        for lo, hi, part in self._rules:
            rows = rate[lo:hi]
            try:
                out = part._rate(t, rows)
            except DomainError as exc:
                if exc.replica is not None:
                    exc.replica += lo
                raise
            if out is not rows:
                rows[...] = out
        return rate
