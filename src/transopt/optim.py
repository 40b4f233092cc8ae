"""Optimizer steppers.

Each stepper owns an :class:`OptimizerState` and advances it with
``step(theta, grad) -> theta_next``.  A single state must not be shared
between concurrent runs; distinct stepper instances are independent.

The two transition steppers work on the same skeleton: keep exponential
moving averages m_t, v_t of the gradient and its square, derive a
per-coordinate rate from alpha/sqrt(v_t), then either clamp that rate
into time-varying bounds (:class:`ClippedTransition`) or pull it toward
the decreasing target r_t with the scaling factor rho_t
(:class:`DstAdam`).  The update itself is always a projected step
theta - eta_t * m_t with the diagonal metric 1/eta_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DimensionError, DomainError, HorizonError, StateError
from .numkit import clamp
from .schedule import BoundFunctionSpec, TransitionSchedule, eval_bounds


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
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if self.epsilon < 0.0:
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

    def diameter_linf(self) -> float:
        """Sup-norm diameter; inf when any side is unbounded."""
        if not self.is_bounded:
            return float("inf")
        return float(np.max(self.hi - self.lo))

    def contains(self, theta: np.ndarray, tol: float = 0.0) -> bool:
        if self.lo is not None and not (theta >= self.lo - tol).all():
            return False
        return self.hi is None or bool((theta <= self.hi + tol).all())

    def project(self, y: np.ndarray, metric=None) -> np.ndarray:
        return project_box(y, self, metric)


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
    out = y
    if box.lo is not None:
        out = np.maximum(out, box.lo)
    if box.hi is not None:
        out = np.minimum(out, box.hi)
    return np.array(out, dtype=np.float64)


class OptimizerState:
    """Mutable per-run state: moments, step counter, last applied rates."""

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError(f"dim must be >= 1, got {dim}")
        self.dim = dim
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


ScheduleFn = Union[float, Callable[[int], float]]


def _schedule_fn(value: ScheduleFn, name: str) -> Callable[[int], float]:
    if callable(value):
        return value
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise DomainError(f"{name} must lie in [0, 1), got {value}")
    return lambda t: value


class _Stepper:
    """Shared plumbing: input checks, projection, effective-lr access."""

    def __init__(self, dim: int, box: Optional[FeasibleBox]):
        self.state = OptimizerState(dim)
        self.box = box if box is not None else FeasibleBox.unbounded()

    def _check_inputs(self, theta: np.ndarray, grad: np.ndarray):
        """Reject a bad step before any state changes.

        A non-finite gradient would otherwise pass into m, v and theta
        (``np.maximum`` and the rate blend propagate NaN), so it raises
        naming the step and the first bad coordinate.
        """
        if np.shape(theta) != (self.state.dim,):
            raise DimensionError(
                f"theta has shape {np.shape(theta)}, expected ({self.state.dim},)"
            )
        if np.shape(grad) != (self.state.dim,):
            raise DimensionError(
                f"grad has shape {np.shape(grad)}, expected ({self.state.dim},)"
            )
        finite = np.isfinite(grad)
        if not finite.all():
            i = int(np.flatnonzero(~finite)[0])
            raise DomainError(f"non-finite gradient at step "
                              f"{self.state.t + 1}, coordinate {i}")

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


class MomentumSgd(_Stepper):
    """Heavy-ball SGD: m <- momentum * m + g; theta <- theta - lr * m."""

    def __init__(self, dim: int, lr: float = 0.1, momentum: float = 0.9,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, box)
        if lr <= 0.0:
            raise DomainError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise DomainError(f"momentum must lie in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._check_inputs(theta, grad)
        s = self.state
        s.t += 1
        s.m = self.momentum * s.m + grad
        eta = np.full(s.dim, self.lr)
        s.last_effective_lr = eta
        s.last_rate_raw = eta
        return self.box.project(theta - self.lr * s.m, metric=1.0 / eta)


class Adam(_Stepper):
    """Adam baseline; bias correction is on by default for this one."""

    def __init__(self, dim: int, cfg: Optional[StepConfig] = None,
                 beta1: float = 0.9, beta2: float = 0.999,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, box)
        if cfg is None:
            cfg = StepConfig(bias_correction=True)
        self.cfg = cfg
        if not 0.0 <= beta1 < 1.0:
            raise DomainError(f"beta1 must lie in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise DomainError(f"beta2 must lie in [0, 1), got {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2

    def _update_moments(self, grad: np.ndarray):
        s = self.state
        s.m = self.beta1 * s.m + (1.0 - self.beta1) * grad
        s.v = self.beta2 * s.v + (1.0 - self.beta2) * grad * grad
        s.beta1_prod *= self.beta1
        s.beta2_prod *= self.beta2

    def _corrected(self):
        s = self.state
        if not self.cfg.bias_correction:
            return s.m, s.v
        return s.m / (1.0 - s.beta1_prod), s.v / (1.0 - s.beta2_prod)

    def _denominator(self, v_hat: np.ndarray) -> np.ndarray:
        denom = np.sqrt(v_hat) + self.cfg.epsilon
        if np.any(denom == 0.0):
            raise DomainError(
                "zero second moment with epsilon=0; supply a positive epsilon"
            )
        return denom

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._check_inputs(theta, grad)
        s = self.state
        s.t += 1
        self._update_moments(grad)
        m_hat, v_hat = self._corrected()
        eta = self.cfg.alpha / self._denominator(v_hat)
        s.last_effective_lr = eta
        s.last_rate_raw = eta
        return self.box.project(theta - eta * m_hat, metric=1.0 / eta)


class Amsgrad(Adam):
    """Adam with a coordinatewise running max of the second moment."""

    def __init__(self, dim: int, cfg: Optional[StepConfig] = None,
                 beta1: float = 0.9, beta2: float = 0.999,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, cfg, beta1, beta2, box)
        self.state.v_max = np.zeros(dim)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._check_inputs(theta, grad)
        s = self.state
        s.t += 1
        self._update_moments(grad)
        s.v_max = np.maximum(s.v_max, s.v)
        if self.cfg.bias_correction:
            m_hat = s.m / (1.0 - s.beta1_prod)
            v_hat = s.v_max / (1.0 - s.beta2_prod)
        else:
            m_hat, v_hat = s.m, s.v_max
        eta = self.cfg.alpha / self._denominator(v_hat)
        s.last_effective_lr = eta
        s.last_rate_raw = eta
        return self.box.project(theta - eta * m_hat, metric=1.0 / eta)


class ClippedTransition(_Stepper):
    """Generic transition stepper: clamp the adaptive rate into bounds.

    With the constant (swats) bounds the rate collapses to a single SGD
    rate; with widening/narrowing bounds it interpolates between Adam
    and SGD behaviour.  Bounds may be scalar or per-coordinate (adadb)
    and scalars broadcast over coordinates.
    """

    def __init__(self, dim: int, bounds: BoundFunctionSpec,
                 cfg: Optional[StepConfig] = None,
                 beta1: ScheduleFn = 0.9, beta2: ScheduleFn = 0.999,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, box)
        self.bounds = bounds
        self.cfg = cfg if cfg is not None else StepConfig()
        self.beta1_at = _schedule_fn(beta1, "beta1")
        self.beta2_at = _schedule_fn(beta2, "beta2")
        self._m_abs_peak = 0.0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._check_inputs(theta, grad)
        s = self.state
        t = s.t + 1
        b1 = self.beta1_at(t)
        b2 = self.beta2_at(t)
        s.m = b1 * s.m + (1.0 - b1) * grad
        s.v = b2 * s.v + (1.0 - b2) * grad * grad
        s.beta1_prod *= b1
        s.beta2_prod *= b2
        s.t = t

        if self.cfg.bias_correction:
            m_used = s.m / (1.0 - s.beta1_prod)
            v_used = s.v / (1.0 - s.beta2_prod)
        else:
            m_used, v_used = s.m, s.v
        denom = np.sqrt(v_used) + self.cfg.epsilon
        if np.any(denom == 0.0):
            raise DomainError(
                "zero second moment with epsilon=0; supply a positive epsilon"
            )
        self._m_abs_peak = max(self._m_abs_peak, float(np.max(np.abs(s.m))))
        lower, upper = eval_bounds(
            self.bounds, t,
            momentum_abs=np.abs(s.m),
            momentum_abs_peak=self._m_abs_peak,
        )
        rate = clamp(self.cfg.alpha / denom, lower, upper)
        s.last_rate_raw = np.array(rate)
        eta = rate / np.sqrt(t) if self.cfg.sqrt_decay else rate
        s.last_effective_lr = np.array(eta)
        return self.box.project(theta - eta * m_used, metric=1.0 / eta)


class DstAdam(_Stepper):
    """Decreasing-scaling transition from Adam to SGD.

    Per coordinate the raw rate is the rho_t-weighted blend

        eta_hat = rho_t * alpha / sqrt(v_t)  +  (1 - rho_t) * r_t

    so the run starts Adam-like and ends at the decreasing SGD rate r_t.
    The blend keeps every rate above (1 - rho_t) * r_t, which is what
    bounds 1/eta_hat by 1/(r_l (1 - rho)) for the whole run.
    """

    def __init__(self, dim: int, schedule: TransitionSchedule,
                 cfg: Optional[StepConfig] = None,
                 box: Optional[FeasibleBox] = None):
        super().__init__(dim, box)
        self.schedule = schedule
        self.cfg = cfg if cfg is not None else StepConfig()

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._check_inputs(theta, grad)
        s = self.state
        t = s.t + 1
        if t > self.schedule.horizon:
            raise HorizonError(
                f"step {t} exceeds schedule horizon {self.schedule.horizon}"
            )
        sched = self.schedule
        b1 = sched.beta1_at(t)
        b2 = sched.beta2_at(t)
        s.m = b1 * s.m + (1.0 - b1) * grad
        s.v = b2 * s.v + (1.0 - b2) * grad * grad
        s.beta1_prod *= b1
        s.beta2_prod *= b2
        s.t = t

        if self.cfg.bias_correction:
            m_used = s.m / (1.0 - s.beta1_prod)
            v_used = s.v / (1.0 - s.beta2_prod)
        else:
            m_used, v_used = s.m, s.v
        denom = np.sqrt(v_used) + self.cfg.epsilon
        if np.any(denom == 0.0):
            raise DomainError(
                "zero second moment with epsilon=0; supply a positive epsilon"
            )
        rho_t = sched.rho_at(t)
        r_t = sched.r_at(t)
        eta_hat = rho_t * (self.cfg.alpha / denom) + (1.0 - rho_t) * r_t
        if np.any(eta_hat <= 0.0):
            raise AssertionError(
                "eta_hat must stay positive under a valid schedule"
            )
        s.last_rate_raw = eta_hat
        eta = eta_hat / np.sqrt(t) if self.cfg.sqrt_decay else eta_hat
        s.last_effective_lr = np.array(eta)
        return self.box.project(theta - eta * m_used, metric=1.0 / eta)
