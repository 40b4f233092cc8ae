"""Time-varying quantities for the transition steppers.

Everything here is a pure function of the step index t (1-based): the
scaling factor rho_t, the linearly decreasing SGD target rate r_t, the
first/second-moment decay schedules, and the lower/upper bound functions
used by the clipped-transition stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DomainError, HorizonError

RHO_KINDS = ("exponential", "constant", "custom")
BETA1_KINDS = ("constant", "geometric", "harmonic")
BOUND_KINDS = ("swats", "adabound", "adadb", "lu")

#: Default target for the end-of-run scaling factor, rho**T.
DEFAULT_RHO_TARGET = 1e-8


def rho_from_horizon(horizon: int, target: float = DEFAULT_RHO_TARGET) -> float:
    """Solve rho**horizon == target for rho in (0, 1).

    This is the recommended way to pick the transition factor: decide how
    many iterations the run has and how small the adaptive contribution
    should be at the end.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < target < 1.0:
        raise DomainError(f"target must lie in (0, 1), got {target}")
    return target ** (1.0 / horizon)


def _powers(base: float, exponents: range) -> np.ndarray:
    """base ** e for each e in exponents, taken on Python floats:
    ``np.power`` rounds differently from ``float.__pow__`` in many last
    bits, and a block must give the bits of the scalar at each step."""
    return np.array([base ** e for e in exponents])


def _check_t(t: int) -> int:
    if t < 1:
        raise HorizonError(f"step index starts at 1, got {t}")
    return int(t)


@dataclass(frozen=True)
class TransitionSchedule:
    """Inputs of the decreasing-scaling stepper that vary with t.

    ``rho_kind`` selects how the scaling factor decays: ``exponential``
    gives rho**t, ``constant`` gives rho, and ``custom`` reads from
    ``rho_sequence`` (useful for probing degenerate limits such as an
    all-zeros or all-ones sequence).  When ``rho`` is omitted for the
    exponential/constant kinds it is filled from ``rho_from_horizon`` so
    that rho**horizon equals ``DEFAULT_RHO_TARGET``.
    """

    horizon: int
    r_l: float = 0.005
    r_u: float = 5.0
    rho_kind: str = "exponential"
    rho: Optional[float] = None
    rho_sequence: Optional[Tuple[float, ...]] = None
    beta1_kind: str = "constant"
    beta1: float = 0.9
    beta1_decay: Optional[float] = None
    beta2: float = 0.999

    def __post_init__(self):
        if self.horizon < 1:
            raise DomainError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 < self.r_l <= self.r_u < np.inf:
            raise DomainError(f"need 0 < r_l <= r_u < inf, got "
                              f"r_l={self.r_l}, r_u={self.r_u}")
        if self.rho_kind not in RHO_KINDS:
            raise DomainError(f"unknown rho_kind {self.rho_kind!r}")
        if self.rho_kind == "custom":
            if self.rho_sequence is None:
                raise DomainError("custom rho_kind requires rho_sequence")
            seq = tuple(float(x) for x in self.rho_sequence)
            if any(not 0.0 <= x <= 1.0 for x in seq):
                raise DomainError("custom rho entries must lie in [0, 1]")
            if len(seq) < self.horizon:
                raise DomainError(
                    f"custom rho sequence has {len(seq)} entries but the "
                    f"horizon is {self.horizon}"
                )
            object.__setattr__(self, "rho_sequence", seq)
        else:
            rho = self.rho
            if rho is None:
                rho = rho_from_horizon(self.horizon)
                object.__setattr__(self, "rho", rho)
            if not 0.0 < rho < 1.0:
                raise DomainError(f"rho must lie in (0, 1), got {rho}")
        if self.beta1_kind not in BETA1_KINDS:
            raise DomainError(f"unknown beta1_kind {self.beta1_kind!r}")
        if not 0.0 <= self.beta1 < 1.0:
            raise DomainError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if self.beta1_kind == "geometric":
            if self.beta1_decay is None or not 0.0 < self.beta1_decay < 1.0:
                raise DomainError(
                    "geometric beta1 requires beta1_decay in (0, 1), "
                    f"got {self.beta1_decay}"
                )
        if not 0.0 <= self.beta2 < 1.0:
            raise DomainError(f"beta2 must lie in [0, 1), got {self.beta2}")

    def rho_at(self, t: int) -> float:
        """Scaling factor at step t."""
        t = _check_t(t)
        if self.rho_kind == "custom" and t > len(self.rho_sequence):
            raise HorizonError(
                f"custom rho sequence has {len(self.rho_sequence)} entries, "
                f"step {t} requested"
            )
        if self.rho_kind == "exponential":
            return self.rho ** t
        if self.rho_kind == "constant":
            return self.rho
        return self.rho_sequence[t - 1]

    def rho_sup(self) -> float:
        """Smallest rho with rho_t <= rho for all t (the theorem's rho)."""
        if self.rho_kind == "custom":
            return max(self.rho_sequence)
        return self.rho

    def r_at(self, t: int) -> float:
        """Linearly decreasing SGD target rate: from near r_u down to r_l."""
        t = _check_t(t)
        if t > self.horizon:
            raise HorizonError(
                f"step {t} exceeds declared horizon {self.horizon}"
            )
        return (self.r_u - self.r_l) * (1.0 - t / self.horizon) + self.r_l

    def beta1_at(self, t: int) -> float:
        t = _check_t(t)
        if self.beta1_kind == "constant":
            return self.beta1
        if self.beta1_kind == "geometric":
            return self.beta1 * self.beta1_decay ** (t - 1)
        return self.beta1 / t

    def beta2_at(self, t: int) -> float:
        _check_t(t)
        return self.beta2

    def block_values(self, t: int, n: int
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
        """(beta1_t, beta2_t, rho_t, r_t) of the steps t .. t + n - 1 that
        lie within the horizon, as arrays along a leading step axis.

        Entry k equals ``beta1_at(t + k)``, ``beta2_at(t + k)``,
        ``rho_at(t + k)`` and ``r_at(t + k)`` bit for bit: powers are
        taken on Python floats (:func:`_powers`) and the rest is
        elementwise arithmetic, which rounds as the scalar does.  A
        custom rho sequence covers the horizon by construction.
        """
        if t > self.horizon:
            raise HorizonError(
                f"step {t} exceeds schedule horizon {self.horizon}"
            )
        t = _check_t(t)
        stop = min(t + n, self.horizon + 1)
        ts = np.arange(t, stop, dtype=np.float64)
        r = (self.r_u - self.r_l) * (1.0 - ts / self.horizon) + self.r_l
        if self.rho_kind == "exponential":
            rho = _powers(self.rho, range(t, stop))
        elif self.rho_kind == "constant":
            rho = self.rho
        else:
            rho = np.array(self.rho_sequence[t - 1:stop - 1])
        if self.beta1_kind == "constant":
            beta1 = self.beta1
        elif self.beta1_kind == "geometric":
            beta1 = self.beta1 * _powers(self.beta1_decay,
                                         range(t - 1, stop - 1))
        else:
            beta1 = self.beta1 / ts
        return np.broadcast_arrays(beta1, self.beta2, rho, r)


@dataclass(frozen=True)
class BoundFunctionSpec:
    """One row of the bound-function table for the clipped transition.

    kind        lower(t)                          upper(t)
    ----        --------                          --------
    swats       a*                                a*
    adabound    a*(1 - 1/((1-b2)t + 1))           a*(1 + 1/((1-b2)t))
    adadb       a*                                a* + |m_t|/(max|m|) / (gamma t)
    lu          a* t/T                            a* + 1/((1-b2)t) - 1/((1-b2)T)

    The adadb upper bound is the only per-coordinate one; it needs the
    current |m_t| vector and the running peak of ||m||_inf (see
    ``eval_bounds``).
    """

    kind: str
    alpha_star: float
    beta2: float = 0.999
    gamma: Optional[float] = None
    horizon: Optional[int] = None

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise DomainError(f"unknown bound kind {self.kind!r}")
        if not self.alpha_star > 0.0:
            raise DomainError(f"alpha_star must be > 0, got {self.alpha_star}")
        if self.kind in ("adabound", "lu") and not 0.0 < self.beta2 < 1.0:
            raise DomainError(f"beta2 must lie in (0, 1), got {self.beta2}")
        if self.kind == "adadb":
            if self.gamma is None or not self.gamma > 0.0:
                raise DomainError(
                    f"adadb requires gamma > 0, got {self.gamma}"
                )
        if self.kind == "lu":
            if self.horizon is None or self.horizon < 1:
                raise DomainError(
                    f"lu requires horizon >= 1, got {self.horizon}"
                )


BoundValue = Union[float, np.ndarray]


def eval_bounds(
    spec: BoundFunctionSpec,
    t: int,
    momentum_abs: Optional[np.ndarray] = None,
    momentum_abs_peak: Optional[float] = None,
) -> Tuple[BoundValue, BoundValue]:
    """Evaluate (lower, upper) at step t.

    ``momentum_abs`` is |m_t| and ``momentum_abs_peak`` the running max of
    ||m_s||_inf over s <= t; both are required only by the adadb kind.
    When the peak is exactly zero (no gradient seen yet) the data-driven
    term is defined as 0 and the upper bound falls back to alpha_star.
    This evaluates one run's bounds; the steppers evaluate adadb's over
    all rows of a batch at once (``transopt.optim``), with these bits.
    """
    t = _check_t(t)
    a = spec.alpha_star
    if spec.kind == "swats":
        return a, a
    if spec.kind == "adabound":
        one_minus = 1.0 - spec.beta2
        lower = a * (1.0 - 1.0 / (one_minus * t + 1.0))
        upper = a * (1.0 + 1.0 / (one_minus * t))
        return lower, upper
    if spec.kind == "lu":
        # factor the scale out so upper is exactly alpha_star at t == T;
        # lower is set to it there, as a * T / T can round one ulp above
        scale = 1.0 / (1.0 - spec.beta2)
        lower = a if t == spec.horizon else a * t / spec.horizon
        upper = a + scale * (1.0 / t - 1.0 / spec.horizon)
        return lower, upper
    # adadb
    if momentum_abs is None or momentum_abs_peak is None:
        raise DomainError("adadb bounds need momentum statistics")
    if np.any(momentum_abs_peak < 0.0):
        raise DomainError("momentum peak must be >= 0")
    if np.all(momentum_abs_peak == 0.0):
        return a, a
    upper = a + np.abs(momentum_abs) / (momentum_abs_peak * (spec.gamma * t))
    return a, upper


def bound_values(spec: BoundFunctionSpec, t: int, n: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) of the steps t .. t + n - 1 along a leading step
    axis, for every kind but adadb, whose upper bound reads the momentum.

    Entry k equals ``eval_bounds(spec, t + k)`` bit for bit: each bound is
    elementwise arithmetic, which rounds as the scalar does.  The lu
    bounds cross past their horizon, so an lu block ends there, and a
    block that would start past it raises a HorizonError.
    """
    t = _check_t(t)
    if spec.kind == "adadb":
        raise DomainError("adadb bounds need momentum statistics")
    stop = t + n
    if spec.kind == "lu":
        if t > spec.horizon:
            raise HorizonError(
                f"step {t} exceeds lu bound horizon {spec.horizon}")
        stop = min(stop, spec.horizon + 1)
    a = spec.alpha_star
    ts = np.arange(t, stop, dtype=np.float64)
    if spec.kind == "swats":
        lower = upper = a
    elif spec.kind == "adabound":
        one_minus = 1.0 - spec.beta2
        lower = a * (1.0 - 1.0 / (one_minus * ts + 1.0))
        upper = a * (1.0 + 1.0 / (one_minus * ts))
    else:
        # as eval_bounds: lower is alpha_star itself at t == T
        scale = 1.0 / (1.0 - spec.beta2)
        lower = np.where(ts == spec.horizon, a, a * ts / spec.horizon)
        upper = a + scale * (1.0 / ts - 1.0 / spec.horizon)
    return np.broadcast_arrays(lower, upper, ts)[:2]
