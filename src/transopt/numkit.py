"""Checked vector helpers: clamp, norms and a bool-or-array test.

Parameter vectors, gradients, and moment estimates are float64 numpy
arrays: 1-D, or (R, d) for a batch of R runs.  All functions here are
pure: inputs are never modified, and lengths are checked before any
arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError


class VectorNorms(NamedTuple):
    l2: float
    linf: float


def _check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def holds(flag) -> bool:
    """A bool, or whether any entry of a bool array holds.  Cheaper than
    ``np.any`` when ``flag`` comes from comparing scalars."""
    return flag.any() if isinstance(flag, np.ndarray) else flag


def _broadcast(a: np.ndarray, b) -> np.ndarray:
    """Validate that ``b`` is a scalar, an array shaped like ``a``, or a
    column of one value per row of ``a``.  A float passes as it is:
    ``np.asarray`` costs more than the clip itself."""
    if isinstance(b, float):
        return b
    b = np.asarray(b, dtype=np.float64)
    if b.ndim and b.shape != a.shape and (
            a.ndim < 2 or b.shape != a.shape[:-1] + (1,)):
        raise DimensionError(
            f"length mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    return b


def clamp(a: np.ndarray, lo, hi) -> np.ndarray:
    """Coordinatewise clip of ``a`` into [lo, hi]; lo/hi scalar, vector
    or (R, 1) column."""
    lo = _broadcast(a, lo)
    hi = _broadcast(a, hi)
    if holds(lo > hi):
        raise DomainError("clamp bounds inverted (lo > hi)")
    return np.clip(a, lo, hi)


def norms(a: np.ndarray) -> VectorNorms:
    a = _check_finite(np.asarray(a, dtype=np.float64), "norms input")
    linf = float(np.max(np.abs(a)))
    if linf == 0.0:
        return VectorNorms(l2=0.0, linf=0.0)
    # scale by the max entry so squaring cannot underflow or overflow
    scaled = a / linf
    return VectorNorms(l2=linf * float(np.sqrt(np.sum(scaled * scaled))),
                       linf=linf)
