"""Checked vector helpers: clamp, norms and dot products.

Parameter vectors, gradients, and moment estimates are plain 1-D float64
numpy arrays.  All functions here are pure: inputs are never modified,
and lengths are checked before any arithmetic.
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


def _broadcast(a: np.ndarray, b) -> np.ndarray:
    """Validate that ``b`` is a scalar or a vector of the same length as ``a``."""
    if np.ndim(b) == 0:
        return np.float64(b)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != a.shape:
        raise DimensionError(
            f"length mismatch: {a.shape[0]} vs {b.shape[0]}"
        )
    return b


def clamp(a: np.ndarray, lo, hi) -> np.ndarray:
    """Coordinatewise clip of ``a`` into [lo, hi]; lo/hi scalar or vector."""
    lo = _broadcast(a, lo)
    hi = _broadcast(a, hi)
    if np.any(lo > hi):
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


def dot(a: np.ndarray, b: np.ndarray) -> float:
    b = np.asarray(b, dtype=np.float64)
    if np.ndim(b) != 1 or b.shape != np.shape(a):
        raise DimensionError(
            f"length mismatch: {np.shape(a)} vs {b.shape}"
        )
    return float(np.dot(a, b))
