"""Checked vector helpers: norms and a bool-or-array test.

Parameter vectors, gradients, and moment estimates are float64 numpy
arrays: 1-D, or (R, d) for a batch of R runs.  All functions here are
pure: inputs are never modified.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError


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


def norms(a: np.ndarray) -> VectorNorms:
    a = _check_finite(np.asarray(a, dtype=np.float64), "norms input")
    linf = float(np.max(np.abs(a)))
    if linf == 0.0:
        return VectorNorms(l2=0.0, linf=0.0)
    # scale by the max entry so squaring cannot underflow or overflow
    scaled = a / linf
    return VectorNorms(l2=linf * float(np.sqrt(np.sum(scaled * scaled))),
                       linf=linf)
