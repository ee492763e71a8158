"""Unbiased Bernoulli coordinate dropping with variance-optimal probabilities.

Each coordinate ``alpha_i`` is kept independently with probability ``p_i`` and
rescaled to ``alpha_i / p_i``, so the sparsified vector is unbiased. For a
sparsity budget ``phi = sum(p_i)`` (the expected number of kept coordinates)
the second moment ``E||beta||^2 = sum(alpha_i^2 / p_i)`` is minimized by
``p_i = |alpha_i| * phi / ||alpha||_1``, provided
``phi <= ||alpha||_1 / ||alpha||_inf`` so that no probability exceeds one;
at that choice the second moment equals ``||alpha||_1^2 / phi``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparsePlan",
    "SparseRealVector",
    "budget_max",
    "optimal_plan",
    "sparsify",
]

logger = logging.getLogger(__name__)

# Tolerance for Sum(p) == budget and for p_i creeping above 1 by rounding.
_P_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SparsePlan:
    """Per-coordinate keep probabilities and their sum (the budget).

    ``probs[i] == 0`` is only valid for coordinates that are exactly zero in
    the vector being sparsified; such coordinates are never emitted.
    """

    probs: np.ndarray
    budget: float

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-d array")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(p.sum()) - self.budget) > 1e-9 * p.size:
            raise ValueError("sum of probabilities does not match the budget")

    @property
    def dim(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class SparseRealVector:
    """Sparse vector as (index, value) pairs with strictly increasing indices."""

    dim: int
    indices: np.ndarray  # int64
    values: np.ndarray  # float64, nonzero

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if idx.shape != vals.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError("indices out of range")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
            if np.any(vals == 0.0):
                raise ValueError("stored values must be nonzero")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def _as_alpha(alpha) -> np.ndarray:
    arr = np.asarray(alpha, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("alpha must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("alpha contains non-finite entries")
    return arr


def budget_max(alpha) -> float:
    """Largest budget for which the optimal plan is valid: ``||a||_1 / ||a||_inf``."""
    alpha = _as_alpha(alpha)
    inf = float(np.max(np.abs(alpha)))
    if inf == 0.0:
        raise ValueError("budget_max undefined for the zero vector")
    return float(np.sum(np.abs(alpha))) / inf


def clamp_budget(alpha, phi: float) -> float:
    """Clamp a user-supplied budget into (0, budget_max], warning on clamps."""
    cap = budget_max(alpha)
    if phi > cap:
        logger.warning("sparsity budget %.6g exceeds ||a||_1/||a||_inf=%.6g; clamping", phi, cap)
        return cap
    if phi <= 0.0:
        raise ValueError(f"sparsity budget must be positive, got {phi}")
    return phi


def optimal_plan(alpha, phi: float) -> SparsePlan:
    """Variance-optimal keep probabilities ``p_i = |a_i| * phi / ||a||_1``.

    Requires ``0 < phi <= budget_max(alpha)``; the bound guarantees every
    probability is at most one. Exactly-zero coordinates get probability zero.
    """
    alpha = _as_alpha(alpha)
    absa = np.abs(alpha)
    l1 = float(absa.sum())
    if l1 == 0.0:
        raise ValueError("cannot build a plan for the zero vector")
    if phi <= 0.0:
        raise ValueError(f"budget must be positive, got {phi}")
    cap = l1 / float(absa.max())  # budget_max(alpha) from the same reductions
    if phi > cap * (1.0 + _P_TOL):
        raise ValueError(
            f"variance-optimality precondition violated: phi={phi:.6g} > "
            f"||a||_1/||a||_inf={cap:.6g}"
        )
    p = np.minimum(1.0, absa * (phi / l1))  # min absorbs <=1e-12 rounding overshoot
    return SparsePlan(p, float(p.sum()))


def sparsify(alpha, plan: SparsePlan, rng: np.random.Generator) -> SparseRealVector:
    """Draw the Bernoulli mask and rescale kept coordinates by ``1/p_i``.

    Consumes ``dim`` uniform draws. Coordinates with ``p_i = 0`` are never
    emitted.
    """
    alpha = _as_alpha(alpha)
    if alpha.size != plan.dim:
        raise ValueError("plan dimension does not match alpha")
    u = rng.random(alpha.size)
    keep = (u < plan.probs) & (plan.probs > 0.0)
    idx = np.nonzero(keep)[0].astype(np.int64)
    vals = alpha[idx] / plan.probs[idx]
    nz = vals != 0.0  # alpha_i == 0 with p_i > 0 decodes to nothing
    return SparseRealVector(alpha.size, idx[nz], vals[nz])
