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

from dataclasses import dataclass

import numpy as np

from .quantizer import _as_vector, _sparse_indices

__all__ = [
    "SparsePlan",
    "SparseRealVector",
    "budget_max",
    "optimal_plan",
    "sparsify",
]

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
        # each check is written so that NaN fails it
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        if not abs(float(p.sum()) - self.budget) <= 1e-9 * p.size:
            raise ValueError("sum of probabilities does not match the budget")

    @property
    def dim(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class SparseRealVector:
    """Sparse vector as (index, value) pairs with strictly increasing indices."""

    dim: int
    indices: np.ndarray  # int64
    values: np.ndarray  # float64, finite and nonzero

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices",
                           _sparse_indices(self.dim, self.indices, vals, "values"))
        object.__setattr__(self, "values", vals)
        if not (np.isfinite(vals) & (vals != 0.0)).all():
            raise ValueError("stored values must be finite and nonzero")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def budget_max(alpha) -> float:
    """Largest budget for which the optimal plan is valid: ``||a||_1 / ||a||_inf``."""
    absa = np.abs(_as_vector(alpha, "alpha"))
    inf = float(absa.max())
    if inf == 0.0:
        raise ValueError("budget_max undefined for the zero vector")
    return float(absa.sum()) / inf


def clamp_budget(alpha, phi: float) -> float:
    """The budget a message is sent at: a configured ``phi`` capped at
    ``budget_max(alpha)``, past which the optimal plan does not exist."""
    if not phi > 0.0:
        raise ValueError(f"sparsity budget must be positive, got {phi}")
    return min(phi, budget_max(alpha))


def optimal_plan(alpha, phi: float) -> SparsePlan:
    """Variance-optimal keep probabilities ``p_i = |a_i| * phi / ||a||_1``.

    Requires ``0 < phi <= budget_max(alpha)``; the bound guarantees every
    probability is at most one. Exactly-zero coordinates get probability zero.
    """
    alpha = _as_vector(alpha, "alpha")
    absa = np.abs(alpha)
    l1 = float(absa.sum())
    if l1 == 0.0:
        raise ValueError("cannot build a plan for the zero vector")
    if not phi > 0.0:
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
    alpha = _as_vector(alpha, "alpha")
    if alpha.size != plan.dim:
        raise ValueError("plan dimension does not match alpha")
    u = rng.random(alpha.size)
    # u lies in [0, 1), so a coordinate with p_i = 0 is never kept
    idx = np.nonzero(u < plan.probs)[0].astype(np.int64)
    vals = alpha[idx] / plan.probs[idx]
    nz = vals != 0.0  # alpha_i == 0 with p_i > 0 decodes to nothing
    return SparseRealVector(alpha.size, idx[nz], vals[nz])
