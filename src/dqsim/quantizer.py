"""Stochastic-rounding quantization onto uniform signed grids.

A grid ``(delta, b)`` represents the value set

    {-2^(b-1) * delta, ..., -delta, 0, delta, ..., (2^(b-1) - 1) * delta}.

Vectors are quantized coordinatewise: a value inside the representable range
is randomly rounded to one of its two neighbouring grid points so that the
rounding is unbiased, and a value outside the range snaps deterministically
to the nearest endpoint. Scaling a vector by ``delta = max|v_i| / (2^(b-1)-1)``
puts every coordinate inside the range, which makes the whole-vector
quantization unbiased.

All randomness flows through an explicit ``numpy.random.Generator`` argument
so callers own their streams and runs stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantGrid",
    "LowPrecisionVector",
    "SparseLowPrecisionVector",
    "QuantConfig",
    "grid_for",
    "quantize_vector",
    "quantize_on_grid",
    "expected_sq_error",
    "choose_bx",
    "mu_required",
    "FULL_PRECISION_BITS",
]

# Fractional parts within this distance of a code are rounded deterministically.
# Absorbs last-ulp noise from the delta division so that on-grid vectors are
# reproduced exactly and hull extremes never dither.
_SNAP_TOL = 1e-9

# Widest grid and the width of a binary32 value: the codec packs codes of at
# most this many bits, and a message at this width is sent in full precision.
FULL_PRECISION_BITS = 32


def _as_vector(v, name: str = "v") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class QuantGrid:
    """Uniform signed grid: scaling factor ``delta`` and bit width ``bits``.

    ``delta == 0`` is the degenerate encoding of the all-zero vector; every
    code then decodes to 0.
    """

    delta: float
    bits: int

    def __post_init__(self):
        if self.bits < 2:
            raise ValueError(f"bit width must be >= 2, got {self.bits}")
        if not math.isfinite(self.delta) or self.delta < 0.0:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")

    @property
    def code_min(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def code_max(self) -> int:
        return (1 << (self.bits - 1)) - 1


@dataclass(frozen=True, eq=False)
class LowPrecisionVector:
    """Dense quantized vector: a grid plus one signed integer code per coordinate."""

    grid: QuantGrid
    codes: np.ndarray  # int64, shape (d,)

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "codes", codes)
        if codes.ndim != 1 or codes.size == 0:
            raise ValueError("codes must be a non-empty 1-d integer array")
        if codes.min() < self.grid.code_min or codes.max() > self.grid.code_max:
            raise ValueError("codes outside representable range of the grid")

    @property
    def dim(self) -> int:
        return self.codes.size

    def decode(self) -> np.ndarray:
        return self.codes * self.grid.delta

    def __eq__(self, other) -> bool:
        if not isinstance(other, LowPrecisionVector):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.codes, other.codes)


@dataclass(frozen=True, eq=False)
class SparseLowPrecisionVector:
    """Sparsified-then-quantized vector: (index, code) pairs over a grid.

    Indices are strictly increasing and live in ``[0, dim)``. An empty entry
    list encodes the zero vector.
    """

    grid: QuantGrid
    dim: int
    indices: np.ndarray  # int64, strictly increasing
    codes: np.ndarray  # int64, same length as indices

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "codes", codes)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if idx.shape != codes.shape or idx.ndim != 1:
            raise ValueError("indices and codes must be 1-d arrays of equal length")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError("indices out of range")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
            if codes.min() < self.grid.code_min or codes.max() > self.grid.code_max:
                raise ValueError("codes outside representable range of the grid")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def decode(self) -> np.ndarray:
        out = np.zeros(self.dim)
        if self.indices.size:
            out[self.indices] = self.codes * self.grid.delta
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseLowPrecisionVector):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.codes, other.codes)
        )


@dataclass(frozen=True)
class QuantConfig:
    """Bit widths for model (b_x) and gradient (b) messages plus the
    precision-loss budget mu that bounds allowed model quantization error
    relative to the snapshot distance."""

    b_x: int
    b: int
    mu: float

    def __post_init__(self):
        if not 2 <= self.b_x <= FULL_PRECISION_BITS:
            raise ValueError(f"b_x must be in [2, {FULL_PRECISION_BITS}], got {self.b_x}")
        if not 2 <= self.b <= FULL_PRECISION_BITS:
            raise ValueError(f"b must be in [2, {FULL_PRECISION_BITS}], got {self.b}")
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")


def grid_for(v, bits: int) -> QuantGrid:
    """Grid whose hull covers ``v``: ``delta = max|v_i| / (2^(bits-1) - 1)``."""
    v = _as_vector(v)
    return QuantGrid(float(np.max(np.abs(v))) / ((1 << (bits - 1)) - 1), bits)


def _snapped_frac(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split scaled values into integer floor and fractional part, snapping
    fractions within _SNAP_TOL of 0 or 1 onto the nearer code."""
    z = np.floor(scaled)
    frac = scaled - z
    hi = frac >= 1.0 - _SNAP_TOL
    z = z + hi
    frac = np.where(hi | (frac <= _SNAP_TOL), 0.0, frac)
    return z, frac


def quantize_vector(v, bits: int, rng: np.random.Generator) -> LowPrecisionVector:
    """Quantize a vector with its covering grid (see :func:`grid_for`).

    The all-zero vector gets the degenerate ``delta = 0`` grid and all-zero
    codes, which decodes exactly. Consumes ``len(v)`` uniform draws otherwise.
    """
    grid = grid_for(v, bits)
    if grid.delta == 0.0:
        return LowPrecisionVector(grid, np.zeros(np.size(v), dtype=np.int64))
    return quantize_on_grid(v, grid, rng)


def quantize_on_grid(
    v, grid: QuantGrid, rng: np.random.Generator
) -> LowPrecisionVector:
    """Quantize a vector onto an explicit grid, one uniform draw per value.

    Inside the hull each value gets the unbiased two-point rounding; outside
    it snaps to the nearest endpoint.
    """
    v = _as_vector(v)
    if grid.delta == 0.0:
        raise ValueError("zero-delta grid encodes only the all-zero vector")
    u = rng.random(v.size)
    scaled = np.clip(v / grid.delta, grid.code_min, grid.code_max)
    z, frac = _snapped_frac(scaled)
    return LowPrecisionVector(grid, (z + (u < frac)).astype(np.int64))


def expected_sq_error(v, grid: QuantGrid) -> float:
    """Exact expected squared rounding error of quantizing ``v`` on ``grid``.

    For each coordinate inside the hull with floor point ``z`` the two-point
    rounding contributes ``(v - z) * (z + delta - v)``, so the total is the
    exact expectation of ``||Q(v) - v||^2``; it is bounded by ``d*delta^2/4``.
    Raises if any coordinate lies outside the hull, where the closed form
    does not apply.
    """
    v = _as_vector(v)
    if grid.delta == 0.0:
        if np.any(v != 0.0):
            raise ValueError("zero-delta grid only covers the all-zero vector")
        return 0.0
    scaled = v / grid.delta
    tol = _SNAP_TOL * max(1.0, float(grid.code_max))
    if np.any(scaled < grid.code_min - tol) or np.any(scaled > grid.code_max + tol):
        raise ValueError("coordinate outside the grid hull")
    scaled = np.clip(scaled, grid.code_min, grid.code_max)
    _, frac = _snapped_frac(scaled)
    return float(grid.delta**2 * np.sum(frac * (1.0 - frac)))


def choose_bx(x, x_snapshot, mu: float, b_min: int = 2) -> int:
    """Smallest bit width in [b_min, 32] whose exact expected quantization
    error stays within ``mu * ||x - x_snapshot||^2``; 32 if none does.

    The exact error is not monotone in the width (the grids are not nested),
    so a caller widening a width that breaks the budget passes that width
    plus one as ``b_min``.

    The caller must handle ``x == x_snapshot`` with a flag-bit message; here
    it is an error because the budget degenerates to zero.
    """
    x = _as_vector(x, "x")
    x_snapshot = _as_vector(x_snapshot, "x_snapshot")
    diff_sq = float(np.sum((x - x_snapshot) ** 2))
    if diff_sq == 0.0:
        raise ValueError("x equals x_snapshot: use flag-bit message")
    budget = mu * diff_sq
    for bits in range(b_min, FULL_PRECISION_BITS + 1):
        if expected_sq_error(x, grid_for(x, bits)) <= budget:
            return bits
    return FULL_PRECISION_BITS


def mu_required(x, x_snapshot, b_x: int) -> float:
    """Smallest precision-loss budget making the model constraint hold at
    this iterate: exact expected error divided by ``||x - x_snapshot||^2``."""
    x = _as_vector(x, "x")
    x_snapshot = _as_vector(x_snapshot, "x_snapshot")
    diff_sq = float(np.sum((x - x_snapshot) ** 2))
    if diff_sq == 0.0:
        raise ValueError("x equals x_snapshot: mu is undefined on the flag path")
    return expected_sq_error(x, grid_for(x, b_x)) / diff_sq
