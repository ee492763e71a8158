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
    "Rounding",
    "grid_for",
    "rounding_for",
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


def grid_for(v, bits: int) -> QuantGrid:
    """Grid whose hull covers ``v``: ``delta = max|v_i| / (2^(bits-1) - 1)``."""
    return _grid_for(_as_vector(v), bits)


def _grid_for(v: np.ndarray, bits: int) -> QuantGrid:
    return QuantGrid(float(np.max(np.abs(v))) / ((1 << (bits - 1)) - 1), bits)


class Rounding:
    """The checked vector ``values`` rounded on ``grid``, before the draw:
    each value's floor code ``floor`` (a float) and chance ``frac`` of going
    up, from which the exact error and the codes both follow. A value outside
    the hull clips to the nearest endpoint (with ``in_hull``, it is an error);
    a fraction within _SNAP_TOL of 0 or 1 snaps onto the nearer code."""

    def __init__(self, values: np.ndarray, grid: QuantGrid, in_hull: bool = False):
        self.values, self.grid = values, grid
        if grid.delta == 0.0:
            if np.any(values != 0.0):
                raise ValueError("zero-delta grid only covers the all-zero vector")
            self.floor = self.frac = np.zeros(values.size)
            return
        scaled = values / grid.delta
        if in_hull:
            tol = _SNAP_TOL * max(1.0, float(grid.code_max))
            if np.any(scaled < grid.code_min - tol) or np.any(scaled > grid.code_max + tol):
                raise ValueError("coordinate outside the grid hull")
        scaled = np.clip(scaled, grid.code_min, grid.code_max)
        z = np.floor(scaled)
        frac = scaled - z
        hi = frac >= 1.0 - _SNAP_TOL
        self.floor = z + hi
        self.frac = np.where(hi | (frac <= _SNAP_TOL), 0.0, frac)

    @property
    def error(self) -> float:
        """Exact ``E||Q(v) - v||^2`` inside the hull: a value with floor point
        ``z`` adds ``(v - z) * (z + delta - v)``, at most ``delta^2/4``."""
        return float(self.grid.delta**2 * np.sum(self.frac * (1.0 - self.frac)))

    def at(self, bits: int) -> Rounding:
        """The same values rounded on their covering grid of width ``bits``."""
        return Rounding(self.values, _grid_for(self.values, bits))

    def draw(self, rng: np.random.Generator) -> LowPrecisionVector:
        """Codes from one uniform draw per value (none on the zero-delta grid)."""
        if self.grid.delta == 0.0:
            return LowPrecisionVector(self.grid, self.floor.astype(np.int64))
        u = rng.random(self.frac.size)
        return LowPrecisionVector(self.grid, (self.floor + (u < self.frac)).astype(np.int64))


def rounding_for(v, bits: int) -> Rounding:
    """``v`` rounded on its covering grid (see :func:`grid_for`)."""
    v = _as_vector(v)
    return Rounding(v, _grid_for(v, bits))


def quantize_vector(v, bits: int, rng: np.random.Generator) -> LowPrecisionVector:
    """Quantize a vector with its covering grid (see :func:`grid_for`).

    The all-zero vector gets the degenerate ``delta = 0`` grid and all-zero
    codes, which decodes exactly. Consumes ``len(v)`` uniform draws otherwise.
    """
    return rounding_for(v, bits).draw(rng)


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
    return Rounding(v, grid).draw(rng)


def expected_sq_error(v, grid: QuantGrid) -> float:
    """Exact expected squared error of quantizing ``v`` on ``grid`` (see
    :attr:`Rounding.error`); raises if ``v`` leaves the hull."""
    return Rounding(_as_vector(v), grid, in_hull=True).error


def choose_bx(x, budget: float, b_min: int = 2) -> Rounding | None:
    """``x`` rounded on its covering grid of the smallest width in [b_min, 32]
    whose exact expected error is within ``budget``; None if none is.

    ``x`` is a vector, or a :class:`Rounding` whose checked values are
    searched. The exact error is not monotone in the width (the grids are
    not nested), so a caller widening a width that breaks the budget passes
    that width plus one as ``b_min``.
    """
    v = x.values if isinstance(x, Rounding) else _as_vector(x, "x")
    for bits in range(b_min, FULL_PRECISION_BITS + 1):
        rounding = Rounding(v, _grid_for(v, bits))
        if rounding.error <= budget:
            return rounding
    return None


def mu_required(x, x_snapshot, b_x: int) -> float:
    """Smallest precision-loss budget making the model constraint hold at
    this iterate: exact expected error divided by ``||x - x_snapshot||^2``."""
    x = _as_vector(x, "x")
    x_snapshot = _as_vector(x_snapshot, "x_snapshot")
    diff_sq = float(np.sum((x - x_snapshot) ** 2))
    if diff_sq == 0.0:
        raise ValueError("x equals x_snapshot: mu is undefined on the flag path")
    return Rounding(x, _grid_for(x, b_x)).error / diff_sq
