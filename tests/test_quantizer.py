import numpy as np
import pytest

from dqsim.optim import AlgoConfig
from dqsim.quantizer import (
    LowPrecisionVector,
    QuantGrid,
    choose_bx,
    expected_sq_error,
    grid_for,
    mu_required,
    quantize_on_grid,
    quantize_vector,
)

from oracles import mc_quantize_stats


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def quantize_one(x, grid, rng):
    return int(quantize_on_grid([x], grid, rng).codes[0])


def sq_dist(x, snap):
    return float(np.sum((x - snap) ** 2))


def chosen_width(rounding):
    """The width a search result sends at: 32 when no width holds."""
    return 32 if rounding is None else rounding.grid.bits


class TestQuantizeScalar:
    def test_midpoint_is_unbiased(self):
        rng = rng_of(1)
        grid = QuantGrid(1.0, 2)
        draws = [quantize_one(0.5, grid, rng) for _ in range(20_000)]
        assert set(draws) == {0, 1}
        # mean of decoded outputs ~ 0.5, sd of mean = 0.5/sqrt(N)
        assert abs(np.mean(draws) - 0.5) < 4 * 0.5 / np.sqrt(20_000)

    def test_grid_point_maps_to_itself(self):
        rng = rng_of(2)
        grid = QuantGrid(1.0, 2)  # values {-2, -1, 0, 1}
        assert all(quantize_one(-1.0, grid, rng) == -1 for _ in range(100))

    def test_clamps_beyond_hull(self):
        rng = rng_of(3)
        grid = QuantGrid(1.0, 2)
        assert quantize_one(5.0, grid, rng) == 1
        assert quantize_one(-7.0, grid, rng) == -2

    def test_rejects_bad_inputs(self):
        rng = rng_of(4)
        with pytest.raises(ValueError):
            quantize_one(np.nan, QuantGrid(1.0, 2), rng)
        with pytest.raises(ValueError):
            quantize_one(1.0, QuantGrid(0.0, 2), rng)


class TestQuantizeVector:
    def test_extrema_land_on_grid_points(self):
        q = quantize_vector([1.0, -1.0], 8, rng_of(5))
        assert q.grid.delta == 1.0 / 127.0
        assert q.codes.tolist() == [127, -127]
        np.testing.assert_array_equal(q.decode(), [1.0, -1.0])

    def test_zero_vector_degenerate_encoding(self):
        q = quantize_vector([0.0, 0.0, 0.0], 4, rng_of(6))
        assert q.grid.delta == 0.0
        assert q.codes.tolist() == [0, 0, 0]
        np.testing.assert_array_equal(q.decode(), [0.0, 0.0, 0.0])

    def test_three_bit_example_distribution(self):
        # delta = 0.6/3 = 0.2; 0.3 sits halfway between codes 1 and 2
        n = 100_000
        rng = rng_of(7)
        tiled = quantize_vector(np.tile([0.3, -0.6], n), 3, rng)
        assert tiled.grid.delta == pytest.approx(0.2)
        codes = tiled.codes.reshape(n, 2)
        assert set(np.unique(codes[:, 0])) == {1, 2}
        assert np.all(codes[:, 1] == -3)
        mean = codes[:, 0].mean() * tiled.grid.delta
        sigma = tiled.grid.delta * 0.5 / np.sqrt(n)
        assert abs(mean - 0.3) < 4 * sigma

    def test_roundtrip_within_delta(self):
        rng = rng_of(8)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 30))
            q = quantize_vector(v, int(rng.integers(2, 12)), rng)
            assert np.max(np.abs(q.decode() - v)) <= q.grid.delta + 1e-15

    def test_idempotent_on_grid_vectors(self):
        rng = rng_of(9)
        for _ in range(100):
            v = rng.normal(size=10)
            q = quantize_vector(v, 5, rng)
            v_grid = q.decode()
            if not np.any(v_grid):
                continue
            q2 = quantize_vector(v_grid, 5, rng)
            np.testing.assert_array_equal(q2.decode(), v_grid)

    def test_unbiased_within_four_standard_errors(self):
        n = 100_000
        rng = rng_of(11)
        v = rng.normal(size=8)
        grid = grid_for(v, 4)
        mean, _ = mc_quantize_stats(v, grid, n, rng)
        # per-coordinate rounding variance is at most delta^2/4
        se = grid.delta / 2.0 / np.sqrt(n)
        assert np.all(np.abs(mean - v) < 4 * se + 1e-12)


class TestExpectedSqError:
    def test_zero_on_grid_points(self):
        grid = QuantGrid(0.25, 4)
        v = np.array([-2, -1, 0, 3]) * 0.25
        assert expected_sq_error(v, grid) == 0.0

    def test_midpoint_attains_quarter_delta_sq(self):
        # (0.5 - 0)(1 - 0.5) = 0.25 = delta^2/4: the variance bound is tight
        assert expected_sq_error([0.5], QuantGrid(1.0, 2)) == pytest.approx(0.25)

    def test_matches_monte_carlo_and_bound(self):
        rng = rng_of(12)
        v = rng.normal(size=16)
        for bits in (2, 4, 8):
            grid = grid_for(v, bits)
            exact = expected_sq_error(v, grid)
            assert exact <= 16 * grid.delta**2 / 4.0 + 1e-15
            _, mc = mc_quantize_stats(v, grid, 1_000_000, rng)
            assert mc == pytest.approx(exact, rel=0.01)

    def test_rejects_out_of_hull(self):
        with pytest.raises(ValueError):
            expected_sq_error([5.0], QuantGrid(1.0, 2))


class TestChooseBx:
    def test_huge_budget_gives_minimum_width(self):
        rng = rng_of(13)
        x = rng.normal(size=12)
        assert chosen_width(choose_bx(x, 1e6 * sq_dist(x, np.zeros(12)))) == 2

    def test_zero_budget_gives_maximum_width(self):
        rng = rng_of(14)
        x = rng.normal(size=12)  # almost surely not exactly on any grid
        assert chosen_width(choose_bx(x, 0.0)) == 32

    def test_matches_exhaustive_scan(self):
        rng = rng_of(15)
        for _ in range(50):
            x = rng.normal(size=10)
            snap = rng.normal(size=10)
            mu = 0.1
            b_min = int(rng.integers(2, 17))
            budget = mu * sq_dist(x, snap)
            got = chosen_width(choose_bx(x, budget, b_min))
            feasible = [
                b for b in range(b_min, 33)
                if expected_sq_error(x, grid_for(x, b)) <= budget
            ]
            expected = feasible[0] if feasible else 32
            assert got == expected


class TestMuRequired:
    def test_zero_when_on_grid(self):
        # max code 127 makes the width-8 covering grid delta exactly 0.25,
        # so every coordinate is a grid point and the exact error vanishes
        x = np.array([127, -42, 0, 85], dtype=float) * 0.25
        assert mu_required(x, np.zeros(4), 8) == 0.0

    def test_nonincreasing_in_width(self):
        rng = rng_of(16)
        for _ in range(30):
            x = rng.normal(size=32)
            snap = rng.normal(size=32)
            vals = [mu_required(x, snap, b) for b in range(2, 13)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_duality_with_choose_bx(self):
        rng = rng_of(17)
        for _ in range(30):
            x = rng.normal(size=16)
            snap = rng.normal(size=16)
            mu = 10.0 ** rng.uniform(-3, 1)
            budget = mu * sq_dist(x, snap)
            bits = chosen_width(choose_bx(x, budget))
            if expected_sq_error(x, grid_for(x, bits)) <= budget:
                assert mu_required(x, snap, bits) <= mu

    def test_equal_vectors_are_an_error(self):
        x = np.ones(3)
        with pytest.raises(ValueError):
            mu_required(x, x.copy(), 8)

    @pytest.mark.parametrize("b_min", [2, 9])
    def test_zero_iterate_away_from_snapshot(self, b_min):
        # x = 0 gets the zero-delta grid, which encodes it exactly: its
        # error is 0 at every width, so mu is 0 and any budget, even a zero
        # one, holds at the first width tried
        x, snap = np.zeros(5), np.array([0.0, 1.5, -2.0, 0.25, 3.0])
        assert mu_required(x, snap, b_min) == 0.0
        for mu in (0.0, 0.5):
            assert chosen_width(choose_bx(x, mu * sq_dist(x, snap), b_min)) == b_min


class TestTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            QuantGrid(1.0, 1)
        with pytest.raises(ValueError):
            QuantGrid(-0.5, 4)
        grid = QuantGrid(0.5, 3)
        assert grid.code_min == -4 and grid.code_max == 3

    def test_lpv_validation(self):
        with pytest.raises(ValueError):
            LowPrecisionVector(QuantGrid(1.0, 2), np.array([2]))
        q = LowPrecisionVector(QuantGrid(1.0, 2), np.array([-2, 1]))
        assert q == LowPrecisionVector(QuantGrid(1.0, 2), np.array([-2, 1]))

    def test_quant_config_bounds(self):
        AlgoConfig(b_x=2, b=32, mu=0.0)
        with pytest.raises(ValueError):
            AlgoConfig(b_x=1, b=8, mu=0.1)
        with pytest.raises(ValueError):
            AlgoConfig(b_x=8, b=33, mu=0.1)
        with pytest.raises(ValueError):
            AlgoConfig(b_x=8, b=8, mu=-0.1)

    def test_clamp_rule_on_explicit_grid(self):
        rng = rng_of(18)
        grid = QuantGrid(1.0, 2)
        q = quantize_on_grid([9.0, -9.0, 0.25], grid, rng)
        assert q.codes[0] == 1 and q.codes[1] == -2
