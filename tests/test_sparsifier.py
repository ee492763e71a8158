import numpy as np
import pytest

from dqsim.sparsifier import (
    SparsePlan,
    SparseRealVector,
    budget_max,
    clamp_budget,
    optimal_plan,
    sparsify,
)

from oracles import second_moment_expected, sparse_to_dense


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def tiled_sparsify(alpha, probs, n_draws, rng):
    """Many independent sparsifications through the library path, batched by
    tiling (coordinates are independent Bernoullis)."""
    d = alpha.size
    plan = SparsePlan(np.tile(probs, n_draws), float(probs.sum() * n_draws))
    beta = sparsify(np.tile(alpha, n_draws), plan, rng)
    return sparse_to_dense(beta).reshape(n_draws, d)


class TestBudgetMax:
    def test_norm_ratio(self):
        assert budget_max([3.0, 1.0]) == pytest.approx(4.0 / 3.0)

    def test_equal_magnitudes_give_dimension(self):
        assert budget_max([0.7] * 9) == pytest.approx(9.0)
        assert budget_max([-2.0, 2.0, 2.0]) == pytest.approx(3.0)

    def test_single_nonzero_gives_one(self):
        assert budget_max([0.0, 5.0, 0.0]) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            budget_max([0.0, 0.0])
        # the checked vector: messages name alpha, whose shape comes first
        for alpha, match in [([[1.0]], "alpha must be"), ([], "alpha must be"),
                             ([1.0, np.inf], "alpha contains non-finite")]:
            with pytest.raises(ValueError, match=match):
                budget_max(alpha)


class TestOptimalPlan:
    def test_formula_example(self):
        plan = optimal_plan([3.0, 1.0], 4.0 / 3.0)
        np.testing.assert_allclose(plan.probs, [1.0, 1.0 / 3.0])
        assert plan.budget == pytest.approx(4.0 / 3.0)

    def test_full_budget_keeps_everything(self):
        plan = optimal_plan([1.0, 1.0], 2.0)
        np.testing.assert_array_equal(plan.probs, [1.0, 1.0])

    def test_argmax_saturates_at_budget_max(self):
        rng = rng_of(1)
        for _ in range(20):
            alpha = rng.normal(size=6)
            plan = optimal_plan(alpha, budget_max(alpha))
            assert plan.probs[np.argmax(np.abs(alpha))] == pytest.approx(1.0)

    def test_zero_coordinates_get_zero_probability(self):
        plan = optimal_plan([2.0, 0.0, 1.0], 1.0)
        assert plan.probs[1] == 0.0

    def test_over_budget_rejected(self):
        with pytest.raises(ValueError, match="variance-optimality"):
            optimal_plan([3.0, 1.0], 2.0)
        with pytest.raises(ValueError, match="zero vector"):
            optimal_plan([0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="budget must be positive"):
            optimal_plan([3.0, 1.0], 0.0)

    def test_clamp_budget_caps_without_logging(self, caplog):
        # the cap is the algorithm's rule, not a fault: no log record
        with caplog.at_level("DEBUG"):
            assert clamp_budget([3.0, 1.0], 5.0) == pytest.approx(4.0 / 3.0)
        assert not caplog.records
        assert clamp_budget([3.0, 1.0], 1.25) == 1.25  # in range: unchanged
        with pytest.raises(ValueError, match="must be positive"):
            clamp_budget([3.0, 1.0], 0.0)


class TestSparsify:
    def test_degenerate_plan_is_identity(self):
        alpha = np.array([0.5, -2.0, 3.0])
        plan = SparsePlan(np.ones(3), 3.0)
        for seed in range(5):
            beta = sparsify(alpha, plan, rng_of(seed))
            np.testing.assert_array_equal(sparse_to_dense(beta), alpha)

    def test_example_distribution_and_unbiasedness(self):
        alpha = np.array([3.0, 1.0])
        plan = optimal_plan(alpha, 4.0 / 3.0)
        n = 1_000_000
        dense = tiled_sparsify(alpha, plan.probs, n, rng_of(2))
        # coordinate 0 is always present with value 3
        assert np.all(dense[:, 0] == 3.0)
        # coordinate 1 is present w.p. 1/3 with value 3
        present = dense[:, 1] != 0.0
        assert set(np.unique(dense[present, 1])) == {3.0}
        p_hat = present.mean()
        assert abs(p_hat - 1.0 / 3.0) < 4 * np.sqrt((1 / 3) * (2 / 3) / n)
        # empirical mean within 4 sigma of alpha coordinatewise
        se1 = np.sqrt(np.var(dense[:, 1]) / n)
        assert abs(dense[:, 1].mean() - 1.0) < 4 * se1

    def test_second_moment_matches_closed_form(self):
        alpha = np.array([3.0, 1.0])
        plan = optimal_plan(alpha, 4.0 / 3.0)
        n = 1_000_000
        dense = tiled_sparsify(alpha, plan.probs, n, rng_of(3))
        emp = float(np.mean(np.sum(dense**2, axis=1)))
        closed = second_moment_expected(alpha, plan)
        assert closed == pytest.approx(12.0)
        assert closed == pytest.approx(np.sum(np.abs(alpha)) ** 2 / (4.0 / 3.0))
        assert emp == pytest.approx(12.0, rel=0.01)

    def test_never_emits_zero_probability_coordinates(self):
        alpha = np.array([2.0, 0.0, 1.0])
        plan = optimal_plan(alpha, 1.0)
        for seed in range(50):
            beta = sparsify(alpha, plan, rng_of(100 + seed))
            assert 1 not in beta.indices

    def test_expected_support_size(self):
        rng = rng_of(4)
        alpha = rng.normal(size=6)
        phi = 0.6 * budget_max(alpha)
        plan = optimal_plan(alpha, phi)
        n = 200_000
        dense = tiled_sparsify(alpha, plan.probs, n, rng)
        nnz = (dense != 0.0).sum(axis=1)
        var = float(np.sum(plan.probs * (1 - plan.probs)))
        assert abs(nnz.mean() - phi) < 4 * np.sqrt(var / n)


class TestSecondMoment:
    def test_uniform_plan_is_worse(self):
        rng = rng_of(5)
        for _ in range(30):
            alpha = rng.normal(size=6)
            phi = 0.8  # <= budget_max always (>= 1 for any nonzero vector)
            opt = optimal_plan(alpha, phi)
            uniform = SparsePlan(np.full(6, phi / 6.0), phi)
            assert (
                second_moment_expected(alpha, opt)
                <= second_moment_expected(alpha, uniform) + 1e-9
            )
            assert second_moment_expected(alpha, uniform) == pytest.approx(
                (6.0 / phi) * float(alpha @ alpha)
            )

    def test_equal_magnitudes_equality_case(self):
        alpha = np.array([2.0, -2.0, 2.0, -2.0])
        phi = budget_max(alpha)  # = 4, plan keeps everything
        plan = optimal_plan(alpha, phi)
        closed = second_moment_expected(alpha, plan)
        assert closed == pytest.approx(np.sum(np.abs(alpha)) ** 2 / phi)
        assert closed == pytest.approx(float(alpha @ alpha))

    def test_optimal_beats_random_plans(self):
        rng = rng_of(6)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            alpha = rng.normal(size=d)
            phi = float(rng.uniform(0.3, 1.0)) * budget_max(alpha)
            opt_val = second_moment_expected(alpha, optimal_plan(alpha, phi))
            for _ in range(40):
                # random valid plan with the same budget: dirichlet weights,
                # rescaled and capped at 1 with excess redistributed
                w = rng.dirichlet(np.ones(d)) * phi
                for _ in range(50):
                    over = w > 1.0
                    if not over.any():
                        break
                    excess = float(np.sum(w[over] - 1.0))
                    w[over] = 1.0
                    room = ~over & (w > 0)
                    if not room.any():
                        break
                    w[room] += excess * w[room] / w[room].sum()
                w = np.minimum(w, 1.0)
                mask = np.abs(alpha) > 0
                w[~mask] = 0.0
                if np.any(mask & (w <= 0)):
                    continue
                plan = SparsePlan(w, float(w.sum()))
                if abs(plan.budget - phi) > 1e-6:
                    continue
                assert opt_val <= second_moment_expected(alpha, plan) + 1e-9


class TestTypes:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SparsePlan(np.array([0.5, 1.5]), 2.0)
        with pytest.raises(ValueError):
            SparsePlan(np.array([0.5, 0.5]), 2.0)
        with pytest.raises(ValueError, match="non-empty 1-d"):
            SparsePlan(np.array([]), 0.0)
        with pytest.raises(ValueError, match="plan dimension"):
            sparsify([1.0, 2.0], SparsePlan(np.ones(3), 3.0), rng_of(0))

    def test_plan_rejects_nan_probabilities(self):
        with pytest.raises(ValueError, match="lie in"):
            SparsePlan(np.array([np.nan, np.nan]), 5.0)

    def test_plan_rejects_nan_budget(self):
        with pytest.raises(ValueError, match="does not match the budget"):
            SparsePlan(np.array([0.5]), np.nan)

    def test_optimal_plan_rejects_nan_budget(self):
        with pytest.raises(ValueError, match="positive"):
            optimal_plan([3.0, 1.0], np.nan)

    def test_clamp_budget_rejects_nan(self):
        with pytest.raises(ValueError, match="positive"):
            clamp_budget([3.0, 1.0], np.nan)

    def test_sparse_vector_rejects_nan_value(self):
        with pytest.raises(ValueError, match="finite"):
            SparseRealVector(3, np.array([0]), np.array([np.nan]))

    def test_sparse_vector_validation(self):
        with pytest.raises(ValueError):
            SparseRealVector(3, np.array([2, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SparseRealVector(3, np.array([0, 1]), np.array([1.0, 0.0]))
        for dim, idx, vals, match in [
                (0, [], [], "dim"), (3, [0, 1], [1.0], "equal length"),
                (3, [3], [1.0], "out of range"),
                (3, [1, 1], [1.0, 1.0], "strictly increasing")]:
            with pytest.raises(ValueError, match=match):
                SparseRealVector(dim, np.array(idx, dtype=np.int64), np.array(vals))
        v = SparseRealVector(4, np.array([1, 3]), np.array([2.0, -1.0]))
        np.testing.assert_array_equal(sparse_to_dense(v), [0.0, 2.0, 0.0, -1.0])
