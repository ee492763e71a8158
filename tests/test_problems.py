import numpy as np
import pytest

from dqsim.problems import (
    CompositeProblem,
    Dataset,
    gradient_mapping_norm,
    load_libsvm,
    logistic_problem,
    mlp_problem,
    soft_threshold,
    synth_dataset,
    synth_multiclass_dataset,
    write_libsvm,
)

from oracles import finite_diff_grad, prox_bruteforce


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def small_logistic(n=40, d=7, seed=1, lambda1=0.01, lambda2=0.001, **kw):
    return logistic_problem(synth_dataset(n, d, seed), lambda1, lambda2, **kw)


class TestLogistic:
    def test_loss_at_zero_is_log_two(self):
        prob = small_logistic()
        assert prob.f_value(np.zeros(prob.d)) == pytest.approx(np.log(2.0))

    def test_gradient_at_zero(self):
        prob = small_logistic()
        X = prob.data.dense()
        expected = -(prob.y @ X) / (2.0 * prob.n)
        np.testing.assert_allclose(prob.full_grad(np.zeros(prob.d)), expected,
                                   rtol=1e-12)

    def test_grad_sample_matches_finite_differences(self):
        prob = small_logistic()
        rng = rng_of(2)
        for _ in range(10):
            i = int(rng.integers(0, prob.n))
            x = rng.normal(size=prob.d)

            def f_i(z, i=i):
                lo, hi = prob.data.indptr[i], prob.data.indptr[i + 1]
                margin = prob.y[i] * float(
                    prob.data.values[lo:hi] @ z[prob.data.indices[lo:hi]]
                )
                return np.logaddexp(0.0, -margin) + 0.5 * prob.lambda2 * float(z @ z)

            g = prob.grad_sample(i, x)
            fd = finite_diff_grad(f_i, x)
            assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))) < 1e-6

    def test_full_grad_is_mean_of_samples(self):
        prob = small_logistic(n=15)
        x = rng_of(3).normal(size=prob.d)
        mean = np.mean([prob.grad_sample(i, x) for i in range(prob.n)], axis=0)
        np.testing.assert_allclose(prob.full_grad(x), mean, atol=1e-13)

    def test_grad_batch_is_batch_mean(self):
        prob = small_logistic()
        rng = rng_of(4)
        x = rng.normal(size=prob.d)
        idx = rng.integers(0, prob.n, size=6)
        mean = np.mean([prob.grad_sample(i, x) for i in idx], axis=0)
        np.testing.assert_allclose(prob.grad_batch(idx, x), mean, atol=1e-13)

    def test_sample_unbiasedness_by_enumeration(self):
        prob = small_logistic(n=12)
        x = rng_of(5).normal(size=prob.d)
        enumerated = sum(prob.grad_sample(i, x) for i in range(prob.n)) / prob.n
        np.testing.assert_allclose(enumerated, prob.full_grad(x), atol=1e-13)

    def test_smoothness_bound_holds(self):
        prob = small_logistic()
        rng = rng_of(6)
        L = prob.smoothness
        for _ in range(100):
            i = int(rng.integers(0, prob.n))
            x, y = rng.normal(size=prob.d), rng.normal(size=prob.d)
            lhs = np.linalg.norm(prob.grad_sample(i, x) - prob.grad_sample(i, y))
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_prox_is_soft_threshold(self):
        prob = small_logistic(lambda1=0.5)
        v = np.array([3.0, -0.3, 0.0, 1.0, -4.0, 0.2, 0.6])
        got = prob.prox(2.0, v)  # eta*lambda1 = 1
        np.testing.assert_allclose(got, soft_threshold(v, 1.0))
        assert got[0] == pytest.approx(2.0)

    def test_prox_matches_bruteforce_minimizer(self):
        rng = rng_of(7)
        for lam1, box in [(0.3, None), (0.0, None), (0.7, 0.5)]:
            data = synth_dataset(10, 3, 8)
            prob = logistic_problem(data, lam1, 1e-4, box_radius=box)
            for _ in range(20):
                v = rng.normal(size=3) * 2.0
                eta = float(rng.uniform(0.05, 2.0))
                np.testing.assert_allclose(
                    prob.prox(eta, v),
                    prox_bruteforce(v, eta, lam1, box),
                    atol=1e-6,
                )

    def test_rejects_non_binary_labels(self):
        data = synth_multiclass_dataset(20, 4, 3, 0)
        with pytest.raises(ValueError, match="binary"):
            logistic_problem(data, 0.0, 0.0)

    def test_accepts_zero_one_labels(self):
        data = synth_dataset(20, 4, 0)
        data01 = Dataset(data.indptr, data.indices, data.values,
                         (data.labels > 0).astype(float), data.d)
        prob = logistic_problem(data01, 0.0, 0.0)
        assert set(np.unique(prob.y)) == {-1.0, 1.0}


class _Quad1D(CompositeProblem):
    """f(x) = x^2/2 on one sample, h = 0."""

    n, d, smoothness = 1, 1, 1.0

    def f_value(self, x):
        return 0.5 * float(x @ x)

    def h_value(self, x):
        return 0.0

    def grad_sample(self, i, x):
        return x.copy()

    def grad_batch(self, idx, x):
        return x.copy()

    def grad_range_sum(self, lo, hi, x):
        return (hi - lo) * x

    def prox(self, eta, v):
        return v


class _Lasso1D(CompositeProblem):
    """f(x) = (x-1)^2/2, h = lam*|x|; minimizer is soft_threshold(1, lam)."""

    n, d, smoothness = 1, 1, 1.0

    def __init__(self, lam):
        self.lam = lam

    def f_value(self, x):
        return 0.5 * float((x[0] - 1.0) ** 2)

    def h_value(self, x):
        return self.lam * abs(float(x[0]))

    def grad_sample(self, i, x):
        return x - 1.0

    def grad_batch(self, idx, x):
        return x - 1.0

    def grad_range_sum(self, lo, hi, x):
        return (hi - lo) * (x - 1.0)

    def prox(self, eta, v):
        return soft_threshold(v, eta * self.lam)


class TestGradientMapping:
    def test_reduces_to_gradient_norm_without_h(self):
        prob = small_logistic(lambda1=0.0)
        x = rng_of(9).normal(size=prob.d)
        g = prob.full_grad(x)
        assert gradient_mapping_norm(prob, x, 0.37) == pytest.approx(float(g @ g))

    def test_quadratic_at_two_is_four_for_any_eta(self):
        prob = _Quad1D()
        for eta in (0.01, 0.1, 1.0, 3.0):
            assert gradient_mapping_norm(prob, np.array([2.0]), eta) == \
                pytest.approx(4.0)

    def test_vanishes_at_minimizer(self):
        prob = _Lasso1D(0.25)
        x_star = np.array([0.75])
        for eta in (0.1, 0.5, 1.0):
            assert gradient_mapping_norm(prob, x_star, eta) < 1e-10

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            gradient_mapping_norm(_Quad1D(), np.array([1.0]), 0.0)


class TestLibsvm:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1 3:0.5\n")
        data = load_libsvm(path)
        assert data.n == 1 and data.d == 3
        assert data.labels[0] == 1.0
        np.testing.assert_array_equal(data.dense()[0], [0.0, 0.0, 0.5])

    def test_dense_prefix(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("-1 1:1 2:2\n")
        data = load_libsvm(path)
        assert data.labels[0] == -1.0
        np.testing.assert_array_equal(data.dense()[0], [1.0, 2.0])

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1 1:0.5\n-1 oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_libsvm(path)

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("1 0:2.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_libsvm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_libsvm(path)

    def test_dimension_override(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 2:1.0\n")
        assert load_libsvm(path, d=10).d == 10

    def test_roundtrip_exact_at_single_precision(self, tmp_path):
        rng = rng_of(10)
        n, d = 25, 12
        rows = []
        indptr, indices, values = [0], [], []
        for _ in range(n):
            nnz = int(rng.integers(1, d + 1))
            idx = np.sort(rng.choice(d, size=nnz, replace=False))
            vals = rng.normal(size=nnz).astype(np.float32).astype(np.float64)
            indices.extend(idx)
            values.extend(vals)
            indptr.append(len(indices))
        labels = rng.choice([-1.0, 1.0], size=n)
        data = Dataset(indptr, indices, values, labels, d)
        path = tmp_path / "rt.txt"
        write_libsvm(path, data)
        back = load_libsvm(path, d=d)
        np.testing.assert_array_equal(back.labels, data.labels)
        np.testing.assert_array_equal(back.indptr, data.indptr)
        np.testing.assert_array_equal(back.indices, data.indices)
        np.testing.assert_array_equal(back.values, data.values)


class TestSynth:
    def test_deterministic_under_seed(self):
        a = synth_dataset(50, 10, seed=42)
        b = synth_dataset(50, 10, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = synth_dataset(50, 10, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_separable_data_trains_to_high_accuracy(self):
        data = synth_dataset(1000, 50, seed=0, flip_prob=0.0)
        prob = logistic_problem(data, 1e-6, 1e-6)
        x = np.zeros(prob.d)
        eta = 1.0 / prob.smoothness
        for _ in range(500):
            x = prob.prox(eta, x - eta * prob.full_grad(x))
        acc = np.mean(np.sign(data.dense() @ x) == prob.y)
        assert acc >= 0.99

    def test_pure_noise_floor_is_log_two(self):
        data = synth_dataset(2000, 20, seed=1, flip_prob=0.5)
        prob = logistic_problem(data, 0.0, 1e-6)
        x = np.zeros(prob.d)
        eta = 1.0 / prob.smoothness
        for _ in range(300):
            x = prob.prox(eta, x - eta * prob.full_grad(x))
        # labels carry no signal: the optimum cannot improve much on log 2
        assert prob.f_value(x) > np.log(2.0) - 0.05


class TestMLP:
    def make(self, n=10, d=6, classes=3, hidden=4, lam2=1e-3, seed=0):
        data = synth_multiclass_dataset(n, d, classes, seed)
        return mlp_problem(data, hidden=hidden, lambda2=lam2)

    def test_zero_weights_give_log_c_loss(self):
        prob = self.make(classes=4)
        assert prob.f_value(np.zeros(prob.d)) == pytest.approx(np.log(4.0))

    def test_backprop_matches_finite_differences(self):
        prob = self.make()
        rng = rng_of(11)
        for _ in range(5):
            x = prob.init_params(seed=int(rng.integers(1 << 30)))
            x += rng.normal(scale=0.05, size=prob.d)
            i = int(rng.integers(0, prob.n))

            def f_i(z, i=i):
                _, _, logits, log_z = prob._forward(prob._X[i:i + 1], z)
                picked = logits[0, prob.targets[i]]
                return float(log_z[0] - picked) + 0.5 * prob.lambda2 * float(z @ z)

            g = prob.grad_sample(i, x)
            fd = finite_diff_grad(f_i, x, h=1e-6)
            denom = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(g - fd)) / denom < 1e-4

    def test_full_grad_is_mean_of_samples(self):
        prob = self.make(n=8)
        x = prob.init_params(3)
        mean = np.mean([prob.grad_sample(i, x) for i in range(prob.n)], axis=0)
        np.testing.assert_allclose(prob.full_grad(x), mean, atol=1e-12)

    def test_one_step_descends(self):
        prob = self.make(n=20)
        x = prob.init_params(1)
        before = prob.f_value(x)
        g = prob.full_grad(x)
        after = prob.f_value(x - 0.05 * g)
        assert after < before

    def test_prox_is_identity_and_h_zero(self):
        prob = self.make()
        v = rng_of(12).normal(size=prob.d)
        np.testing.assert_array_equal(prob.prox(0.3, v), v)
        assert prob.h_value(v) == 0.0

    def test_label_range_validated(self):
        data = synth_multiclass_dataset(10, 4, 3, 0)
        with pytest.raises(ValueError, match="range"):
            mlp_problem(data, hidden=4, num_classes=2)
