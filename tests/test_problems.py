import os
import subprocess
import sys
from functools import partial
from pathlib import Path

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

from oracles import (as_csr, csr_dot, csr_tdot, finite_diff_grad, grad_sample,
                     loss_and_grads_by_columns, prox_bruteforce)


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def small_logistic(n=40, d=7, seed=1, lambda1=0.01, lambda2=0.001,
                   storage="dense", **kw):
    return logistic_problem(stored_as(storage, synth_dataset(n, d, seed)),
                            lambda1, lambda2, **kw)


def stored_as(storage: str, data: Dataset) -> Dataset:
    """``data`` in the storage named: "dense" through ``from_dense``,
    "csr" through CSR arrays."""
    if storage == "csr":
        return as_csr(data)
    data = Dataset.from_dense(data.dense(), data.labels)
    assert isinstance(data.matrix, np.ndarray)
    return data


class TestLogistic:
    """The logistic kernels on the storage ``storage`` names."""

    storage = "dense"

    def small(self, **kw):
        return small_logistic(storage=self.storage, **kw)

    def test_loss_at_zero_is_log_two(self):
        prob = self.small()
        assert prob.f_value(np.zeros(prob.d)) == pytest.approx(np.log(2.0))

    def test_gradient_at_zero(self):
        prob = self.small()
        X = prob.data.dense()
        expected = -(prob.y @ X) / (2.0 * prob.n)
        np.testing.assert_allclose(prob.full_grad(np.zeros(prob.d)), expected,
                                   rtol=1e-12)

    def test_grad_sample_matches_finite_differences(self):
        prob = self.small()
        rng = rng_of(2)
        for _ in range(10):
            i = int(rng.integers(0, prob.n))
            x = rng.normal(size=prob.d)

            def f_i(z, i=i):
                margin = prob.y[i] * float(prob.data.dense()[i] @ z)
                return np.logaddexp(0.0, -margin) + 0.5 * prob.lambda2 * float(z @ z)

            g = grad_sample(prob, i, x)
            fd = finite_diff_grad(f_i, x)
            assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))) < 1e-6

    def test_full_grad_is_mean_of_samples(self):
        prob = self.small(n=15)
        x = rng_of(3).normal(size=prob.d)
        mean = np.mean([grad_sample(prob, i, x) for i in range(prob.n)], axis=0)
        np.testing.assert_allclose(prob.full_grad(x), mean, atol=1e-13)

    def test_grad_batch_is_batch_mean(self):
        prob = self.small()
        rng = rng_of(4)
        x = rng.normal(size=prob.d)
        idx = rng.integers(0, prob.n, size=6)
        mean = np.mean([grad_sample(prob, i, x) for i in idx], axis=0)
        np.testing.assert_allclose(prob.grad_batch(idx, x), mean, atol=1e-13)

    def test_sample_unbiasedness_by_enumeration(self):
        prob = self.small(n=12)
        x = rng_of(5).normal(size=prob.d)
        enumerated = sum(grad_sample(prob, i, x) for i in range(prob.n)) / prob.n
        np.testing.assert_allclose(enumerated, prob.full_grad(x), atol=1e-13)

    def test_smoothness_bound_holds(self):
        prob = self.small()
        rng = rng_of(6)
        L = prob.smoothness
        for _ in range(100):
            i = int(rng.integers(0, prob.n))
            x, y = rng.normal(size=prob.d), rng.normal(size=prob.d)
            lhs = np.linalg.norm(grad_sample(prob, i, x) - grad_sample(prob, i, y))
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_prox_is_soft_threshold(self):
        prob = self.small(lambda1=0.5)
        v = np.array([3.0, -0.3, 0.0, 1.0, -4.0, 0.2, 0.6])
        got = prob.prox(2.0, v)  # eta*lambda1 = 1
        np.testing.assert_allclose(got, soft_threshold(v, 1.0))
        assert got[0] == pytest.approx(2.0)

    def test_prox_matches_bruteforce_minimizer(self):
        rng = rng_of(7)
        for lam1, box in [(0.3, None), (0.0, None), (0.7, 0.5)]:
            data = stored_as(self.storage, synth_dataset(10, 3, 8))
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
        data = stored_as(self.storage, synth_multiclass_dataset(20, 4, 3, 0))
        with pytest.raises(ValueError, match="binary"):
            logistic_problem(data, 0.0, 0.0)

    def test_accepts_zero_one_labels(self):
        data = synth_dataset(20, 4, 0)
        data01 = stored_as(self.storage, Dataset.from_dense(
            data.dense(), (data.labels > 0).astype(float)))
        prob = logistic_problem(data01, 0.0, 0.0)
        assert set(np.unique(prob.y)) == {-1.0, 1.0}

    def test_objective_and_full_grad_share_one_product(self, monkeypatch):
        # the bits of objective and, up to the shared pass's rounding, of
        # full_grad, from one A @ x and one A.T @ w
        prob = self.small()
        rng = rng_of(12)
        x = rng.normal(size=prob.d)
        state = {k: id(v) for k, v in vars(prob.data).items()}
        want_loss, want_grad = prob.objective(x), prob.full_grad(x)
        calls = []
        for name in ("dot", "tdot"):
            def counted(data, *args, inner=getattr(Dataset, name), name=name,
                        **kwargs):
                calls.append(name)
                return inner(data, *args, **kwargs)

            monkeypatch.setattr(Dataset, name, counted)
        (loss,), grads = prob.loss_and_grads(x[:, None], [0])
        assert calls == ["dot", "tdot"]
        assert loss == want_loss
        np.testing.assert_allclose(grads[:, 0], want_grad, rtol=1e-12)
        assert {k: id(v) for k, v in vars(prob.data).items()} == state
        if not isinstance(prob.data.matrix, np.ndarray):
            # CSR: a column of a block product has its vector product's bits
            X = np.array([x, rng.normal(size=prob.d)]).T
            _, pair = prob.loss_and_grads(X, [0, 1])
            assert np.array_equal(pair[:, 0], grads[:, 0])


class TestLogisticCSR(TestLogistic):
    """Every TestLogistic case again on CSR storage."""

    storage = "csr"


def test_dense_and_csr_storage_agree():
    rng = rng_of(11)
    n, d = 30, 9
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.3)
    X[4] = 0.0  # an empty row
    rows, cols = np.nonzero(X)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = rng.normal(size=d)
    batch = np.array([7, 4, 7, 0, 29, 13])

    def kernels(data):
        prob = logistic_problem(data, 0.01, 0.001)
        return (prob.f_value(x), prob.grad_batch(batch, x),
                prob.grad_range_sum(3, 21, x))

    csr_data = Dataset(indptr, cols, X[rows, cols], labels, d)
    assert not isinstance(csr_data.matrix, np.ndarray)
    dense = kernels(stored_as("dense", csr_data))
    csr = kernels(csr_data)
    assert csr[0] == pytest.approx(dense[0], rel=1e-12)
    for got, want in zip(csr[1:], dense[1:]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_csr_products_match_bincount_reference():
    # scipy's csr_matvec and csc_matvec sum in the order of the weighted
    # bincount, so every product keeps its bits; about 90 entries a column
    # make any other order show
    rng = rng_of(13)
    n, d = 300, 40
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.3)
    X[17] = 0.0  # an empty row
    X[:, 5] = 0.0  # an empty column
    rows, cols = np.nonzero(X)
    vals = X[rows, cols]
    # row 40 gets column 9 a second time, as its last entry
    at = np.searchsorted(rows, 41)
    rows, cols = np.insert(rows, at, 40), np.insert(cols, at, 9)
    vals = np.insert(vals, at, 0.75)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    data = Dataset(indptr, cols, vals, np.ones(n), d)
    assert data._dense is None
    products = [(part, partial(data.dot, rows=part), partial(data.tdot, rows=part))
                for part in (slice(None), slice(0, n), slice(11, 237),
                             slice(40, 41))]
    batch = np.array([40, 17, 3, 40, 299, 0, 17])
    gathered = data.gather(batch)
    products.append((batch, gathered.dot, gathered.tdot))
    for scale in (1e-3, 1.0, 1e3):
        x = rng.normal(size=d) * scale
        w = rng.normal(size=n) * scale
        for rows_, dot, tdot in products:
            got, want = dot(x), csr_dot(data, x, rows_)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            k = want.size
            got, want = tdot(w[:k]), csr_tdot(data, w[:k], rows_)
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("width", [2, 7])
def test_csr_metric_block_keeps_per_iterate_product_bits(width, monkeypatch):
    # on CSR each column of the block's A @ X and A.T @ W has the bits of
    # the per-iterate A @ x and A.T @ w (csr_matvec, csc_matvec), and the
    # transposed product takes only the columns that have an eta
    prob = logistic_problem(as_csr(synth_dataset(300, 40, 9)), 1e-3, 1e-3)
    dot, tdot = Dataset.dot, Dataset.tdot
    products = []
    for inner in (dot, tdot):
        def recorded(data, w, *args, inner=inner, **kwargs):
            out = inner(data, w, *args, **kwargs)
            products.append((w.copy(), kwargs, out.copy()))
            return out

        monkeypatch.setattr(Dataset, inner.__name__, recorded)
    rng = rng_of(16)
    xs = [rng.normal(scale=0.3, size=prob.d) for _ in range(width)]
    etas = [None if j % 3 == 1 else 0.5 for j in range(width)]
    mapped = [j for j, eta in enumerate(etas) if eta is not None]
    prob.loss_and_grads(np.array(xs).T, mapped)
    (X, _, G), (W, kwargs, S) = products
    assert X.shape == (prob.d, width) and G.shape == (prob.n, width)
    for j in range(width):
        assert np.array_equal(G[:, j], dot(prob.data, X[:, j]))
    assert kwargs["cols"] == mapped and S.shape == (prob.d, len(mapped))
    for i, j in enumerate(mapped):
        assert np.array_equal(S[:, i], tdot(prob.data, W[:, j]))


def test_scipy_is_imported_only_for_csr_storage():
    # a dense-stored run never loads scipy; a CSR-stored Dataset does
    script = """
import sys, tempfile
import numpy as np
import dqsim
from dqsim.harness import parse_config, run_experiment
from dqsim.problems import Dataset
with tempfile.TemporaryDirectory() as out:
    run_experiment(parse_config({
        "problem": {"kind": "synth_logistic", "n": 60, "d": 5, "seed": 1,
                    "lambda1": 1e-3, "lambda2": 1e-3},
        "algo": {"algo": "asylpg", "epochs": 1, "m": 5, "eta": 0.2,
                 "b_x": 6, "b": 6, "tau": 1, "batch_size": 2, "seed": 2},
        "workers": {"count": 2},
        "run": {"out_dir": out, "loss_target": None}}))
assert "scipy" not in sys.modules, "dense run imported scipy"
Dataset([0, 1, 2, 3], [0, 1, 2], np.ones(3), np.ones(3), 3)
assert "scipy" in sys.modules, "CSR storage did not import scipy"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(params=["dense", "csr"])
def storage(request):
    """Run a test once per storage; it builds its datasets with
    ``stored_as(storage, ...)``."""
    return request.param


def test_repeated_column_is_summed_on_both_storages(storage, tmp_path):
    # CSR storage keeps both entries; a dense dataset of the same input
    # holds the matrix they describe
    path = tmp_path / "twice.txt"
    path.write_text("1 3:1 3:2\n-1 1:5\n")
    data = stored_as(storage, load_libsvm(path))
    np.testing.assert_array_equal(data.dense(), [[0.0, 0.0, 3.0],
                                                 [5.0, 0.0, 0.0]])
    np.testing.assert_array_equal(data.dot(np.ones(3)), [3.0, 5.0])
    np.testing.assert_array_equal(data.gather(np.array([0])).dot(np.ones(3)),
                                  [3.0])
    np.testing.assert_array_equal(data.tdot(np.ones(2)), [5.0, 0.0, 3.0])
    np.testing.assert_array_equal(data.row_norms_sq(), [9.0, 25.0])
    # the caller's arrays stay as given
    indices, values = np.array([2, 2, 0]), np.array([1.0, 2.0, 5.0])
    data = stored_as(storage, Dataset([0, 2, 3], indices, values, [1.0, -1.0], 3))
    np.testing.assert_array_equal(data.row_norms_sq(), [9.0, 25.0])
    np.testing.assert_array_equal(data.dot(np.ones(3)), [3.0, 5.0])
    np.testing.assert_array_equal(data.dense()[0], [0.0, 0.0, 3.0])
    np.testing.assert_array_equal(indices, [2, 2, 0])
    np.testing.assert_array_equal(values, [1.0, 2.0, 5.0])


def test_gathered_batch_repeats_rows_and_cols_picks_a_sliced_block(storage):
    X = np.arange(12.0).reshape(4, 3)
    data = stored_as(storage, Dataset.from_dense(X, np.ones(4)))
    batch = data.gather(np.array([2, 0, 2]))
    np.testing.assert_array_equal(batch.dot(np.ones(3)), [21.0, 3.0, 21.0])
    np.testing.assert_array_equal(batch.tdot(np.ones(3)), [12.0, 15.0, 18.0])
    W = np.arange(4.0).reshape(2, 2)
    np.testing.assert_array_equal(data.tdot(W, slice(1, 3), cols=[1]),
                                  X[1:3].T @ W[:, [1]])


def test_row_norms_sum_each_row_in_column_order(storage):
    # the smoothness estimate reads these bits; 300 columns make numpy's
    # pairwise summation show
    rng = rng_of(15)
    X = rng.normal(size=(20, 300)) * (rng.random((20, 300)) < 0.5)
    want = []
    for row in X:
        total = 0.0
        for v in row:
            total += float(v) * float(v)
        want.append(total)
    got = stored_as(storage, Dataset.from_dense(X, np.ones(20))).row_norms_sq()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("indptr, indices, values, fault", [
    ([0, 1, 2], [0, 1], [1.0], "same length"),
    ([1, 1, 2], [0], [1.0], "start at 0"),
    ([0, 2, 1], [0], [1.0], "not decrease"),
    ([0, 1, 1], [0, 1], [1.0, 2.0], "end at the number of indices"),
    ([0, 1, 3], [0, 1], [1.0, 2.0], "end at the number of indices"),
    ([0, 1], [0], [1.0], "n \\+ 1"),
], ids=["values_short", "start_1", "decreasing", "end_short", "end_long",
        "indptr_short"])
def test_malformed_csr_is_rejected_on_both_storages(storage, indptr, indices,
                                                    values, fault):
    # CSR arrays are checked before a dataset of either storage is made
    with pytest.raises(ValueError, match=fault):
        stored_as(storage, Dataset(indptr, indices, values, np.ones(2), 2))


@pytest.mark.parametrize("n", [1, 1023, 1025, 2500])
def test_margin_pass_on_rows_keeps_the_column_bits(storage, n):
    # the pass on the transposed product gives the losses and gradients of
    # the pass on its strided columns, bit for bit, at row counts off the
    # transpose's slice size and with or without loss-only columns
    prob = small_logistic(n=n, d=20, seed=4, storage=storage)
    rng = rng_of(18)
    X = rng.normal(size=(prob.d, 32))
    X[:, 1] *= 30.0  # margins far out on both sides
    for k in (1, 2, 32):
        for cols in (list(range(1, k, 2)),
                     list(range(k))):
            losses, grads = prob.loss_and_grads(X[:, :k], cols)
            want_losses, want_grads = loss_and_grads_by_columns(prob, X[:, :k],
                                                                cols)
            assert losses == want_losses
            assert grads.shape == (prob.d, len(cols))
            assert np.array_equal(grads, want_grads)


@pytest.mark.parametrize("batch", [[7, 4, 7, 0, 39, 7], [13]],
                         ids=["repeats", "one_row"])
def test_gradient_pair_is_the_difference_of_two_batch_gradients(storage, batch,
                                                                 monkeypatch):
    # a worker's gradient pair has the bits of two grad_batch calls, from
    # one gather of the batch
    prob = small_logistic(storage=storage)
    rng = rng_of(19)
    x, snapshot = rng.normal(size=(2, prob.d))
    idx = np.array(batch)
    want = prob.grad_batch(idx, x) - prob.grad_batch(idx, snapshot)
    gathers = []

    def counted(data, rows, inner=Dataset.gather):
        gathers.append(rows)
        return inner(data, rows)

    monkeypatch.setattr(Dataset, "gather", counted)
    assert np.array_equal(prob.grad_batch_diff(idx, x, snapshot), want)
    assert len(gathers) == 1


def test_dense_storage_holds_the_matrix_and_labels_only():
    data = synth_dataset(60, 8, seed=3)
    arrays = [v for v in vars(data).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2
    assert any(a is data.dense() for a in arrays)
    assert any(a is data.labels for a in arrays)
    assert not any(hasattr(data, k) for k in ("indptr", "indices", "values"))
    X = rng_of(14).normal(size=(30, 5))
    assert Dataset.from_dense(X, np.ones(30)).dense() is X


def test_storage_follows_the_input(tmp_path):
    # no size picks the storage: CSR arrays stay CSR however small, and a
    # dense array is stored as itself
    from scipy.sparse import csr_array

    path = tmp_path / "tiny.txt"
    path.write_text("1 1:0.5 2:1\n-1 2:2\n0 3:-1\n")
    data = load_libsvm(path)
    assert isinstance(data.matrix, csr_array)
    X = rng_of(17).normal(size=(30, 5))
    assert Dataset.from_dense(X, np.ones(30)).matrix is X


class _Quad1D(CompositeProblem):
    """f(x) = x^2/2 on one sample, h = 0."""

    n, d, smoothness = 1, 1, 1.0

    def f_value(self, x):
        return 0.5 * float(x @ x)

    def h_value(self, x):
        return 0.0

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

    @pytest.mark.parametrize("line", ["1 1:nan 2:1", "-1 1:1 2:inf"])
    def test_non_finite_value_rejected_with_path(self, tmp_path, line):
        path = tmp_path / "nf.txt"
        path.write_text(f"1 1:0.5\n{line}\n")
        with pytest.raises(ValueError, match=f"{path.name}: .*finite"):
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

    def test_blank_lines_labels_and_explicit_dimension(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("\n1 2:0.5 4:-1.25\n\n0 1:3\n  \n-0.5 \n"
                        "2.75 3:1e-3 1:2\n\n")
        assert load_libsvm(path).d == 4
        matrix = np.zeros((4, 6))
        matrix[0, [1, 3]] = 0.5, -1.25
        matrix[1, 0] = 3.0
        matrix[3, [2, 0]] = 1e-3, 2.0
        labels = np.array([1.0, 0.0, -0.5, 2.75])
        data = load_libsvm(path, d=6)
        assert data.n == 4 and data.d == 6
        # CSR storage keeps the entries as read
        for got, want in (
                (data.labels, labels),
                (data.indptr, np.array([0, 2, 3, 3, 5], dtype=np.int64)),
                (data.indices, np.array([1, 3, 0, 2, 0], dtype=np.int64)),
                (data.values, np.array([0.5, -1.25, 3.0, 1e-3, 2.0])),
                (data.dense(), matrix)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_no_features_needs_dimension(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1\n-1\n")
        with pytest.raises(ValueError, match=f"{path.name}: .*no features"):
            load_libsvm(path)
        assert load_libsvm(path, d=3).dense().shape == (2, 3)

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
        path = tmp_path / "rt.txt"
        for storage in ("dense", "csr"):
            data = stored_as(storage,
                             Dataset(indptr, indices, values, labels, d))
            write_libsvm(path, data)
            back = load_libsvm(path, d=d)
            np.testing.assert_array_equal(back.labels, data.labels)
            np.testing.assert_array_equal(back.dense(), data.dense())
        np.testing.assert_array_equal(back.indptr, indptr)
        np.testing.assert_array_equal(back.indices, indices)
        np.testing.assert_array_equal(back.values, values)


class TestSynth:
    def test_deterministic_under_seed(self):
        a = synth_dataset(50, 10, seed=42)
        b = synth_dataset(50, 10, seed=42)
        np.testing.assert_array_equal(a.dense(), b.dense())
        np.testing.assert_array_equal(a.labels, b.labels)
        c = synth_dataset(50, 10, seed=43)
        assert not np.array_equal(a.dense(), c.dense())

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

            g = prob.grad_batch(np.array([i]), x)
            fd = finite_diff_grad(f_i, x, h=1e-6)
            denom = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(g - fd)) / denom < 1e-4

    def test_full_grad_is_mean_of_samples(self):
        prob = self.make(n=8)
        x = prob.init_params(3)
        mean = np.mean([grad_sample(prob, i, x) for i in range(prob.n)], axis=0)
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

    def test_gradient_pair_is_the_difference_of_two_batch_gradients(self):
        # the base class makes the two grad_batch calls
        prob = self.make(n=20)
        x, snapshot = prob.init_params(1), prob.init_params(2)
        for batch in ([3, 17, 3, 0], [5]):
            idx = np.array(batch)
            want = prob.grad_batch(idx, x) - prob.grad_batch(idx, snapshot)
            assert np.array_equal(prob.grad_batch_diff(idx, x, snapshot), want)

    def test_label_range_validated(self):
        data = synth_multiclass_dataset(10, 4, 3, 0)
        with pytest.raises(ValueError, match="range"):
            mlp_problem(data, hidden=4, num_classes=2)

    def test_csr_storage_keeps_no_dense_copy(self):
        # the MLP reads the matrix the dataset stores; on CSR storage no
        # n x d array is held, and the kernels agree with dense storage
        def kernels(storage):
            data = stored_as(storage, synth_multiclass_dataset(40, 7, 3, 5))
            prob = mlp_problem(data, hidden=5, lambda2=1e-3, init_seed=2)
            x = prob.initial_point()
            batch = np.array([3, 17, 3, 39, 0, 17])
            return prob, (prob.f_value(x), prob.grad_batch(batch, x),
                          prob.grad_range_sum(5, 31, x))

        dense_prob, dense = kernels("dense")
        prob, csr = kernels("csr")
        assert isinstance(dense_prob._X, np.ndarray)
        held = [v for owner in (prob, prob.data) for v in vars(owner).values()]
        assert not any(isinstance(v, np.ndarray) and v.shape == (40, 7)
                       for v in held)
        assert csr[0] == pytest.approx(dense[0], rel=1e-12)
        for got, want in zip(csr[1:], dense[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-12)
