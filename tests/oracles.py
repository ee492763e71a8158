"""Independent reference implementations used as test oracles.

Deliberately written straight from definitions (loops, brute force, finite
differences) and kept free of the library's own code paths wherever a path
is being checked against them.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from dqsim.problems import Dataset, LogisticProblem, MLPProblem
from dqsim.sparsifier import SparsePlan, SparseRealVector


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, one coordinate at a time."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def grad_sample(problem, i: int, x: np.ndarray) -> np.ndarray:
    """Gradient at x of sample i's smooth loss, L2 term included, for a
    logistic or MLP problem; the program itself has no per-sample gradient.

    Logistic: log(1 + exp(-y_i <a_i, x>)) has gradient -y_i sigmoid(-m) a_i
    at margin m = y_i <a_i, x>, with a_i row i of the matrix. MLP: softmax
    cross-entropy backpropagated by hand through one row.
    """
    if isinstance(problem, LogisticProblem):
        a = dense(problem.data)[i]
        y = 1.0 if problem.data.labels[i] > 0 else -1.0
        margin = y * float(a @ x)
        sigmoid_neg = 0.5 * (1.0 - math.tanh(0.5 * margin))  # 1 / (1 + e^m)
        return problem.lambda2 * x - y * sigmoid_neg * a
    if isinstance(problem, MLPProblem):
        h, c, d_in = problem.hidden, problem.num_classes, problem.d_in
        w1 = x[:h * d_in].reshape(h, d_in)
        b1 = x[h * d_in:h * d_in + h]
        w2 = x[h * d_in + h:h * d_in + h + c * h].reshape(c, h)
        b2 = x[h * d_in + h + c * h:]
        a = dense(problem.data)[i]
        z1 = w1 @ a + b1
        a1 = np.maximum(z1, 0.0)
        logits = w2 @ a1 + b2
        p = np.exp(logits - logits.max())
        p /= p.sum()
        p[int(problem.data.labels[i])] -= 1.0  # d loss / d logits
        back = (w2.T @ p) * (z1 > 0.0)
        flat = np.concatenate([np.outer(back, a).ravel(), back,
                               np.outer(p, a1).ravel(), p])
        return flat + problem.lambda2 * x
    raise TypeError(f"no per-sample oracle for {type(problem).__name__}")


def dense(data) -> np.ndarray:
    """``data``'s matrix as a dense array: the stored array on dense
    storage, a new one on CSR storage."""
    A = data.matrix
    return A if isinstance(A, np.ndarray) else A.toarray()


def as_csr(data) -> Dataset:
    """``data``'s matrix and labels again, built from CSR arrays of its
    nonzero entries in row-major order, so stored as a scipy CSR array."""
    X = dense(data)
    rows, cols = np.nonzero(X)
    indptr = np.searchsorted(rows, np.arange(data.n + 1))
    out = Dataset(indptr, cols, X[rows, cols], data.labels, data.d)
    assert not isinstance(out.matrix, np.ndarray)
    return out


def _csr_entries(data, rows):
    """CSR entries of A[rows] for a unit-step slice or an array of row
    indices: (row position in ``rows``, column, value) per entry, plus the
    row count."""
    if isinstance(rows, slice):
        lo, hi, step = rows.indices(data.n)
        assert step == 1
        rows = np.arange(lo, hi)
    idx = np.asarray(rows, dtype=np.int64)
    counts = data.indptr[idx + 1] - data.indptr[idx]
    pos = np.concatenate([np.arange(data.indptr[i], data.indptr[i + 1])
                          for i in idx] + [np.zeros(0, dtype=np.int64)])
    row_ids = np.repeat(np.arange(idx.size), counts)
    return row_ids, data.indices[pos], data.values[pos], idx.size


def csr_dot(data, x: np.ndarray, rows=slice(None)) -> np.ndarray:
    """A[rows] @ x as one weighted ``bincount``: each row's products summed
    from zero in stored entry order, the order ``Dataset.dot`` keeps."""
    row_ids, cols, vals, k = _csr_entries(data, rows)
    return np.bincount(row_ids, weights=vals * x[cols], minlength=k)


def csr_tdot(data, w: np.ndarray, rows=slice(None)) -> np.ndarray:
    """A[rows].T @ w as one weighted ``bincount``: each column's products
    summed from zero over the rows in order, the order ``Dataset.tdot``
    keeps."""
    row_ids, cols, vals, _ = _csr_entries(data, rows)
    return np.bincount(cols, weights=vals * w[row_ids], minlength=data.d)


def loss_and_grads_by_columns(problem, X: np.ndarray, grad_cols: list[int]):
    """``LogisticProblem.loss_and_grads`` with the margin pass on the strided
    columns of the C-ordered n x K product ``A @ X``: the per-column
    operations, in their order, that its pass on contiguous rows keeps bit
    for bit. The products are the program's; only the pass is checked."""
    G = problem.data.dot(X)
    fs = []
    for j in range(X.shape[1]):
        margins = problem.y * G[:, j]
        soft = np.log1p(np.exp(-np.abs(margins)))
        x = X[:, j]
        fs.append(float(np.mean(np.maximum(-margins, 0.0) + soft))
                  + 0.5 * problem.lambda2 * float(x @ x))
        G[:, j] = -problem.y * np.exp(-(np.maximum(margins, 0.0) + soft))
    losses = [f + problem.h_value(X[:, j]) for j, f in enumerate(fs)]
    if not grad_cols:
        return losses, np.empty((problem.d, 0))
    every = len(grad_cols) == X.shape[1]
    S = problem.data.tdot(G, cols=None if every else grad_cols)
    return losses, (S + problem.n * problem.lambda2 * X[:, grad_cols]) / problem.n


def synth_dataset_whole(n: int, d: int, seed: int, flip_prob: float = 0.0,
                        margin: float = 0.1):
    """``synth_dataset``'s features and labels with the margin shift applied
    to the whole matrix at once, as two new n x d arrays."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD5)))
    X = rng.normal(0.0, 1.0 / np.sqrt(d), size=(n, d))
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    signs = np.where(X @ w >= 0, 1.0, -1.0)
    if margin > 0.0:
        X = X + margin * signs[:, None] * w
    labels = signs.copy()
    if flip_prob > 0.0:
        labels[rng.random(n) < flip_prob] *= -1.0
    return X, labels


def row_norms_sq_whole(X: np.ndarray) -> np.ndarray:
    """Each row's squared norm, summed in column order from zero, from one
    n x d array of squares."""
    sq = np.square(X)
    return np.cumsum(sq, axis=1, out=sq)[:, -1].copy()


def _mlp_forward_whole(problem, X, x):
    """The network's forward pass with a new array per operation."""
    w1, b1, w2, b2 = problem._unpack(x)
    z1 = X @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    logits = a1 @ w2.T + b2
    logits = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(logits), axis=1))
    return z1, a1, logits, log_z


def mlp_objective_whole(problem, x: np.ndarray) -> float:
    """``MLPProblem.objective`` with a new array per operation."""
    X = problem.data.matrix
    _, _, logits, log_z = _mlp_forward_whole(problem, X, x)
    picked = logits[np.arange(problem.n), problem.targets]
    f = float(np.mean(log_z - picked)) + 0.5 * problem.lambda2 * float(x @ x)
    return f + 0.0  # h = 0


def mlp_grad_rows_whole(problem, rows, targets, x: np.ndarray) -> np.ndarray:
    """``MLPProblem``'s summed gradient over ``rows`` with a new array per
    operation and the ReLU mask taken from its input."""
    _, _, w2, _ = problem._unpack(x)
    z1, a1, logits, log_z = _mlp_forward_whole(problem, rows, x)
    probs = np.exp(logits - log_z[:, None])
    probs[np.arange(rows.shape[0]), targets] -= 1.0
    g_w2 = probs.T @ a1
    g_b2 = probs.sum(axis=0)
    back = (probs @ w2) * (z1 > 0.0)
    g_w1 = back.T @ rows
    g_b1 = back.sum(axis=0)
    flat = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])
    return flat + rows.shape[0] * problem.lambda2 * x


def metric_block_stacked(problem, xs, eta: float, gmap_cols: list[int]):
    """One metric block from kept copies of the iterates stacked into a new
    array, a lone iterate twice: (losses, gradient mappings at
    ``gmap_cols``)."""
    from dqsim.problems import gradient_mapping_norm

    stacked = np.array(xs if len(xs) > 1 else xs * 2)
    losses, grads = problem.loss_and_grads(stacked.T, gmap_cols)
    gmaps = [gradient_mapping_norm(problem, xs[j], eta, grads[:, i])
             for i, j in enumerate(gmap_cols)]
    return losses[:len(xs)], gmaps


def prox_bruteforce_1d(value: float, eta: float, lambda1: float,
                       tol: float = 1e-10) -> float:
    """Ternary search for argmin_y lambda1*|y| + (y - value)^2 / (2 eta).

    The objective is strictly convex, so the search converges; the bracket
    always contains the minimizer because the prox shrinks toward zero.
    """
    lo = min(0.0, value) - 1.0
    hi = max(0.0, value) + 1.0

    def obj(y):
        return lambda1 * abs(y) + (y - value) ** 2 / (2.0 * eta)

    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if obj(m1) <= obj(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def prox_bruteforce(v: np.ndarray, eta: float, lambda1: float) -> np.ndarray:
    return np.array([prox_bruteforce_1d(float(c), eta, lambda1) for c in v])


def serial_prox_svrg(problem, epochs: int, m: int, eta: float,
                     batch_size: int, sample_rng: np.random.Generator):
    """Plain single-node variance-reduced proximal descent.

    Draws batches from ``sample_rng`` exactly once per inner step, computes
    the batch gradient difference against the snapshot plus the full snapshot
    gradient, and prox-steps. Returns the per-step iterates (post-update).
    """
    x = np.zeros(problem.d)
    snapshot = x.copy()
    iterates = []
    for _ in range(epochs):
        g_snap = problem.full_grad(snapshot)
        x = snapshot.copy()
        for _ in range(m):
            batch = sample_rng.integers(0, problem.n, size=batch_size)
            u = (problem.grad_batch(batch, x)
                 - problem.grad_batch(batch, snapshot) + g_snap)
            x = problem.prox(eta, x - eta * u)
            iterates.append(x.copy())
        snapshot = x.copy()
    return iterates


def mc_quantize_stats(v: np.ndarray, grid, n_samples: int,
                      rng: np.random.Generator):
    """Monte Carlo mean and mean squared error of the vector quantizer.

    Tiles the vector so each sample flows through the library's vectorized
    sampling path on the exact grid under test; coordinates are independent,
    so the tiled draw gives ``n_samples`` independent quantizations.
    """
    from dqsim.quantizer import quantize_on_grid

    d = v.size
    tiled = np.tile(v, n_samples)
    q = quantize_on_grid(tiled, grid, rng)
    decoded = (q.codes * grid.delta).reshape(n_samples, d)
    err_sq = np.sum((decoded - v) ** 2, axis=1)
    return decoded.mean(axis=0), float(err_sq.mean())


def sparse_to_dense(v: SparseRealVector) -> np.ndarray:
    """The dense vector a sparse one stands for."""
    out = np.zeros(v.dim)
    out[v.indices] = v.values
    return out


def second_moment_expected(alpha, plan: SparsePlan) -> float:
    """Closed-form ``E||beta||^2 = sum over kept-candidates of alpha_i^2 / p_i``.

    Equals ``||alpha||_1^2 / phi`` at the optimal plan and is strictly larger
    for any other plan with the same budget (unless all magnitudes are equal).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size != plan.dim:
        raise ValueError("plan dimension does not match alpha")
    nz = alpha != 0.0
    if np.any(nz & (plan.probs == 0.0)):
        raise ValueError("plan assigns zero probability to a nonzero coordinate")
    return float(np.sum(alpha[nz] ** 2 / plan.probs[nz]))


def load_libsvm_lines(path, d: int | None = None) -> Dataset:
    """``problems.load_libsvm`` as a line-by-line reader, the reference the
    block parser is checked against: the file in text mode, each line's
    tokens from ``str.split``, the label and values from ``float`` and the
    indices from ``int``, one Python number per token."""
    labels = array("d")
    indptr = array("q", [0])
    indices = array("q")
    values = array("d")
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                labels.append(float(parts[0]))
                for tok in parts[1:]:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    if idx < 1:
                        raise ValueError("indices are 1-based")
                    indices.append(idx - 1)
                    values.append(float(val_s))
            except ValueError as exc:
                raise ValueError(f"{path}: malformed line {lineno}: {exc}") from exc
            indptr.append(len(indices))
    if not labels:
        raise ValueError(f"{path}: empty dataset")
    cols = np.frombuffer(indices, dtype=np.int64)
    if d is None:
        d = int(cols.max()) + 1 if cols.size else 0
    if d < 1:
        raise ValueError(f"{path}: dataset has no features; "
                         "pass an explicit dimension")
    try:
        return Dataset(np.frombuffer(indptr, dtype=np.int64), cols,
                       np.frombuffer(values, dtype=np.float64),
                       np.frombuffer(labels, dtype=np.float64), d)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_libsvm(path, data: Dataset) -> None:
    """Emit the text format, a dense-stored row as its nonzero entries, with
    shortest-roundtrip value strings: reading it back gives the same matrix."""
    A = data.matrix
    with open(path, "w") as fh:
        for i in range(data.n):
            if isinstance(A, np.ndarray):
                cols = np.flatnonzero(A[i])
                vals = A[i, cols]
            else:
                lo, hi = A.indptr[i], A.indptr[i + 1]
                cols, vals = A.indices[lo:hi], A.data[lo:hi]
            feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(cols, vals))
            label = data.labels[i]
            label_s = f"{int(label)}" if label == int(label) else repr(float(label))
            fh.write(f"{label_s} {feats}\n".rstrip() + "\n")


def per_kind(ledger) -> dict[str, tuple[int, int]]:
    """``(count, bits)`` of each kind a ledger recorded, summed from its rows
    in the order the kinds first appear."""
    out: dict[str, tuple[int, int]] = {}
    for row in ledger.rows:
        count, bits = out.get(row.kind, (0, 0))
        out[row.kind] = (count + 1, bits + row.bits)
    return out
