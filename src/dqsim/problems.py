"""Composite objectives P = f + h, datasets, and the gradient-mapping metric.

The smooth part is an average of per-sample losses, ``f = (1/n) sum f_i``,
and the nonsmooth part ``h`` comes with a closed-form proximal operator. Two
workloads are provided: L1/L2-regularized logistic regression (the L2 term
lives inside f so that h is exactly the L1 norm and its prox is the
coordinatewise soft threshold) and a small fully-connected ReLU network with
softmax loss and L2 weight decay (h = 0, prox = identity).

``Dataset`` stores its matrix once, in the storage its input arrives in:
CSR arrays (``Dataset(indptr, indices, values, labels, d)``, so every
``load_libsvm`` file) as a scipy CSR array, and a dense array
(``Dataset.from_dense``, so every synthetic dataset) as that array, whatever
its size. A column named twice in a CSR row holds the sum of its entries.
scipy is imported for CSR storage only (about 22 MB and 0.2 s a process), so
a libsvm file of any size loads it. ``Dataset.dot`` and ``Dataset.tdot``
take a row slice: the whole matrix or a row range (the metrics, the set-up
oracle and the epoch barrier), on CSR through scipy's compiled
``csr_matvec``/``csc_matvec`` or, on a block of columns,
``csr_matvecs``/``csc_matvecs``. An index batch of rows is gathered once
through ``Dataset.gather`` (a worker's ``grad_batch_diff`` makes one for its
two points), whose products on CSR are weighted ``np.bincount`` calls. All
sum each output in the same order, so they give the same bits. The logistic
kernels use only those products; the MLP reads the stored matrix directly.

The full-data values have one method, ``loss_and_grads``: the objective at
each column of a block of iterates and the full gradient at the columns
asked for. The metrics and the set-up oracle both use it. By default it
evaluates one column at a time through ``objective`` and ``full_grad``.
``LogisticProblem.loss_and_grads`` takes one product ``A @ X``, a shared
``log1p(exp(-|m|))`` pass per column, on that column as a contiguous row
of the transposed product, from which ``f_value`` also takes the loss, and
one ``A.T @ W`` over the gradient columns. Its gradients round
differently from ``full_grad``, whose training kernel keeps ``logaddexp``,
and on dense storage a block's GEMM columns round differently from the
vector products. Runs, the loss-target oracle and its start objective all
begin at the problem's ``initial_point``.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = [
    "Dataset",
    "CompositeProblem",
    "LogisticProblem",
    "MLPProblem",
    "logistic_problem",
    "mlp_problem",
    "gradient_mapping_norm",
    "soft_threshold",
    "load_libsvm",
    "write_libsvm",
    "synth_dataset",
    "synth_multiclass_dataset",
]

class Dataset:
    """A matrix with one label per row, stored once in the storage of its
    input: CSR arrays as a scipy CSR array, ``from_dense`` as the dense
    array. Neither is converted to the other. The CSR array wraps the input
    arrays without copying them: they are its ``indptr``, ``indices`` and
    ``values``, which a dense-stored dataset does not have. A gathered batch
    of rows takes the ``bincount``, as scipy's fancy row indexing copies the
    rows first and measured 3-4.5x slower at 50 rows.
    """

    def __init__(self, indptr, indices, values, labels, d: int):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        n, d = np.size(labels), int(d)
        if indptr.shape != (n + 1,):
            raise ValueError("indptr length must be n + 1")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr must not decrease")
        if indptr[-1] != indices.size:
            raise ValueError("indptr must end at the number of indices")
        if values.shape != indices.shape:
            raise ValueError("values and indices must have the same length")
        if not np.isfinite(values).all():
            raise ValueError("feature values must be finite")
        if indices.size and not 0 <= indices.min() <= indices.max() < d:
            raise ValueError("feature index outside [0, d)")
        # imported here, not at module top: scipy adds about 22 MB of
        # memory and 0.2 s to a process, which dense storage never needs
        from scipy.sparse import csr_array

        self._store(csr_array((values, indices, indptr), shape=(n, d)), labels)

    def _store(self, matrix, labels) -> None:
        self.labels = np.asarray(labels, dtype=np.float64)
        self.n, self.d = matrix.shape
        if self.n < 1 or self.d < 1:
            raise ValueError("dataset needs at least one row and one column")
        if self.labels.shape != (self.n,):
            raise ValueError("need one label per row")
        self._dense = matrix if isinstance(matrix, np.ndarray) else None
        if self._dense is None:
            self._csr, self.indptr = matrix, matrix.indptr
            self.indices, self.values = matrix.indices, matrix.data

    @classmethod
    def from_dense(cls, X, labels) -> "Dataset":
        """Dense storage keeps a C-contiguous float64 ``X`` itself, no copy."""
        data = cls.__new__(cls)
        data._store(np.ascontiguousarray(X, dtype=np.float64), labels)
        return data

    @property
    def matrix(self):
        """The stored matrix: the dense array or the scipy CSR array."""
        return self._csr if self._dense is None else self._dense

    def dense(self) -> np.ndarray:
        """The matrix as a dense array, a new one on CSR storage."""
        return self._dense if self._dense is not None else self._csr.toarray()

    def dot(self, x: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """A[rows] @ x for a row slice ``rows`` (the default is the whole
        matrix) and a vector or d x K block ``x``. On CSR a row range slices
        ``A @ x``. An index batch of rows goes through ``gather``."""
        if self._dense is not None:
            return self._dense[rows] @ x
        return (self._csr @ x)[rows]

    def tdot(self, w: np.ndarray, rows: slice = slice(None),
             cols=None) -> np.ndarray:
        """A[rows].T @ w, with ``rows`` a row slice and ``w`` a vector or
        n x K block as in ``dot``. ``cols`` picks columns of a block. Dense
        storage multiplies the whole block, as a narrower GEMM rounds
        differently, and picks the columns after. CSR multiplies only those,
        each with the bits of its vector product, and a row range as the
        whole transpose times ``w`` placed in zeros at the range."""
        if self._dense is not None:
            out = self._dense[rows].T @ w
            return out if cols is None else out[:, cols]
        if cols is not None:
            w = w[:, cols]
        if range(*rows.indices(self.n)) != range(self.n):  # else no copy
            full = np.zeros((self.n,) + w.shape[1:])
            full[rows] = w
            w = full
        return self._csr.T @ w  # .T is a CSC view, no copy

    def gather(self, rows) -> "RowBatch":
        """A[rows] for an array of row indices, repeats allowed, gathered
        once, for any number of products. On CSR the batch holds its
        entries: (row position in ``rows``, column, value) per entry, plus
        the row count."""
        if self._dense is not None:
            return RowBatch(self._dense[rows], None, self.d)
        idx = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[idx]
        counts = self.indptr[idx + 1] - starts
        row_ids = np.repeat(np.arange(idx.size), counts)
        offsets = np.cumsum(counts) - counts
        pos = np.repeat(starts - offsets, counts) + np.arange(row_ids.size)
        entries = row_ids, self.indices[pos], self.values[pos], idx.size
        return RowBatch(None, entries, self.d)

    def row_norms_sq(self) -> np.ndarray:
        """Each row's squared norm, summed in column order from zero."""
        if self._dense is not None:
            sq = np.square(self._dense)
            return np.cumsum(sq, axis=1, out=sq)[:, -1].copy()
        A = self._csr if self._csr.has_canonical_format else self._csr.copy()
        A.sum_duplicates()  # a no-op on sorted rows without repeats
        sq = type(A)((np.square(A.data), A.indices, A.indptr), shape=A.shape)
        return sq @ np.ones(self.d)


class RowBatch:
    """Rows of a dataset gathered by ``Dataset.gather``: the dense rows, or
    on CSR their entries, which ``dot`` multiplies by one weighted
    ``bincount`` and ``tdot`` by another. No scipy object is built: its
    construction costs more than the gather it would save."""

    def __init__(self, rows, entries, d: int):
        self._rows, self._entries, self._d = rows, entries, d

    def dot(self, x: np.ndarray) -> np.ndarray:
        """The rows times a vector."""
        if self._rows is not None:
            return self._rows @ x
        row_ids, cols, vals, k = self._entries
        return np.bincount(row_ids, weights=vals * x[cols], minlength=k)

    def tdot(self, w: np.ndarray) -> np.ndarray:
        """The rows' transpose times a vector, one entry per row."""
        if self._rows is not None:
            return self._rows.T @ w
        row_ids, cols, vals, _ = self._entries
        return np.bincount(cols, weights=vals * w[row_ids], minlength=self._d)


_TRANSPOSE_SLICE = 1024  # rows of the n x K side copied at a time


def _transposed(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``M.T`` as a C-contiguous array: ``M.T`` itself when it already is
    (the transpose of a one-column product), else a copy into ``out`` or a
    new array. The copy goes in slices of the long side, which stay in
    cache: 1.3 ms against 3.9 ms for ``np.ascontiguousarray(M.T)`` at
    20000 x 32."""
    if M.T.flags.c_contiguous:
        return M.T
    if out is None:
        out = np.empty(M.shape[::-1])
    for lo in range(0, max(M.shape), _TRANSPOSE_SLICE):
        part = slice(lo, lo + _TRANSPOSE_SLICE)
        if M.shape[0] >= M.shape[1]:
            out[:, part] = M[part].T
        else:
            out[part] = M[:, part].T
    return out


def soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


class CompositeProblem:
    """Interface shared by the workloads.

    Subclasses set ``n``, ``d`` and ``smoothness`` (an estimated Lipschitz
    constant of each per-sample gradient, or None when no sound estimate
    exists) and implement the f/h/prox family below. Instances are immutable
    after construction.

    A worker differentiates through ``grad_batch_diff(idx, x, snapshot)``:
    the batch gradient at the received model minus the one at the snapshot,
    on one batch. By default it makes the two ``grad_batch`` calls; the
    logistic problem gathers the batch once for both, with the same bits.
    """

    n: int
    d: int
    smoothness: float | None

    def f_value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def h_value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def objective(self, x: np.ndarray) -> float:
        return self.f_value(x) + self.h_value(x)

    def grad_batch(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Mean per-sample gradient over an index batch."""
        raise NotImplementedError

    def grad_batch_diff(self, idx: np.ndarray, x: np.ndarray,
                        snapshot: np.ndarray) -> np.ndarray:
        """``grad_batch(idx, x) - grad_batch(idx, snapshot)``, with its bits:
        a worker's variance-reduced gradient on one batch. A subclass may
        gather the batch once for both points."""
        return self.grad_batch(idx, x) - self.grad_batch(idx, snapshot)

    def grad_range_sum(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        """Sum of per-sample gradients over rows [lo, hi); the map step of the
        epoch barrier. ``full_grad`` is this over all rows divided by n."""
        raise NotImplementedError

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        return self.grad_range_sum(0, self.n, x) / self.n

    def initial_point(self) -> np.ndarray:
        """Where every run, the loss-target oracle and the start objective
        begin: the origin, unless the problem has a better start."""
        return np.zeros(self.d)

    def loss_and_grads(self, X: np.ndarray, grad_cols: list[int]):
        """The objective at each column of a d x K block ``X``, as a list,
        and the full gradient at the columns listed in ``grad_cols``, as a
        d x len(grad_cols) array: the metrics and the set-up oracle's step.

        Evaluates one column at a time, with the bits of ``objective`` and
        ``full_grad``; a subclass may do the block at once."""
        grads = np.empty((self.d, len(grad_cols)))
        for i, j in enumerate(grad_cols):
            grads[:, i] = self.full_grad(X[:, j])
        return [self.objective(X[:, j]) for j in range(X.shape[1])], grads

    def prox(self, eta: float, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LogisticProblem(CompositeProblem):
    """Binary logistic loss with L2 inside f and h = lambda1 * ||x||_1.

    Per-sample smooth part: log(1 + exp(-y_i <a_i, x>)) + (lambda2/2)||x||^2.
    The smoothness estimate is max_i ||a_i||^2 / 4 + lambda2 (sigmoid curvature
    bound). An optional box radius adds an inf-norm constraint to h; its prox
    composes the soft threshold with a clip, which is exact because both parts
    are separable and the projection is monotone.
    """

    def __init__(self, data: Dataset, lambda1: float, lambda2: float,
                 box_radius: float | None = None):
        labels = np.unique(data.labels)
        if labels.size > 2 or not np.all(np.isin(labels, (-1.0, 0.0, 1.0))):
            raise ValueError(f"labels must be binary (+-1 or 0/1), got {labels}")
        self.data = data
        self.y = np.where(data.labels > 0, 1.0, -1.0)
        self.lambda1 = float(lambda1)
        self.lambda2 = float(lambda2)
        self.box_radius = box_radius
        self.n = data.n
        self.d = data.d
        self.smoothness = float(np.max(data.row_norms_sq())) / 4.0 + self.lambda2

    def f_value(self, x: np.ndarray) -> float:
        return self._margin_pass(x[:, None])[0][0]

    def h_value(self, x: np.ndarray) -> float:
        return self.lambda1 * float(np.sum(np.abs(x)))

    @staticmethod
    def _loss_coefficients(y: np.ndarray, products: np.ndarray) -> np.ndarray:
        """Each row's loss-gradient coefficient -y sigmoid(-y a.x), the L2
        term left out, from the rows' labels ``y`` and products ``a.x``."""
        # d/dm log(1+exp(-m)) = -sigmoid(-m), chain rule through m = y a.x,
        # with sigmoid(-m) = exp(-log(1 + exp(m))) computed stably for any m
        return -y * np.exp(-np.logaddexp(0.0, y * products))

    def _batch_grad(self, batch: RowBatch, y: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
        """``grad_batch`` at x on a gathered batch with labels ``y``."""
        c = self._loss_coefficients(y, batch.dot(x))
        return batch.tdot(c) / y.size + self.lambda2 * x

    def grad_batch(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return self._batch_grad(self.data.gather(idx), self.y[idx], x)

    def grad_batch_diff(self, idx: np.ndarray, x: np.ndarray,
                        snapshot: np.ndarray) -> np.ndarray:
        """As the base method, with the batch gathered once for both points,
        where two ``grad_batch`` calls gather it four times."""
        idx = np.asarray(idx, dtype=np.int64)
        batch, y = self.data.gather(idx), self.y[idx]
        return self._batch_grad(batch, y, x) - self._batch_grad(batch, y, snapshot)

    def grad_range_sum(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        rows = slice(lo, hi)
        c = self._loss_coefficients(self.y[rows], self.data.dot(x, rows))
        return self.data.tdot(c, rows) + (hi - lo) * self.lambda2 * x

    def _margin_pass(self, X: np.ndarray) -> tuple[list[float], np.ndarray]:
        """f at each column of a d x K block ``X``, from one product
        ``A @ X``, and that product with each column overwritten in place
        by its loss-gradient coefficients -y sigmoid(-m). Each column's
        reductions run on its own 1-D arrays.

        The n x K product is transposed once so that each column is a
        contiguous row, worked on row by row (a whole-block pass has the
        same bits but its temporaries fall out of cache), and transposed
        back into the product."""
        G = self.data.dot(X)
        T = _transposed(G)
        fs = []
        for g, x in zip(T, X.T):
            margins = self.y * g
            # log(1 + exp(-+m)) = max(-+m, 0) + log1p(exp(-|m|)): the loss
            # and sigmoid(-m) = exp(-log(1 + exp(m))) share one vectorized
            # pass, where logaddexp would take two scalar ones
            soft = np.log1p(np.exp(-np.abs(margins)))
            fs.append(float(np.mean(np.maximum(-margins, 0.0) + soft))
                      + 0.5 * self.lambda2 * float(x @ x))
            g[:] = -self.y * np.exp(-(np.maximum(margins, 0.0) + soft))
        return fs, _transposed(T, out=G)

    def loss_and_grads(self, X: np.ndarray, grad_cols: list[int]):
        """As ``CompositeProblem.loss_and_grads``, on either storage, from
        one product ``A @ X`` and one ``A.T @ W`` over ``grad_cols`` only,
        so a loss-only column costs no transposed product. The loss matches
        ``objective``; the gradients match ``full_grad`` up to the rounding
        of the shared pass and, on dense storage, of the GEMM columns."""
        fs, G = self._margin_pass(X)
        losses = [f + self.h_value(X[:, j]) for j, f in enumerate(fs)]
        if not grad_cols:
            return losses, np.empty((self.d, 0))
        every = len(grad_cols) == X.shape[1]  # then no pick, no copy
        S = self.data.tdot(G, cols=None if every else grad_cols)
        return losses, (S + self.n * self.lambda2 * X[:, grad_cols]) / self.n

    def prox(self, eta: float, v: np.ndarray) -> np.ndarray:
        out = soft_threshold(v, eta * self.lambda1)
        if self.box_radius is not None:
            out = np.clip(out, -self.box_radius, self.box_radius)
        return out


class MLPProblem(CompositeProblem):
    """One-hidden-layer ReLU network with softmax loss over class labels.

    Parameters are a single flat vector [W1, b1, W2, b2]; the L2 penalty
    (lambda2/2)||params||^2 is folded into f, so h = 0 and prox is the
    identity. No global smoothness estimate is exposed (ReLU networks are not
    globally Lipschitz-smooth), so theory-mode step sizes are unavailable.
    """

    def __init__(self, data: Dataset, hidden: int = 100, lambda2: float = 1e-4,
                 num_classes: int | None = None, init_seed: int = 0):
        labels = data.labels
        if np.any(labels != np.round(labels)) or labels.min() < 0:
            raise ValueError("MLP labels must be nonnegative class indices")
        self.data = data
        self.targets = labels.astype(np.int64)
        self.hidden = int(hidden)
        self.lambda2 = float(lambda2)
        self.num_classes = int(num_classes if num_classes is not None
                               else self.targets.max() + 1)
        if self.targets.max() >= self.num_classes:
            raise ValueError("class label out of range")
        self.n = data.n
        self.d_in = data.d
        h, c = self.hidden, self.num_classes
        self._shapes = [(h, self.d_in), (h,), (c, h), (c,)]
        self._sizes = [int(np.prod(s)) for s in self._shapes]
        self.d = int(sum(self._sizes))
        self.smoothness = None
        self.init_seed = int(init_seed)
        self._X = data.matrix

    def init_params(self, seed: int = 0, scale: float = 0.1) -> np.ndarray:
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, scale / np.sqrt(self.d_in), self._sizes[0])
        w2 = rng.normal(0.0, scale / np.sqrt(self.hidden), self._sizes[2])
        return np.concatenate([w1, np.zeros(self._sizes[1]), w2,
                               np.zeros(self._sizes[3])])

    def initial_point(self) -> np.ndarray:
        """Seeded small weights: from all-zero weights every ReLU is dead
        and only the output bias would learn."""
        return self.init_params(self.init_seed)

    def _unpack(self, x: np.ndarray):
        parts = np.split(x, np.cumsum(self._sizes)[:-1])
        return [p.reshape(s) for p, s in zip(parts, self._shapes)]

    def _forward(self, X: np.ndarray, x: np.ndarray):
        w1, b1, w2, b2 = self._unpack(x)
        z1 = X @ w1.T + b1
        a1 = np.maximum(z1, 0.0)
        logits = a1 @ w2.T + b2
        logits = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.sum(np.exp(logits), axis=1))
        return z1, a1, logits, log_z

    def f_value(self, x: np.ndarray) -> float:
        _, _, logits, log_z = self._forward(self._X, x)
        picked = logits[np.arange(self.n), self.targets]
        return float(np.mean(log_z - picked)) + 0.5 * self.lambda2 * float(x @ x)

    def h_value(self, x: np.ndarray) -> float:
        return 0.0

    def _grad_rows(self, rows: np.ndarray, targets: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
        """Sum over the given rows of per-sample loss gradients plus
        count * lambda2 * x."""
        w1, b1, w2, b2 = self._unpack(x)
        z1, a1, logits, log_z = self._forward(rows, x)
        probs = np.exp(logits - log_z[:, None])
        probs[np.arange(rows.shape[0]), targets] -= 1.0
        g_w2 = probs.T @ a1
        g_b2 = probs.sum(axis=0)
        back = (probs @ w2) * (z1 > 0.0)
        g_w1 = back.T @ rows
        g_b1 = back.sum(axis=0)
        flat = np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])
        return flat + rows.shape[0] * self.lambda2 * x

    def grad_batch(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return self._grad_rows(self._X[idx], self.targets[idx], x) / idx.size

    def grad_range_sum(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        return self._grad_rows(self._X[lo:hi], self.targets[lo:hi], x)

    def prox(self, eta: float, v: np.ndarray) -> np.ndarray:
        return v


def logistic_problem(data: Dataset, lambda1: float, lambda2: float,
                     box_radius: float | None = None) -> LogisticProblem:
    return LogisticProblem(data, lambda1, lambda2, box_radius=box_radius)


def mlp_problem(data: Dataset, hidden: int = 100, lambda2: float = 1e-4,
                num_classes: int | None = None, init_seed: int = 0) -> MLPProblem:
    return MLPProblem(data, hidden=hidden, lambda2=lambda2,
                      num_classes=num_classes, init_seed=init_seed)


def gradient_mapping_norm(problem: CompositeProblem, x: np.ndarray,
                          eta: float, grad: np.ndarray | None = None) -> float:
    """Squared norm of the proximal-gradient residual
    (x - prox(eta, x - eta grad f(x))) / eta.

    The residual reduces to grad f when h = 0 and vanishes exactly at
    composite stationary points; its squared norm is the convergence metric.
    The metrics pass ``grad``, grad f(x) from their block; without it the
    function computes ``full_grad(x)`` and is the plain reference the metric
    path is checked against.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if grad is None:
        grad = problem.full_grad(x)
    g = (x - problem.prox(eta, x - eta * grad)) / eta
    return float(g @ g)


def load_libsvm(path, d: int | None = None) -> Dataset:
    """Parse the sparse ``label index:value`` text format (1-based indices).

    The dimension is the largest index seen unless ``d`` overrides it.
    Malformed lines raise with their line number, and a file the
    ``Dataset`` rejects (a NaN or infinite value, say) with its path. The
    entries go into typed buffers, not lists of Python numbers, and the
    ``Dataset`` reads them in place, so a large file never holds one Python
    object per entry.
    """
    labels = array("d")
    indptr = array("q", [0])
    indices = array("q")
    values = array("d")
    add_index, add_value = indices.append, values.append  # once per entry
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
                    add_index(idx - 1)
                    add_value(float(val_s))
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


def synth_dataset(n: int, d: int, seed: int, flip_prob: float = 0.0,
                  margin: float = 0.1) -> Dataset:
    """Gaussian features with labels from a planted separator.

    Rows are N(0, 1/d) so squared row norms concentrate near 1; labels are the
    sign of the planted margin. Each row is shifted along the separator so
    its margin magnitude is at least ``margin`` (0 leaves the raw Gaussian
    margins, which pile up near zero and make the problem much harder to fit).
    Labels are then flipped independently with ``flip_prob`` (0.5 makes them
    independent of the features). Same seed, same dataset.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD5)))
    X = rng.normal(0.0, 1.0 / np.sqrt(d), size=(n, d))
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    signs = np.where(X @ w >= 0, 1.0, -1.0)
    if margin > 0.0:
        X = X + margin * signs[:, None] * w
    labels = signs.copy()
    if flip_prob > 0.0:
        flips = rng.random(n) < flip_prob
        labels[flips] *= -1.0
    return Dataset.from_dense(X, labels)


def synth_multiclass_dataset(n: int, d: int, classes: int, seed: int) -> Dataset:
    """Gaussian features labelled by the argmax of a planted linear map."""
    if classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD6)))
    X = rng.normal(0.0, 1.0, size=(n, d))
    W = rng.normal(size=(classes, d))
    labels = np.argmax(X @ W.T, axis=1).astype(np.float64)
    return Dataset.from_dense(X, labels)
