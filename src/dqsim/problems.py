"""Composite objectives P = f + h, datasets, and the gradient-mapping metric.

The smooth part is an average of per-sample losses, ``f = (1/n) sum f_i``,
and the nonsmooth part ``h`` comes with a closed-form proximal operator. Two
workloads are provided: L1/L2-regularized logistic regression (the L2 term
lives inside f so that h is exactly the L1 norm and its prox is the
coordinatewise soft threshold) and a small fully-connected ReLU network with
softmax loss and L2 weight decay (h = 0, prox = identity).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Dataset",
    "CompositeProblem",
    "LogisticProblem",
    "MLPProblem",
    "logistic_problem",
    "mlp_problem",
    "gradient_mapping",
    "gradient_mapping_norm",
    "soft_threshold",
    "load_libsvm",
    "write_libsvm",
    "synth_dataset",
    "synth_multiclass_dataset",
]

# Row count * dim below which a dense feature cache is kept for fast batches.
_DENSE_CACHE_LIMIT = 20_000_000


class Dataset:
    """Row-sparse dataset (CSR index arrays) with one label per row."""

    def __init__(self, indptr, indices, values, labels, d: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        self.d = int(d)
        self.n = self.labels.size
        if self.n < 1:
            raise ValueError("dataset must contain at least one row")
        if self.indptr.shape != (self.n + 1,):
            raise ValueError("indptr length must be n + 1")
        if self.indices.size and self.indices.max() >= self.d:
            raise ValueError("feature index exceeds dimension")
        if self.indices.size and self.indices.min() < 0:
            raise ValueError("negative feature index")
        counts = np.diff(self.indptr)
        self._row_of = np.repeat(np.arange(self.n), counts)
        self._dense: np.ndarray | None = None

    @classmethod
    def from_dense(cls, X, labels) -> "Dataset":
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        indptr = np.arange(n + 1, dtype=np.int64) * d
        indices = np.tile(np.arange(d, dtype=np.int64), n)
        return cls(indptr, indices, X.ravel(), labels, d)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            X = np.zeros((self.n, self.d))
            X[self._row_of, self.indices] = self.values
            self._dense = X
        return self._dense

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A @ x for the full matrix."""
        prods = self.values * x[self.indices]
        return np.bincount(self._row_of, weights=prods, minlength=self.n)

    def tdot(self, w: np.ndarray) -> np.ndarray:
        """A.T @ w for the full matrix."""
        prods = self.values * w[self._row_of]
        return np.bincount(self.indices, weights=prods, minlength=self.d)

    def row_norms_sq(self) -> np.ndarray:
        return np.bincount(self._row_of, weights=self.values**2, minlength=self.n)

    def _use_dense(self) -> bool:
        return self.n * self.d <= _DENSE_CACHE_LIMIT


def soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


class CompositeProblem:
    """Interface shared by the workloads.

    Subclasses set ``n``, ``d`` and ``smoothness`` (an estimated Lipschitz
    constant of each per-sample gradient, or None when no sound estimate
    exists) and implement the f/h/prox family below. Instances are immutable
    after construction; gradient evaluation is reentrant.
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

    def grad_sample(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_batch(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Mean per-sample gradient over an index batch."""
        raise NotImplementedError

    def grad_range_sum(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        """Sum of per-sample gradients over rows [lo, hi); the map step of the
        epoch barrier. ``full_grad`` is this over all rows divided by n."""
        raise NotImplementedError

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        return self.grad_range_sum(0, self.n, x) / self.n

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
        self._X = data.dense() if data._use_dense() else None

    @staticmethod
    def _sigmoid_neg(m: np.ndarray) -> np.ndarray:
        """1 / (1 + exp(m)), computed stably for any m."""
        return np.exp(-np.logaddexp(0.0, m))

    def f_value(self, x: np.ndarray) -> float:
        margins = self.y * self.data.dot(x)
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        return loss + 0.5 * self.lambda2 * float(x @ x)

    def h_value(self, x: np.ndarray) -> float:
        return self.lambda1 * float(np.sum(np.abs(x)))

    def _coeffs(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        # d/dm log(1+exp(-m)) = -sigmoid(-m), chain rule through m = y a.x
        return -y * self._sigmoid_neg(margins)

    def grad_sample(self, i: int, x: np.ndarray) -> np.ndarray:
        lo, hi = self.data.indptr[i], self.data.indptr[i + 1]
        idx, vals = self.data.indices[lo:hi], self.data.values[lo:hi]
        margin = self.y[i] * float(vals @ x[idx])
        c = float(self._coeffs(np.asarray(margin), self.y[i]))
        g = self.lambda2 * x.copy()
        g[idx] += c * vals
        return g

    def grad_batch(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if self._X is not None:
            rows = self._X[idx]
            margins = self.y[idx] * (rows @ x)
            c = self._coeffs(margins, self.y[idx])
            return (c @ rows) / idx.size + self.lambda2 * x
        g = self.lambda2 * x.copy() * idx.size
        for i in idx:
            lo, hi = self.data.indptr[i], self.data.indptr[i + 1]
            cols, vals = self.data.indices[lo:hi], self.data.values[lo:hi]
            margin = self.y[i] * float(vals @ x[cols])
            g[cols] += float(self._coeffs(np.asarray(margin), self.y[i])) * vals
        return g / idx.size

    def grad_range_sum(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        if self._X is not None:
            rows = self._X[lo:hi]
            margins = self.y[lo:hi] * (rows @ x)
            c = self._coeffs(margins, self.y[lo:hi])
            return c @ rows + (hi - lo) * self.lambda2 * x
        p0, p1 = self.data.indptr[lo], self.data.indptr[hi]
        cols = self.data.indices[p0:p1]
        vals = self.data.values[p0:p1]
        rows_of = self.data._row_of[p0:p1] - lo
        margins = self.y[lo:hi] * np.bincount(
            rows_of, weights=vals * x[cols], minlength=hi - lo
        )
        c = self._coeffs(margins, self.y[lo:hi])
        g = np.bincount(cols, weights=vals * c[rows_of], minlength=self.d)
        return g + (hi - lo) * self.lambda2 * x

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
                 num_classes: int | None = None):
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
        self._X = data.dense()

    def init_params(self, seed: int = 0, scale: float = 0.1) -> np.ndarray:
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, scale / np.sqrt(self.d_in), self._sizes[0])
        w2 = rng.normal(0.0, scale / np.sqrt(self.hidden), self._sizes[2])
        return np.concatenate([w1, np.zeros(self._sizes[1]), w2,
                               np.zeros(self._sizes[3])])

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

    def grad_sample(self, i: int, x: np.ndarray) -> np.ndarray:
        return self._grad_rows(self._X[i:i + 1], self.targets[i:i + 1], x)

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
                num_classes: int | None = None) -> MLPProblem:
    return MLPProblem(data, hidden=hidden, lambda2=lambda2,
                      num_classes=num_classes)


def gradient_mapping(problem: CompositeProblem, x: np.ndarray,
                     eta: float) -> np.ndarray:
    """Proximal-gradient residual (x - prox(eta, x - eta grad f(x))) / eta.

    Reduces to grad f when h = 0 and vanishes exactly at composite
    stationary points; its squared norm is the convergence metric.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    return (x - problem.prox(eta, x - eta * problem.full_grad(x))) / eta


def gradient_mapping_norm(problem: CompositeProblem, x: np.ndarray,
                          eta: float) -> float:
    g = gradient_mapping(problem, x, eta)
    return float(g @ g)


def load_libsvm(path, d: int | None = None) -> Dataset:
    """Parse the sparse ``label index:value`` text format (1-based indices).

    The dimension is the largest index seen unless ``d`` overrides it.
    Malformed lines raise with their line number.
    """
    labels: list[float] = []
    indptr: list[int] = [0]
    indices: list[int] = []
    values: list[float] = []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
                for tok in parts[1:]:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    if idx < 1:
                        raise ValueError("indices are 1-based")
                    indices.append(idx - 1)
                    values.append(float(val_s))
                    max_idx = max(max_idx, idx)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed line {lineno}: {exc}") from exc
            indptr.append(len(indices))
    if not labels:
        raise ValueError(f"{path}: empty dataset")
    dim = max_idx if d is None else d
    if dim < 1:
        raise ValueError("dataset has no features; pass an explicit dimension")
    return Dataset(indptr, indices, values, labels, dim)


def write_libsvm(path, data: Dataset) -> None:
    """Emit the text format with shortest-roundtrip value strings, so reading
    the file back reproduces every stored value exactly."""
    with open(path, "w") as fh:
        for i in range(data.n):
            lo, hi = data.indptr[i], data.indptr[i + 1]
            feats = " ".join(
                f"{int(j) + 1}:{float(v)!r}"
                for j, v in zip(data.indices[lo:hi], data.values[lo:hi])
            )
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
