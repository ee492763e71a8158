"""The benchmark's workloads: configs, rationale and seeded input generation.

Each workload drives the same harness path as ``dqsim compare``: a list of
configs that share one problem section and differ only in the algorithm.
The workload seed becomes the dataset seed and the run seed, so the program
only ever sees generated inputs. Why each workload exists is its ``why`` in
BENCHMARK.json; ``loads`` and ``bypasses`` name the layers (modules of
``src/dqsim``) it is meant to stress or skip, so that later changes can say
which numbers should move where.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# Settings shared by the two logistic workloads. Two epochs, because widening
# of the model width (choose_bx) only starts in the second.
_LOGREG_ALGO = {"epochs": 2, "m": 100, "tau": 4, "batch_size": 50, "eta": 1.0,
                "b_x": 8, "b": 8, "mu": 0.1}
_LOGREG_WORKERS = {"count": 4, "latency": {"kind": "uniform", "low": 1, "high": 3}}


@dataclass(frozen=True)
class Workload:
    name: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    algos: tuple[str, ...]
    problem: dict
    algo: dict
    workers: dict
    # Full-batch oracle iterations behind the "auto" loss target (set-up cost).
    oracle_iters: int
    # (rows, dim, nonzeros per row) of the libsvm file the benchmark writes.
    libsvm: Optional[tuple[int, int, int]] = None

    def generate_configs(self, seed: int, inputs_dir: Path,
                         out_dir: Path) -> list[dict]:
        """Write the seeded inputs; return one raw config per algorithm for
        ``parse_config``."""
        problem = dict(self.problem, seed=seed)
        if self.libsvm is not None:
            problem["path"] = str(write_libsvm_input(inputs_dir, seed, *self.libsvm))
        return [
            {
                "problem": problem,
                "algo": dict(self.algo, algo=algo, seed=seed),
                "workers": self.workers,
                "run": {"out_dir": str(out_dir / algo), "loss_target": "auto",
                        "oracle_iters": self.oracle_iters},
            }
            for algo in self.algos
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="logreg_dense",
            loads=("problems (dense objective, gradient mapping, grad_range_sum)",
                   "full-batch oracle in set-up"),
            bypasses=("sparsifier", "CSR kernels", "load_libsvm"),
            algos=("asyfpg", "asylpg", "acc_asylpg"),
            problem={"kind": "synth_logistic", "n": 5000, "d": 300,
                     "lambda1": 1e-5, "lambda2": 1e-4},
            algo=_LOGREG_ALGO,
            workers=_LOGREG_WORKERS,
            oracle_iters=50,
        ),
        Workload(
            name="logreg_csr",
            loads=("problems (CSR dot, grad_batch loop, grad_range_sum)",
                   "problems.load_libsvm", "sparsifier", "codec (sparse)",
                   "quantizer (d=2000)"),
            bypasses=("dense feature cache", "momentum"),
            algos=("asylpg", "sparse_asylpg"),
            problem={"kind": "libsvm_logistic", "lambda1": 1e-5, "lambda2": 1e-4},
            algo=_LOGREG_ALGO,
            workers=_LOGREG_WORKERS,
            oracle_iters=50,
            libsvm=(20_000, 2_000, 20),
        ),
    )
}


def write_libsvm_input(inputs_dir: Path, seed: int, n: int, d: int, nnz: int) -> Path:
    """Write a seeded binary-classification libsvm file and return its path.

    Each row has ``nnz`` distinct columns with N(0, 1/nnz) values, so squared
    row norms sit near 1, and is labelled by the sign of a planted separator.
    Values are written with six decimals; the parser reads them back as is.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC5)))
    w = rng.normal(size=d)
    lines = []
    for lo in range(0, n, 1000):
        rows = min(1000, n - lo)
        cols = np.sort(np.argpartition(rng.random((rows, d)), nnz, axis=1)[:, :nnz],
                       axis=1)
        vals = rng.normal(0.0, 1.0 / np.sqrt(nnz), size=(rows, nnz))
        labels = np.where(np.sum(vals * w[cols], axis=1) >= 0.0, 1, -1)
        for y, cs, vs in zip(labels.tolist(), cols.tolist(), vals.tolist()):
            feats = " ".join(f"{c + 1}:{v:.6f}" for c, v in zip(cs, vs))
            lines.append(f"{y} {feats}\n")
    path = Path(inputs_dir) / f"csr-n{n}-d{d}-seed{seed}.svm"
    path.write_text("".join(lines))
    return path
