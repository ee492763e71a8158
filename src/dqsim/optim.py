"""Variance-reduced proximal algorithms under double quantization.

Six algorithms share one epoch skeleton: a synchronous full-batch gradient at
the snapshot, then ``m`` asynchronous inner updates driven by the simulator.
Per inner update the master broadcasts the current iterate (snapshot flag /
quantized / full precision, by algorithm), a worker computes the per-batch
gradient difference against the snapshot at the model it received, compresses
it (quantize, sparsify-then-quantize, or neither), and the master applies the
variance-reduced proximal step. Bit width 32 selects the uncompressed path on
either side. The full-precision baselines (asyfpg, acc_asyfpg) send the model
and the gradient in full precision at any width and never send the snapshot
flag.

The momentum variant keeps an auxiliary iterate and recouples the broadcast
iterate toward the previous snapshot with a decaying weight, tightening the
model-precision budget by the same weight.

Model-precision enforcement: the broadcast normally uses the configured model
width, but when the exact expected quantization error would exceed the budget
``mu * ||x - snapshot||^2`` the width is widened (never narrowed) until the
budget holds, degrading to an exact full-precision send if no width suffices.
The iterate is rounded once at the configured width; that rounding gives the
required budget, the budget test and, unless the width widens, the codes,
and a widening search hands back the rounding it accepted. Widening can be
disabled to study fixed-width budget violations instead.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import codec
from .codec import BitLedger, MessageKind, WireMessage
from .problems import CompositeProblem, gradient_mapping_norm
from .quantizer import (
    FULL_PRECISION_BITS,
    QuantGrid,
    SparseLowPrecisionVector,
    choose_bx,
    quantize_vector,
    rounding_for,
)
# Not called here: the benchmark's tracer wraps these names on this module.
from .quantizer import expected_sq_error, mu_required  # noqa: F401
from .simnet import (
    FixedLatency,
    Latency,
    StalenessRecord,
    check_fields,
    epoch_barrier,
    run_inner_loop,
    run_inner_loop_threads,
)
from .sparsifier import budget_max, clamp_budget, optimal_plan, sparsify

__all__ = [
    "Algorithm",
    "AlgoConfig",
    "RunResult",
    "make_streams",
    "run_training",
    "model_message",
    "gradient_message",
    "theory_constants",
    "theory_rho",
    "momentum_weight",
]


class Algorithm(str, enum.Enum):
    ASYLPG = "asylpg"
    SPARSE_ASYLPG = "sparse_asylpg"
    ACC_ASYLPG = "acc_asylpg"
    ASYFPG = "asyfpg"
    ACC_ASYFPG = "acc_asyfpg"
    QSVRG = "qsvrg"


# Recorded iterates evaluated together as one block of metric columns; the
# buffer holds at most this many iterates of dimension d.
_METRIC_BLOCK = 32

_ACCELERATED = {Algorithm.ACC_ASYLPG, Algorithm.ACC_ASYFPG}
_MODEL_QUANTIZED = {Algorithm.ASYLPG, Algorithm.SPARSE_ASYLPG, Algorithm.ACC_ASYLPG}
_GRAD_QUANTIZED = _MODEL_QUANTIZED | {Algorithm.QSVRG}


@dataclass(frozen=True)
class AlgoConfig:
    """Run configuration; field names follow the algorithm inputs. The fields
    and their defaults are also the ``algo`` section of an experiment config."""

    algo: Algorithm = Algorithm.ASYLPG
    epochs: int = 5  # S
    m: int = 20  # inner iterations per epoch
    eta: float = 0.1  # step size (constant mode) or ignored in theory mode
    b_x: int = 8  # model bit width
    b: int = 8  # gradient bit width
    mu: float = 0.1  # model precision-loss budget
    phi: Optional[float] = None  # sparsity budget cap; None = each message's max
    tau: int = 0  # staleness cap
    sigma: float = 2.0  # momentum step-size constant, > 1
    batch_size: int = 1
    seed: int = 0
    eta_mode: str = "constant"  # "constant" or "theory"
    bx_adapt: bool = True  # widen b_x when the precision budget binds
    mu_probe_widths: tuple[int, ...] = ()  # extra widths to log mu_required at
    metric_every: int = 1
    track_grad_mapping: bool = True
    execution: str = "simulated"  # "simulated" (deterministic) or "threads"

    def __post_init__(self):
        check_fields(self, "algo", epochs=1, m=1, mu=0, tau=0, batch_size=1,
                     seed=0, metric_every=1)
        algo = Algorithm(self.algo)
        object.__setattr__(self, "algo", algo)
        widths = self.mu_probe_widths or ()
        if not isinstance(widths, (list, tuple)):
            raise ValueError(f"mu_probe_widths must be a list, got {widths!r}")
        object.__setattr__(self, "mu_probe_widths", tuple(widths))
        for name, width in [("b_x", self.b_x), ("b", self.b),
                            *(("mu_probe_widths", w) for w in widths)]:
            if isinstance(width, bool) or not isinstance(width, numbers.Integral) \
                    or not 2 <= width <= FULL_PRECISION_BITS:
                raise ValueError(f"{name} must be in [2, {FULL_PRECISION_BITS}], "
                                 f"got {width!r}")
        if self.eta_mode not in ("constant", "theory"):
            raise ValueError(f"unknown eta_mode {self.eta_mode!r}")
        if self.eta_mode == "constant" and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.eta_mode == "theory" and algo is Algorithm.SPARSE_ASYLPG \
                and self.phi is None:
            raise ValueError("eta_mode 'theory' for sparse_asylpg needs phi")
        if algo in _ACCELERATED and self.sigma <= 1.0:
            raise ValueError("sigma must exceed 1 for the momentum variant")
        if self.phi is not None and self.phi <= 0:
            raise ValueError("phi must be positive when given")
        if self.execution not in ("simulated", "threads"):
            raise ValueError(f"unknown execution mode {self.execution!r}")


@dataclass
class RunResult:
    metrics: list[dict]  # one row per applied update
    ledger: BitLedger
    broadcasts: list[dict]  # per non-flag quantizing broadcast: mu diagnostics
    output: np.ndarray  # selected output iterate
    final_x: np.ndarray
    final_snapshot: np.ndarray
    violations: int  # transmitted messages breaking the precision budget
    search_failures: int  # width searches that exhausted all widths
    min_grad_mapping_sq: Optional[float]
    eta_used: float | list[float]

    @property
    def final_loss(self) -> float:
        """The last recorded loss; row 0 always records one."""
        return next(row["train_loss"] for row in reversed(self.metrics)
                    if row["train_loss"] is not None)


class _MetricColumns:
    """The iterates the metrics read, evaluated after the fact in blocks.

    Row ``t``'s ``grad_mapping_sq`` is taken at its pre-update iterate and
    its ``train_loss`` at its post-update iterate, which within an epoch is
    row ``t + 1``'s pre-update iterate, so one column serves both. Columns
    are buffered until ``_METRIC_BLOCK`` of them are held, or the epoch (and
    with it ``eta``) ends, and their values land in ``losses`` and
    ``gmaps``, indexed by row. Neither value feeds back into the run.
    """

    def __init__(self, problem: CompositeProblem, rows: int):
        self.problem = problem
        self.losses: list[Optional[float]] = [None] * rows
        self.gmaps: list[Optional[float]] = [None] * rows
        # row j holds column j's iterate, written in place by ``add``
        self._iterates = np.empty((_METRIC_BLOCK, problem.d))
        self._rows: list[tuple[Optional[int], Optional[int]]] = []

    def add(self, x: np.ndarray, eta: float, loss_row: Optional[int],
            gmap_row: Optional[int]) -> None:
        """Record ``x`` as the loss of ``loss_row`` and the gradient mapping
        at ``eta`` of ``gmap_row``; either may be None, and with both None
        nothing is kept."""
        if loss_row is None and gmap_row is None:
            return
        self._iterates[len(self._rows)] = x
        self._rows.append((loss_row, gmap_row))
        if len(self._rows) >= _METRIC_BLOCK:
            self.flush(eta)

    def flush(self, eta: float) -> None:
        """Evaluate every buffered column at ``eta`` with one
        ``loss_and_grads`` call; a column that feeds no gradient mapping
        asks for no gradient."""
        rows, self._rows = self._rows, []
        if not rows:
            return
        # the block X = iterates.T is column-major. A dense GEMM column
        # rounds the same at any block width at 300x20 and 5000x300 (the
        # shapes test_metrics_do_not_depend_on_block_size pins); at other
        # shapes, such as 2000x100, a 2-5 column transposed product rounds
        # differently, so a tail block's metrics depend on where the block
        # is cut, though they stay deterministic for a given config. A
        # single iterate goes in twice, as a one-column product takes the
        # matrix-vector path, which rounds differently
        if len(rows) == 1:
            self._iterates[1] = self._iterates[0]
        iterates = self._iterates[:max(len(rows), 2)]
        mapped = [j for j, (_, gmap_row) in enumerate(rows)
                  if gmap_row is not None]
        losses, grads = self.problem.loss_and_grads(iterates.T, mapped)
        for (loss_row, _), loss in zip(rows, losses):
            if loss_row is not None:
                self.losses[loss_row] = loss
        for i, j in enumerate(mapped):
            self.gmaps[rows[j][1]] = gradient_mapping_norm(
                self.problem, iterates[j], eta, grads[:, i])


def make_streams(seed: int, n_workers: int):
    """Counter-based Philox streams: master, per-worker sampling, per-worker
    latency, output selection, and per-worker compression draws. Each logical
    actor owns its streams, so the trace is a pure function of configuration
    plus seed; keeping sample draws apart from compression draws means a
    quantized run and its full-precision twin consume identical batches."""
    def gen(*key):
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))

    master = gen(seed, 0)
    workers = [gen(seed, 1, i) for i in range(n_workers)]
    latencies = [gen(seed, 2, i) for i in range(n_workers)]
    output = gen(seed, 3)
    compressors = [gen(seed, 4, i) for i in range(n_workers)]
    return master, workers, latencies, output, compressors


def momentum_weight(s: int) -> float:
    """Momentum weight for (1-based) epoch s: 2 / (s + 2)."""
    if s < 1:
        raise ValueError("epoch index is 1-based for the momentum schedule")
    return 2.0 / (s + 2.0)


def _decode(msg: WireMessage, snapshot: np.ndarray) -> np.ndarray:
    """The vector a message carries; a snapshot flag stands for ``snapshot``."""
    if msg.kind is MessageKind.FLAG:
        return snapshot
    if msg.kind is MessageKind.FULL:
        return msg.content
    return msg.content.decode()


def model_message(
    x: np.ndarray,
    snapshot: np.ndarray,
    cfg: AlgoConfig,
    rng: np.random.Generator,
    mu_scale: float = 1.0,
) -> tuple[WireMessage, dict]:
    """Build the master->worker model message and its precision diagnostics.

    ``diag`` holds, in order, ``mu_required`` (at ``b_x``), ``b_x_used``,
    ``violation``, ``search_failed`` and one ``mu_required_b<w>`` per probe
    width; a quantizing broadcast's row is these keys as they stand.
    ``violation`` flags a transmitted message whose exact expected error
    exceeds the budget (possible only with widening disabled); a full
    precision rescue after an exhausted width search is reported separately
    as ``search_failed`` since the constraint then holds trivially.
    """
    diag: dict = {"mu_required": None, "b_x_used": None,
                  "violation": False, "search_failed": False}
    if cfg.algo not in _MODEL_QUANTIZED:
        return codec.encode_full(x), diag
    if np.array_equal(x, snapshot):
        return codec.encode_flag(), diag
    if cfg.b_x >= FULL_PRECISION_BITS:
        diag["b_x_used"] = FULL_PRECISION_BITS
        return codec.encode_full(x), diag

    rounding = rounding_for(x, cfg.b_x)
    if rounding.grid.delta * rounding.grid.code_max >= 2.0**128 * 2**30:
        # even the widest grid's scale, max|x| / (2^30 - 1), is past
        # binary32, so no message carries x, and its error could overflow
        # float64: fail as the send at b_x would
        codec.check_sendable(MessageKind.DENSE, rounding.grid)
    diff_sq = float(np.sum((x - snapshot) ** 2))
    budget = mu_scale * cfg.mu * diff_sq
    diag["mu_required"] = rounding.error / diff_sq
    for width in cfg.mu_probe_widths:
        probe = rounding if width == cfg.b_x else rounding.at(width)
        diag[f"mu_required_b{width}"] = probe.error / diff_sq

    if diag["mu_required"] * diff_sq > budget:
        if cfg.bx_adapt:
            rounding = choose_bx(rounding, budget, cfg.b_x + 1)
        else:
            diag["violation"] = True
    diag["search_failed"] = rounding is None
    diag["b_x_used"] = FULL_PRECISION_BITS if rounding is None else rounding.grid.bits
    if diag["b_x_used"] >= FULL_PRECISION_BITS:
        # widest width, or none holds the budget: exact values hold it
        return codec.encode_full(x), diag
    return codec.encode_dense(rounding.draw(rng)), diag


def gradient_message(
    alpha: np.ndarray, cfg: AlgoConfig, rng: np.random.Generator
) -> WireMessage:
    """Compress one gradient difference for the upstream direction."""
    if cfg.algo is Algorithm.SPARSE_ASYLPG:
        # a zero gradient, or a draw that keeps nothing, sends no entries
        empty = np.zeros(0, dtype=np.int64)
        grid, indices, codes = QuantGrid(0.0, cfg.b), empty, empty
        if np.any(alpha):
            phi = budget_max(alpha) if cfg.phi is None else clamp_budget(alpha, cfg.phi)
            beta = sparsify(alpha, optimal_plan(alpha, phi), rng)
            if beta.nnz:
                q = quantize_vector(beta.values, cfg.b, rng)
                grid, indices, codes = q.grid, beta.indices, q.codes
        return codec.encode_sparse(
            SparseLowPrecisionVector(grid, alpha.size, indices, codes))
    if _gradient_bits(cfg) < FULL_PRECISION_BITS:
        return codec.encode_dense(quantize_vector(alpha, cfg.b, rng))
    return codec.encode_full(alpha)


def _gradient_bits(cfg: AlgoConfig) -> int:
    """Width a gradient travels at: ``b`` where the algorithm quantizes it."""
    return cfg.b if cfg.algo in _GRAD_QUANTIZED else FULL_PRECISION_BITS


def theory_rho(cfg: AlgoConfig, d: int) -> float:
    """Largest step-size ratio rho = eta*L satisfying the inner-loop
    stability condition ``A*rho^2 + rho <= 1`` with
    ``A = (8 m^2 + 2 tau^2) * variance_factor``."""
    factor = _variance_factor(cfg, d)
    a = (8.0 * cfg.m**2 + 2.0 * cfg.tau**2) * factor
    rho = (-1.0 + math.sqrt(1.0 + 4.0 * a)) / (2.0 * a)
    return min(rho, 0.499999)


def _variance_factor(cfg: AlgoConfig, d: int) -> float:
    mu = cfg.mu if cfg.algo in _MODEL_QUANTIZED else 0.0
    if cfg.algo is Algorithm.SPARSE_ASYLPG:
        if cfg.phi is None:
            raise ValueError("sparse stability factor needs a budget phi")
        gamma = _gamma_sparse(d, cfg.phi, cfg.b)
        return (mu + 1.0) * gamma
    return (mu + 1.0) * (_delta_dense(d, _gradient_bits(cfg)) + 2.0)


def _delta_dense(d: int, b: int) -> float:
    """Dense gradient-quantization variance constant; width 32 sends exact
    values, so its constant is 0."""
    if b >= FULL_PRECISION_BITS:
        return 0.0
    return d / (4.0 * ((1 << (b - 1)) - 1) ** 2)


def _gamma_sparse(d: int, phi: float, b: int) -> float:
    m2 = ((1 << (b - 1)) - 1) ** 2
    return d * d / (4.0 * phi * m2) + d / phi + 1.0


def _acc_tau_bound(theta: float, mu: float, delta: float, sigma: float) -> float:
    """Momentum staleness bound at weight ``theta``, from the reported ``delta``."""
    gamma = 1.0 + 2.0 * theta * mu
    base = 2.0 / (gamma * theta) + theta * (4.0 * delta + 2.0)
    return (math.sqrt(base**2 + 4.0 * (sigma - 1.0) / gamma) - base) / 2.0


def theory_constants(cfg: AlgoConfig, problem: CompositeProblem) -> Optional[dict]:
    """Evaluate the stability constants and step-size conditions for a
    configuration: the ``theory`` block of ``report.json``.

    None where the theory does not apply: the problem exposes no smoothness
    estimate, or sparse_asylpg has no budget ``phi``. Emits one pass/fail
    entry per checkable condition. In constant-step mode rho is eta*L for
    the configured eta; theory mode reports the rho that the run would use.
    The momentum variants report the tau bound of each epoch as an
    ``[s, bound]`` pair, in place of the step condition.
    """
    L = problem.smoothness
    if L is None or (cfg.algo is Algorithm.SPARSE_ASYLPG and cfg.phi is None):
        return None
    d = problem.d
    delta = _delta_dense(d, _gradient_bits(cfg))
    report: dict = {"L": L, "d": d, "m": cfg.m, "tau": cfg.tau, "delta": delta}

    if cfg.algo in _ACCELERATED:
        mu = cfg.mu if cfg.algo in _MODEL_QUANTIZED else 0.0
        thetas = [momentum_weight(s) for s in range(1, cfg.epochs + 1)]
        bounds = [[s, _acc_tau_bound(theta, mu, delta, cfg.sigma)]
                  for s, theta in enumerate(thetas, 1)]
        binding_s, binding = min(bounds, key=lambda sb: sb[1])
        report.update(tau_bound_per_epoch=bounds, tau_bound_binding_epoch=binding_s,
                      tau_bound=binding, tau_ok=cfg.tau <= binding, theta=thetas,
                      eta_schedule=_epoch_etas(cfg, L, d))
        return report

    rho = theory_rho(cfg, d) if cfg.eta_mode == "theory" else cfg.eta * L
    report["rho"] = rho
    report["eta"] = rho / L
    factor = _variance_factor(cfg, d)
    lhs = (8.0 * rho**2 * cfg.m**2 + 2.0 * rho**2 * cfg.tau**2) * factor + rho
    key = "step_condition_sparse" if cfg.algo is Algorithm.SPARSE_ASYLPG \
        else "step_condition_dense"
    report[key] = lhs
    report["step_condition_ok"] = lhs <= 1.0 + 1e-12
    if cfg.algo is Algorithm.SPARSE_ASYLPG:
        report["gamma"] = _gamma_sparse(d, cfg.phi, cfg.b)
    # serial unquantized comparison: 4 rho^2 m^2 + rho <= 1
    report["serial_condition"] = 4.0 * rho**2 * cfg.m**2 + rho
    report["serial_condition_ok"] = report["serial_condition"] <= 1.0 + 1e-12
    report["rho_in_range"] = 0.0 < rho < 0.5
    return report


def _epoch_etas(cfg: AlgoConfig, L: Optional[float], d: int) -> list[float]:
    """Step size per epoch (momentum variants decay with the weight)."""
    theory = cfg.eta_mode == "theory"
    if theory and L is None:
        raise ValueError("theory mode needs a smoothness estimate")
    if cfg.algo in _ACCELERATED:
        thetas = [momentum_weight(s) for s in range(1, cfg.epochs + 1)]
        if theory:
            return [1.0 / (cfg.sigma * L * theta) for theta in thetas]
        return [cfg.eta / theta for theta in thetas]
    if theory:
        return [theory_rho(cfg, d) / L] * cfg.epochs
    return [cfg.eta] * cfg.epochs


def run_training(
    problem: CompositeProblem,
    cfg: AlgoConfig,
    workers: Optional[Sequence[Latency]] = None,
) -> RunResult:
    """Train for ``cfg.epochs`` epochs of ``cfg.m`` asynchronous inner updates,
    from the problem's ``initial_point()``.

    ``workers`` holds one latency model per worker, by default a single
    worker at a fixed 1 tick; worker ``i`` is ``workers[i]`` and owns the
    ``i``-th per-worker streams of :func:`make_streams`.

    Deterministic: identical (problem, cfg, workers) produce identical
    metrics, ledger, broadcasts, and output, bit for bit.
    """
    if workers is None:
        workers = [FixedLatency(1)]
    master_rng, worker_rngs, latency_rngs, output_rng, compress_rngs = \
        make_streams(cfg.seed, len(workers))
    accelerated = cfg.algo in _ACCELERATED
    etas = _epoch_etas(cfg, problem.smoothness, problem.d)

    x = problem.initial_point()
    snapshot = x.copy()
    y = snapshot  # momentum auxiliary iterate

    ledger = BitLedger()
    metrics: list[dict] = []
    broadcasts: list[dict] = []

    # Output candidates are the pre-update iterates; draw the uniform index
    # up front and keep only the matching iterate.
    total_T = cfg.epochs * cfg.m
    pick = int(output_rng.integers(0, total_T))
    picked_iterate: Optional[np.ndarray] = None
    columns = _MetricColumns(problem, total_T)

    def gmap_row(t: int) -> Optional[int]:
        """Row ``t`` of this epoch when it records a gradient mapping."""
        gt = epoch * cfg.m + t
        if t < cfg.m and cfg.track_grad_mapping and gt % cfg.metric_every == 0:
            return gt
        return None

    # The step functions read the epoch state (epoch, eta, theta, snapshot,
    # snapshot_grad) that the epoch loop below sets before each inner loop.
    # A ledger step is the global index of the next update, which is the
    # number of metrics rows so far.

    def model_step(worker_id: int, version: int):
        """Master side of a dispatch: broadcast message plus diagnostics."""
        msg, diag = model_message(x, snapshot, cfg, master_rng, mu_scale=theta)
        ledger.record_message(len(metrics), "down", msg)
        if diag["b_x_used"] is not None:  # None for a flag or a full baseline
            broadcasts.append({"epoch": epoch, "version": version, **diag})
        return msg, diag

    def worker_step(worker_id: int, dispatch):
        """Worker side: sample a batch, differentiate at the received model
        against the stored snapshot, compress. Touches only the worker's own
        streams plus ``snapshot``, which is rebound only between inner loops."""
        msg, diag = dispatch
        batch = worker_rngs[worker_id].integers(0, problem.n, size=cfg.batch_size)
        model = _decode(msg, snapshot)
        alpha = problem.grad_batch_diff(batch, model, snapshot)
        return gradient_message(alpha, cfg, compress_rngs[worker_id]), diag

    def on_arrival(clock: int, worker_id: int, reply):
        ledger.record_message(len(metrics), "up", reply[0])

    def apply_result(t: int, reply, record: StalenessRecord):
        nonlocal x, y, x_sum, picked_iterate
        grad_msg, diag = reply
        nnz = grad_msg.content.nnz if grad_msg.kind is MessageKind.SPARSE else None
        gt = epoch * cfg.m + t
        if gt == pick:
            picked_iterate = x.copy()

        u = _decode(grad_msg, snapshot) + snapshot_grad
        if accelerated:
            y = problem.prox(eta, y - eta * u)
            x = snapshot + theta * (y - snapshot)
            x_sum += x
        else:
            x = problem.prox(eta, x - eta * u)
        columns.add(x, eta,
                    gt if gt % cfg.metric_every == 0 else None, gmap_row(t + 1))

        metrics.append(
            {
                "epoch": epoch,
                "t": t,
                "t_global": gt,
                "D_t": record.version,
                "staleness": record.staleness,
                "worker_id": record.worker_id,
                "train_loss": None,  # filled from the metric columns
                "grad_mapping_sq": None,
                "cumulative_bits": ledger.total_bits,
                "mu_required": diag["mu_required"],
                "b_x_used": diag["b_x_used"],
                "nnz_sent": nnz,
                "message_kind": grad_msg.kind.value,
                "bits": grad_msg.bits,
            }
        )

    for epoch in range(cfg.epochs):
        snapshot_grad = epoch_barrier(
            problem, snapshot, len(workers), ledger, step=len(metrics)
        )
        eta = etas[epoch]
        # the momentum weight also scales the model-precision budget
        theta = momentum_weight(epoch + 1) if accelerated else 1.0
        if accelerated:
            # where y equals the snapshot, so does x, and the flag path fires
            x = snapshot + theta * (y - snapshot)
            x_sum = np.zeros(problem.d)
        else:
            x = snapshot.copy()

        columns.add(x, eta, None, gmap_row(0))
        if cfg.execution == "threads":
            run_inner_loop_threads(
                workers, cfg.tau, cfg.m, model_step, worker_step, apply_result,
                on_arrival=on_arrival,
            )
        else:
            run_inner_loop(
                workers, cfg.tau, cfg.m, model_step, worker_step, apply_result,
                latency_rngs, on_arrival=on_arrival,
            )

        columns.flush(eta)
        snapshot = x_sum / cfg.m if accelerated else x.copy()

    for row, loss, gmap in zip(metrics, columns.losses, columns.gmaps):
        row["train_loss"] = loss
        row["grad_mapping_sq"] = gmap
    gmaps = [g for g in columns.gmaps if g is not None]

    return RunResult(
        metrics=metrics,
        ledger=ledger,
        broadcasts=broadcasts,
        output=snapshot.copy() if accelerated else picked_iterate,
        final_x=x.copy(),
        final_snapshot=snapshot.copy(),
        violations=sum(row["violation"] for row in broadcasts),
        search_failures=sum(row["search_failed"] for row in broadcasts),
        min_grad_mapping_sq=min(gmaps) if gmaps else None,
        eta_used=etas if accelerated else etas[0],
    )
