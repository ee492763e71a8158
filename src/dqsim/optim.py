"""Variance-reduced proximal algorithms under double quantization.

Six algorithms share one epoch skeleton: a synchronous full-batch gradient at
the snapshot, then ``m`` asynchronous inner updates driven by the simulator.
Per inner update the master broadcasts the current iterate (snapshot flag /
quantized / full precision, by algorithm), a worker computes the per-batch
gradient difference against the snapshot at the model it received, compresses
it (quantize, sparsify-then-quantize, or neither), and the master applies the
variance-reduced proximal step. Bit width 32 selects the uncompressed path on
either side, so the full-precision baselines are the quantized algorithms
with both widths at 32.

The momentum variant keeps an auxiliary iterate and recouples the broadcast
iterate toward the previous snapshot with a decaying weight, tightening the
model-precision budget by the same weight.

Model-precision enforcement: the broadcast normally uses the configured model
width, but when the exact expected quantization error would exceed the budget
``mu * ||x - snapshot||^2`` the width is widened (never narrowed) until the
budget holds, degrading to an exact full-precision send if no width suffices.
Widening can be disabled to study fixed-width budget violations instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import codec
from .codec import BitLedger, MessageKind, WireMessage
from .problems import CompositeProblem, gradient_mapping_norm
from .quantizer import (
    QuantConfig,
    SparseLowPrecisionVector,
    choose_bx,
    expected_sq_error,
    grid_for,
    mu_required,
    quantize_vector,
)
from .simnet import (
    FixedLatency,
    StalenessRecord,
    WorkerSpec,
    epoch_barrier,
    run_inner_loop,
    run_inner_loop_threads,
)
from .sparsifier import budget_max, clamp_budget, optimal_plan, sparsify

__all__ = [
    "Algorithm",
    "AlgoConfig",
    "TrainState",
    "RunResult",
    "make_streams",
    "run_training",
    "model_message",
    "gradient_message",
    "theory_constants",
    "theory_rho",
    "momentum_weight",
]

FULL_PRECISION_BITS = 32


class Algorithm(str, enum.Enum):
    ASYLPG = "asylpg"
    SPARSE_ASYLPG = "sparse_asylpg"
    ACC_ASYLPG = "acc_asylpg"
    ASYFPG = "asyfpg"
    ACC_ASYFPG = "acc_asyfpg"
    QSVRG = "qsvrg"


_ACCELERATED = {Algorithm.ACC_ASYLPG, Algorithm.ACC_ASYFPG}
_MODEL_QUANTIZED = {Algorithm.ASYLPG, Algorithm.SPARSE_ASYLPG, Algorithm.ACC_ASYLPG}
_GRAD_QUANTIZED = _MODEL_QUANTIZED | {Algorithm.QSVRG}


@dataclass(frozen=True)
class AlgoConfig:
    """Run configuration; field names follow the algorithm inputs."""

    algo: Algorithm = Algorithm.ASYLPG
    epochs: int = 1  # S
    m: int = 10  # inner iterations per epoch
    eta: float = 0.1  # step size (constant mode) or ignored in theory mode
    b_x: int = 8  # model bit width
    b: int = 8  # gradient bit width
    mu: float = 0.1  # model precision-loss budget
    phi: Optional[float] = None  # sparsity budget; None = per-message maximum
    tau: int = 0  # staleness cap
    sigma: float = 2.0  # momentum step-size constant, > 1
    batch_size: int = 1
    seed: int = 0
    eta_mode: str = "constant"  # "constant" or "theory"
    bx_adapt: bool = True  # widen b_x when the precision budget binds
    mu_probe_widths: tuple[int, ...] = ()  # extra widths to log mu_required at
    metric_every: int = 1
    track_grad_mapping: bool = True
    trace_iterates: bool = False  # keep post-update iterates (diagnostics)
    execution: str = "simulated"  # "simulated" (deterministic) or "threads"

    def __post_init__(self):
        algo = Algorithm(self.algo)
        object.__setattr__(self, "algo", algo)
        QuantConfig(self.b_x, self.b, self.mu)  # validates widths and mu
        if self.epochs < 1 or self.m < 1:
            raise ValueError("epochs and m must be >= 1")
        if self.eta_mode not in ("constant", "theory"):
            raise ValueError(f"unknown eta_mode {self.eta_mode!r}")
        if self.eta_mode == "constant" and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if algo in _ACCELERATED and self.sigma <= 1.0:
            raise ValueError("sigma must exceed 1 for the momentum variant")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.phi is not None and self.phi <= 0:
            raise ValueError("phi must be positive when given")
        if self.metric_every < 1:
            raise ValueError("metric_every must be >= 1")
        if self.execution not in ("simulated", "threads"):
            raise ValueError(f"unknown execution mode {self.execution!r}")

    @property
    def quant(self) -> QuantConfig:
        return QuantConfig(self.b_x, self.b, self.mu)


@dataclass
class TrainState:
    """Mutable master state; owned by the simulation loop."""

    s: int  # epoch index
    t: int  # inner update index within the epoch
    x: np.ndarray
    snapshot: np.ndarray
    snapshot_grad: np.ndarray
    eta: float
    y: Optional[np.ndarray] = None  # momentum auxiliary iterate
    theta: Optional[float] = None  # momentum weight
    x_sum: Optional[np.ndarray] = None  # running sum for the averaged snapshot


@dataclass
class _TaskMeta:
    version: int
    grad_msg: WireMessage
    mu_req: Optional[float]
    b_x_used: Optional[int]
    nnz: Optional[int]


@dataclass
class RunResult:
    config: AlgoConfig
    metrics: list[dict]  # one row per applied update
    ledger: BitLedger
    trace: list[dict]  # per-update staleness/trace rows
    broadcasts: list[dict]  # per model broadcast: mu diagnostics
    output: np.ndarray  # selected output iterate
    final_x: np.ndarray
    final_snapshot: np.ndarray
    violations: int  # transmitted messages breaking the precision budget
    search_failures: int  # width searches that exhausted all widths
    min_grad_mapping_sq: Optional[float]
    eta_used: float | list[float]
    iterate_trace: list  # (x, y) post-update copies when trace_iterates is on

    @property
    def final_loss(self) -> float:
        for row in reversed(self.metrics):
            if row["train_loss"] is not None:
                return row["train_loss"]
        return math.nan


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


def _decode_model(msg: WireMessage, snapshot: np.ndarray) -> np.ndarray:
    if msg.kind is MessageKind.FLAG:
        return snapshot
    if msg.kind is MessageKind.FULL:
        return msg.content
    return msg.content.decode()


def _decode_gradient(msg: WireMessage) -> np.ndarray:
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

    ``violation`` flags a transmitted message whose exact expected error
    exceeds the budget (possible only with widening disabled); a full
    precision rescue after an exhausted width search is reported separately
    as ``search_failed`` since the constraint then holds trivially.
    """
    diag: dict = {"mu_required": None, "mu_probes": {}, "b_x_used": None,
                  "violation": False, "search_failed": False}
    if cfg.algo not in _MODEL_QUANTIZED:
        return codec.encode_full(x), diag
    if np.array_equal(x, snapshot):
        return codec.encode_flag(), diag
    if cfg.b_x >= FULL_PRECISION_BITS:
        diag["b_x_used"] = FULL_PRECISION_BITS
        return codec.encode_full(x), diag

    diff_sq = float(np.sum((x - snapshot) ** 2))
    budget = mu_scale * cfg.mu * diff_sq
    diag["mu_required"] = mu_required(x, snapshot, cfg.b_x)
    for width in cfg.mu_probe_widths:
        diag["mu_probes"][width] = mu_required(x, snapshot, width)

    b_use = cfg.b_x
    if diag["mu_required"] * diff_sq > budget:
        if cfg.bx_adapt:
            b_use = choose_bx(x, snapshot, mu_scale * cfg.mu, cfg.b_x + 1)
        else:
            diag["violation"] = True
    diag["b_x_used"] = b_use
    if b_use >= FULL_PRECISION_BITS:
        # widest search candidate; send exact values instead ("error" is zero)
        if expected_sq_error(x, grid_for(x, b_use)) > budget:
            diag["search_failed"] = True
        return codec.encode_full(x), diag
    if cfg.bx_adapt and b_use > cfg.b_x:
        # widened width must satisfy the budget by construction
        assert expected_sq_error(x, grid_for(x, b_use)) <= budget
    return codec.encode_dense(quantize_vector(x, b_use, rng)), diag


def gradient_message(
    alpha: np.ndarray, cfg: AlgoConfig, rng: np.random.Generator
) -> WireMessage:
    """Compress one gradient difference for the upstream direction."""
    if cfg.algo is Algorithm.SPARSE_ASYLPG:
        d = alpha.size
        if not np.any(alpha):
            return codec.encode_sparse(
                SparseLowPrecisionVector(
                    grid_for(np.ones(1), cfg.b), d,
                    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                )
            )
        phi = budget_max(alpha) if cfg.phi is None else clamp_budget(alpha, cfg.phi)
        beta = sparsify(alpha, optimal_plan(alpha, phi), rng)
        if beta.nnz == 0:
            return codec.encode_sparse(
                SparseLowPrecisionVector(
                    grid_for(np.ones(1), cfg.b), d,
                    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                )
            )
        q = quantize_vector(beta.values, cfg.b, rng)
        return codec.encode_sparse(
            SparseLowPrecisionVector(q.grid, d, beta.indices, q.codes)
        )
    if cfg.algo in _GRAD_QUANTIZED and cfg.b < FULL_PRECISION_BITS:
        return codec.encode_dense(quantize_vector(alpha, cfg.b, rng))
    return codec.encode_full(alpha)


def theory_rho(cfg: AlgoConfig, d: int, phi: Optional[float] = None) -> float:
    """Largest step-size ratio rho = eta*L satisfying the inner-loop
    stability condition ``A*rho^2 + rho <= 1`` with
    ``A = (8 m^2 + 2 tau^2) * variance_factor``."""
    factor = _variance_factor(cfg, d, phi)
    a = (8.0 * cfg.m**2 + 2.0 * cfg.tau**2) * factor
    rho = (-1.0 + math.sqrt(1.0 + 4.0 * a)) / (2.0 * a)
    return min(rho, 0.499999)


def _variance_factor(cfg: AlgoConfig, d: int, phi: Optional[float]) -> float:
    mu = cfg.mu if cfg.algo in _MODEL_QUANTIZED else 0.0
    if cfg.algo is Algorithm.SPARSE_ASYLPG:
        phi = phi if phi is not None else cfg.phi
        if phi is None:
            raise ValueError("sparse stability factor needs a budget phi")
        gamma = _gamma_sparse(d, phi, cfg.b)
        return (mu + 1.0) * gamma
    delta = _delta_dense(d, cfg.b) if cfg.b < FULL_PRECISION_BITS else 0.0
    return (mu + 1.0) * (delta + 2.0)


def _delta_dense(d: int, b: int) -> float:
    return d / (4.0 * ((1 << (b - 1)) - 1) ** 2)


def _gamma_sparse(d: int, phi: float, b: int) -> float:
    m2 = ((1 << (b - 1)) - 1) ** 2
    return d * d / (4.0 * phi * m2) + d / phi + 1.0


def _acc_tau_bound(theta: float, mu: float, d: int, b: int, sigma: float) -> float:
    delta = d / ((1 << (b - 1)) - 1) ** 2 + 2.0
    gamma = 1.0 + 2.0 * theta * mu
    base = 2.0 / (gamma * theta) + theta * delta
    return (math.sqrt(base**2 + 4.0 * (sigma - 1.0) / gamma) - base) / 2.0


def theory_constants(
    cfg: AlgoConfig,
    problem: CompositeProblem,
    p_star: Optional[float] = None,
    x0: Optional[np.ndarray] = None,
    phi: Optional[float] = None,
) -> dict:
    """Evaluate the stability constants and step-size conditions for a
    configuration, plus the rate bound when a reference optimum is supplied.

    Emits one pass/fail entry per checkable condition. In constant-step mode
    rho is eta*L for the configured eta; theory mode reports the rho that the
    run would use.
    """
    d = problem.d
    L = problem.smoothness
    if L is None:
        raise ValueError("problem exposes no smoothness estimate")
    report: dict = {"L": L, "d": d, "m": cfg.m, "tau": cfg.tau}
    delta = _delta_dense(d, cfg.b) if cfg.b < FULL_PRECISION_BITS else 0.0
    report["delta"] = delta
    mu = cfg.mu if cfg.algo in _MODEL_QUANTIZED else 0.0

    if cfg.algo in _ACCELERATED:
        bounds = [
            (s, _acc_tau_bound(momentum_weight(s), mu, d, cfg.b, cfg.sigma))
            for s in range(1, cfg.epochs + 1)
        ]
        binding_s, binding = min(bounds, key=lambda sb: sb[1])
        report["tau_bound_per_epoch"] = bounds
        report["tau_bound_binding_epoch"] = binding_s
        report["tau_bound"] = binding
        report["tau_ok"] = cfg.tau <= binding
        report["theta"] = [momentum_weight(s) for s in range(1, cfg.epochs + 1)]
        report["eta_schedule"] = [
            1.0 / (cfg.sigma * L * momentum_weight(s))
            for s in range(1, cfg.epochs + 1)
        ]
        return report

    if cfg.eta_mode == "theory":
        rho = theory_rho(cfg, d, phi)
    else:
        rho = cfg.eta * L
    report["rho"] = rho
    report["eta"] = rho / L
    factor = _variance_factor(cfg, d, phi)
    lhs = (8.0 * rho**2 * cfg.m**2 + 2.0 * rho**2 * cfg.tau**2) * factor + rho
    key = "step_condition_sparse" if cfg.algo is Algorithm.SPARSE_ASYLPG \
        else "step_condition_dense"
    report[key] = lhs
    report["step_condition_ok"] = lhs <= 1.0 + 1e-12
    if cfg.algo is Algorithm.SPARSE_ASYLPG:
        report["gamma"] = _gamma_sparse(d, phi if phi is not None else cfg.phi, cfg.b)
    # serial unquantized comparison: 4 rho^2 m^2 + rho <= 1
    report["serial_condition"] = 4.0 * rho**2 * cfg.m**2 + rho
    report["serial_condition_ok"] = report["serial_condition"] <= 1.0 + 1e-12
    report["rho_in_range"] = 0.0 < rho < 0.5
    if p_star is not None and x0 is not None:
        T = cfg.epochs * cfg.m
        gap = problem.objective(x0) - p_star
        report["rate_bound"] = 2.0 * L * gap / (rho * (1.0 - 2.0 * rho) * T)
        report["gap"] = gap
    return report


def _epoch_etas(cfg: AlgoConfig, L: Optional[float], d: int) -> list[float]:
    """Step size per epoch (momentum variants decay with the weight)."""
    if cfg.algo in _ACCELERATED:
        etas = []
        for s in range(1, cfg.epochs + 1):
            theta = momentum_weight(s)
            if cfg.eta_mode == "theory":
                if L is None:
                    raise ValueError("theory mode needs a smoothness estimate")
                etas.append(1.0 / (cfg.sigma * L * theta))
            else:
                etas.append(cfg.eta / theta)
        return etas
    if cfg.eta_mode == "theory":
        if L is None:
            raise ValueError("theory mode needs a smoothness estimate")
        rho = theory_rho(cfg, d, cfg.phi)
        return [rho / L] * cfg.epochs
    return [cfg.eta] * cfg.epochs


def run_training(
    problem: CompositeProblem,
    cfg: AlgoConfig,
    workers: Optional[Sequence[WorkerSpec]] = None,
    x0: Optional[np.ndarray] = None,
) -> RunResult:
    """Train for ``cfg.epochs`` epochs of ``cfg.m`` asynchronous inner updates.

    Deterministic: identical (problem, cfg, workers, x0) produce identical
    metrics, ledger, trace, and output, bit for bit.
    """
    if workers is None:
        workers = [WorkerSpec(0, FixedLatency(1))]
    master_rng, worker_rngs, latency_rngs, output_rng, compress_rngs = \
        make_streams(cfg.seed, len(workers))
    rng_of = {w.worker_id: r for w, r in zip(workers, worker_rngs)}
    crng_of = {w.worker_id: r for w, r in zip(workers, compress_rngs)}
    accelerated = cfg.algo in _ACCELERATED
    etas = _epoch_etas(cfg, problem.smoothness, problem.d)

    x = np.zeros(problem.d) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    state = TrainState(
        s=0, t=0, x=x, snapshot=x.copy(), snapshot_grad=np.zeros(problem.d),
        eta=etas[0],
    )
    if accelerated:
        state.y = state.snapshot

    ledger = BitLedger()
    metrics: list[dict] = []
    trace: list[dict] = []
    broadcasts: list[dict] = []
    violations = 0
    search_failures = 0
    min_gmap: Optional[float] = None
    iterate_trace: list = []

    # Output candidates are the pre-update iterates; draw the uniform index
    # up front and keep only the matching iterate.
    total_T = cfg.epochs * cfg.m
    pick = int(output_rng.integers(0, total_T))
    picked_iterate: Optional[np.ndarray] = None

    def global_t() -> int:
        return state.s * cfg.m + state.t

    for s_epoch in range(cfg.epochs):
        state.s = s_epoch
        state.t = 0
        state.snapshot_grad = epoch_barrier(
            problem, state.snapshot, len(workers), ledger, step=global_t()
        )
        if accelerated:
            s_one = s_epoch + 1
            state.theta = momentum_weight(s_one)
            state.eta = etas[s_epoch]
            # auxiliary first, then the coupled iterate; identical arrays at
            # the very start must stay identical for the flag-bit path
            y0 = state.y
            if np.array_equal(y0, state.snapshot):
                state.x = state.snapshot.copy()
            else:
                state.x = state.snapshot + state.theta * (y0 - state.snapshot)
            state.y = y0.copy()
            state.x_sum = np.zeros(problem.d)
        else:
            state.eta = etas[s_epoch]
            state.x = state.snapshot.copy()

        mu_scale = state.theta if accelerated else 1.0

        def model_step(worker_id: int, version: int):
            """Master side of a dispatch: broadcast message plus diagnostics."""
            nonlocal violations, search_failures
            msg, diag = model_message(
                state.x, state.snapshot, cfg, master_rng, mu_scale=mu_scale
            )
            ledger.record_message(global_t(), "down", msg)
            if diag["violation"]:
                violations += 1
            if diag["search_failed"]:
                search_failures += 1
            if msg.kind is not MessageKind.FLAG and diag["b_x_used"] is not None:
                broadcasts.append(
                    {
                        "epoch": state.s,
                        "version": version,
                        "mu_required": diag["mu_required"],
                        "b_x_used": diag["b_x_used"],
                        "violation": diag["violation"],
                        **{f"mu_required_b{w}": v
                           for w, v in diag["mu_probes"].items()},
                    }
                )
            return version, msg, diag

        def worker_step(worker_id: int, dispatch):
            """Worker side: sample a batch, differentiate at the received
            model against the stored snapshot, compress. Touches only the
            worker's own streams plus epoch-constant shared state."""
            version, msg, diag = dispatch
            batch = rng_of[worker_id].integers(0, problem.n, size=cfg.batch_size)
            model = _decode_model(msg, state.snapshot)
            alpha = problem.grad_batch(batch, model) - problem.grad_batch(
                batch, state.snapshot
            )
            grad_msg = gradient_message(alpha, cfg, crng_of[worker_id])
            nnz = grad_msg.content.nnz if grad_msg.kind is MessageKind.SPARSE else None
            return _TaskMeta(
                version=version,
                grad_msg=grad_msg,
                mu_req=diag["mu_required"],
                b_x_used=diag["b_x_used"],
                nnz=nnz,
            )

        def on_arrival(clock: int, worker_id: int, task: _TaskMeta):
            ledger.record_message(global_t(), "up", task.grad_msg)

        def apply_result(t: int, task: _TaskMeta, record: StalenessRecord):
            nonlocal min_gmap, picked_iterate
            state.t = t
            gt = global_t()
            if gt == pick:
                picked_iterate = state.x.copy()
            gmap = None
            if cfg.track_grad_mapping and gt % cfg.metric_every == 0:
                gmap = gradient_mapping_norm(problem, state.x, state.eta)
                min_gmap = gmap if min_gmap is None else min(min_gmap, gmap)

            u = _decode_gradient(task.grad_msg) + state.snapshot_grad
            if accelerated:
                state.y = problem.prox(state.eta, state.y - state.eta * u)
                state.x = state.snapshot + state.theta * (state.y - state.snapshot)
                state.x_sum += state.x
            else:
                state.x = problem.prox(state.eta, state.x - state.eta * u)
            state.t = t + 1
            if cfg.trace_iterates:
                iterate_trace.append(
                    (state.x.copy(),
                     state.y.copy() if accelerated else None,
                     state.snapshot, state.theta)
                )

            row = {
                "epoch": state.s,
                "t": t,
                "t_global": gt,
                "D_t": record.version,
                "staleness": record.staleness,
                "worker_id": record.worker_id,
                "train_loss": problem.objective(state.x)
                if gt % cfg.metric_every == 0 else None,
                "grad_mapping_sq": gmap,
                "cumulative_bits": ledger.total_bits,
                "mu_required": task.mu_req,
                "b_x_used": task.b_x_used,
                "nnz_sent": task.nnz,
            }
            metrics.append(row)
            trace.append(
                {
                    "t": gt,
                    "D_t": state.s * cfg.m + record.version,
                    "worker_id": record.worker_id,
                    "epoch": state.s,
                    "message_kind": task.grad_msg.kind.value,
                    "bits": task.grad_msg.bits,
                }
            )

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

        if accelerated:
            state.snapshot = state.x_sum / cfg.m
        else:
            state.snapshot = state.x.copy()

    if accelerated:
        output = state.snapshot.copy()
    else:
        output = picked_iterate if picked_iterate is not None else state.x.copy()

    return RunResult(
        config=cfg,
        metrics=metrics,
        ledger=ledger,
        trace=trace,
        broadcasts=broadcasts,
        output=output,
        final_x=state.x.copy(),
        final_snapshot=state.snapshot.copy(),
        violations=violations,
        search_failures=search_failures,
        min_grad_mapping_sq=min_gmap,
        eta_used=etas if accelerated else etas[0],
        iterate_trace=iterate_trace,
    )
