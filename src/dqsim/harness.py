"""Experiment orchestration: configs, runs, CSV/report emission, comparisons.

A run is a pure function of its configuration: every random stream is derived
from explicit seeds, so re-running a config reproduces byte-identical CSVs.
Configurations are JSON with all defaults materialized on load; reports embed
the exact effective config.

Outputs per run directory:
    metrics.csv   one row per applied update (see docs/csv_columns.md)
    ledger.csv    one row per transmitted message
    trace.csv     per-update staleness trace, projected from the metrics rows
    report.json   effective config, bit totals, bits-to-target, theory checks
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from .codec import write_csv
from .optim import Algorithm, AlgoConfig, run_training, theory_constants
from .problems import (
    CompositeProblem,
    load_libsvm,
    logistic_problem,
    mlp_problem,
    synth_dataset,
    synth_multiclass_dataset,
)
from .simnet import (
    FixedLatency,
    GeometricLatency,
    Latency,
    UniformLatency,
    check_field_types,
)

__all__ = [
    "ExperimentConfig",
    "ProblemConfig",
    "RunConfig",
    "RunReport",
    "load_config",
    "parse_config",
    "build_problem",
    "build_workers",
    "run_experiment",
    "lr_grid_search",
    "figure_mu_trace",
    "compare_suite",
]


@dataclass(frozen=True)
class ProblemConfig:
    """The ``problem`` section. One class serves every kind: a kind ignores
    the fields it does not read, such as ``path`` on a synthetic kind. The
    sizes and the seed are range-checked on every kind."""

    kind: str = "synth_logistic"  # or "libsvm_logistic" or "synth_mlp"
    n: int = 1000
    d: int = 50
    seed: int = 0
    flip_prob: float = 0.0
    lambda1: float = 1e-5
    lambda2: float = 1e-4
    path: Optional[str] = None  # the libsvm file
    hidden: int = 100
    classes: int = 10

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("synth_logistic", "libsvm_logistic", "synth_mlp"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        for name, least in (("n", 1), ("d", 1), ("seed", 0), ("hidden", 1),
                            ("classes", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"problem.{name} must be >= {least}, "
                                 f"got {getattr(self, name)!r}")
        for name in ("lambda1", "lambda2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"problem.{name} must be finite and >= 0, "
                                 f"got {getattr(self, name)!r}")
        if not 0 <= self.flip_prob <= 1:
            raise ValueError("problem.flip_prob must be in [0, 1], "
                             f"got {self.flip_prob!r}")
        if self.kind == "libsvm_logistic" and not (
                self.path and Path(self.path).exists()):
            raise ValueError(f"dataset path does not exist: {self.path!r}")


@dataclass(frozen=True)
class RunConfig:
    """The ``run`` section: output directory and loss target."""

    out_dir: Optional[str] = None
    loss_target: float | str | None = "auto"  # number, "auto", or None to skip
    oracle_iters: int = 2000

    def __post_init__(self):
        check_field_types(self)
        target = self.loss_target
        if target not in (None, "auto") and (
                isinstance(target, bool) or not isinstance(target, (int, float))
                or not math.isfinite(target)):
            raise ValueError("run.loss_target must be a finite number, 'auto', "
                             f"or null; got {target!r}")
        if self.oracle_iters < 0:
            raise ValueError(f"run.oracle_iters must be >= 0, got {self.oracle_iters!r}")


_FIXED_ONE_TICK = {"kind": "fixed", "ticks": 1}


def _workers_section(count=1, latency=_FIXED_ONE_TICK) -> dict:
    return {"count": count, "latency": copy.deepcopy(latency)}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig
    algo: dict  # the JSON form of the section's AlgoConfig
    workers: dict
    run: RunConfig

    def to_dict(self) -> dict:
        return asdict(self)  # a deep copy

    def algo_config(self) -> AlgoConfig:
        return AlgoConfig(**self.algo)


@dataclass
class RunReport:
    config: dict
    out_dir: Optional[str]
    metrics_csv: Optional[str]
    ledger_csv: Optional[str]
    trace_csv: Optional[str]
    total_bits: int
    up_bits: int
    down_bits: int
    final_loss: float
    loss_target: Optional[float]
    bits_to_target: Optional[int]
    epochs_to_target: Optional[int]
    target_reached: bool
    violations: int
    search_failures: int
    min_grad_mapping_sq: Optional[float]
    theory: Optional[dict]
    output_vector: list[float]

    def to_dict(self) -> dict:
        """The fields by name, not copied: ``asdict`` would copy
        ``output_vector``, d floats, value by value."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _section(cls, raw: Optional[dict], name: str):
    """Config section ``name``: ``cls`` built from the given keys and
    defaults; ``None`` (JSON ``null``) takes every default."""
    if not isinstance(raw, (dict, type(None))):
        raise ValueError(f"config section {name!r} must be a JSON object or "
                         f"null, got {raw!r}")
    try:
        return cls(**(raw or {}))
    except TypeError as exc:  # a key that ``cls`` does not take
        raise ValueError(f"unknown key in config section {name!r}: {exc}") from exc


def _algo_section(raw: Optional[dict]) -> dict:
    """The ``algo`` section checked as an ``AlgoConfig``, in its JSON form."""
    return json.loads(json.dumps(asdict(_section(AlgoConfig, raw, "algo"))))


def parse_config(raw: dict) -> ExperimentConfig:
    """Materialize all defaults; unknown keys are errors (validated before
    any compute)."""
    if not isinstance(raw, dict):
        raise ValueError(f"a config must be a JSON object, got {raw!r}")
    unknown = set(raw) - {"problem", "algo", "workers", "run"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    problem = _section(ProblemConfig, raw.get("problem"), "problem")
    algo = _algo_section(raw.get("algo"))
    workers = _section(_workers_section, raw.get("workers"), "workers")
    build_workers(workers)
    if problem.kind == "synth_mlp" and algo["eta_mode"] == "theory":
        raise ValueError("algo.eta_mode 'theory' needs a smoothness estimate, "
                         "which problem kind 'synth_mlp' lacks")
    return ExperimentConfig(problem, algo, workers,
                            _section(RunConfig, raw.get("run"), "run"))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))


def build_problem(pcfg: ProblemConfig) -> CompositeProblem:
    if pcfg.kind == "synth_mlp":
        data = synth_multiclass_dataset(pcfg.n, pcfg.d, pcfg.classes, pcfg.seed)
        return mlp_problem(data, hidden=pcfg.hidden, lambda2=pcfg.lambda2,
                           num_classes=pcfg.classes, init_seed=pcfg.seed)
    if pcfg.kind == "synth_logistic":
        data = synth_dataset(pcfg.n, pcfg.d, pcfg.seed, flip_prob=pcfg.flip_prob)
    else:
        data = load_libsvm(pcfg.path)
    return logistic_problem(data, pcfg.lambda1, pcfg.lambda2)


_LATENCY_KINDS = {"fixed": FixedLatency, "uniform": UniformLatency,
                  "geometric": GeometricLatency}


def build_workers(wcfg: dict) -> list[Latency]:
    """The ``workers`` section as one latency model per worker, in the order
    of ``workers.latency``; a worker's id is its position in that list."""
    count, latency = wcfg["count"], wcfg["latency"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"workers.count must be an integer >= 1, got {count!r}")
    if not isinstance(latency, list):
        latency = [latency] * count
    elif len(latency) != count:
        raise ValueError(f"workers.latency has {len(latency)} entries, "
                         f"workers.count is {count}")
    return [_latency_model(spec) for spec in latency]


def _latency_model(spec: dict):
    """The class of ``kind`` (default fixed) built from the other keys,
    which it checks: an unknown key or a wrong type is an error."""
    if not isinstance(spec, dict):
        raise ValueError(f"a workers.latency entry must be an object, got {spec!r}")
    args = dict(spec)
    kind = args.pop("kind", "fixed")
    if kind not in _LATENCY_KINDS:
        raise ValueError(f"unknown latency kind {kind!r}")
    try:
        return _LATENCY_KINDS[kind](**args)
    except TypeError as exc:  # a key the class does not have, or lacks one
        raise ValueError(f"workers.latency {kind!r}: {exc}") from exc


def oracle_best_loss(problem: CompositeProblem,
                     iters: int) -> tuple[float, float]:
    """Deterministic full-batch proximal-gradient run from the problem's
    initial point; returns ``(start, best)``, the objective at that point
    and the best objective seen. Serves as the reference optimum for loss
    targets and rate-bound checks.

    Each step takes the objective and the full gradient from one
    ``loss_and_grads`` call on the one-column block ``x[:, None]``. It is
    not doubled as a lone metric column is: no block column has to match its
    bits, and the one-column product takes the matrix-vector path, which
    made 50 steps at 5000 x 300 about 3x faster than a doubled column."""
    if problem.smoothness is not None:
        eta = 1.0 / problem.smoothness
    else:
        eta = 0.1
    x = problem.initial_point()
    (start,), grad = problem.loss_and_grads(x[:, None], [0])
    best = start
    for _ in range(iters):
        x = problem.prox(eta, x - eta * grad[:, 0])
        (loss,), grad = problem.loss_and_grads(x[:, None], [0])
        best = min(best, loss)
    return start, best


def resolve_loss_target(config: ExperimentConfig,
                        problem: CompositeProblem) -> Optional[float]:
    """Absolute target, or best-known full-precision loss plus 10% of the
    initial gap when set to "auto"; ``RunConfig`` checked the value."""
    target = config.run.loss_target
    if target == "auto":
        start, best = oracle_best_loss(problem, config.run.oracle_iters)
        return best + 0.1 * (start - best)
    return None if target is None else float(target)


def _first_crossing(metrics: Sequence[dict], target: float):
    """First metrics row whose loss is below target: (bits, epoch)."""
    for row in metrics:
        loss = row.get("train_loss")
        if loss is not None and loss < target:
            return row["cumulative_bits"], row["epoch"]
    return None


_METRIC_FIELDS = [
    "epoch", "t", "t_global", "D_t", "staleness", "worker_id", "train_loss",
    "grad_mapping_sq", "cumulative_bits", "mu_required", "b_x_used", "nnz_sent",
]


def run_experiment(config: ExperimentConfig,
                   problem: Optional[CompositeProblem] = None,
                   loss_target: Optional[float] = "unset") -> RunReport:
    """Execute one configured run and emit its artifacts.

    ``problem`` and ``loss_target`` can be supplied to share the dataset and
    target across a suite; otherwise they are built from the config.
    """
    if problem is None:
        problem = build_problem(config.problem)
    acfg = config.algo_config()
    workers = build_workers(config.workers)
    if loss_target == "unset":
        loss_target = resolve_loss_target(config, problem)

    result = run_training(problem, acfg, workers)
    crossing = _first_crossing(result.metrics, loss_target) \
        if loss_target is not None else None

    out_dir = config.run.out_dir
    metrics_csv = ledger_csv = trace_csv = None
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        metrics_csv = str(out / "metrics.csv")
        ledger_csv = str(out / "ledger.csv")
        trace_csv = str(out / "trace.csv")
        write_csv(metrics_csv, _METRIC_FIELDS,
                  ([row.get(k) for k in _METRIC_FIELDS] for row in result.metrics))
        result.ledger.write_csv(ledger_csv)
        write_csv(trace_csv, ["t", "D_t", "worker_id", "epoch", "message_kind", "bits"],
                  ([row["t_global"], row["t_global"] - row["staleness"],
                    row["worker_id"], row["epoch"], row["message_kind"], row["bits"]]
                   for row in result.metrics))

    report = RunReport(
        config=config.to_dict(),
        out_dir=out_dir,
        metrics_csv=metrics_csv,
        ledger_csv=ledger_csv,
        trace_csv=trace_csv,
        total_bits=result.ledger.total_bits,
        up_bits=result.ledger.up_bits,
        down_bits=result.ledger.down_bits,
        final_loss=result.final_loss,
        loss_target=loss_target,
        bits_to_target=crossing[0] if crossing else None,
        epochs_to_target=crossing[1] + 1 if crossing else None,
        target_reached=crossing is not None,
        violations=result.violations,
        search_failures=result.search_failures,
        min_grad_mapping_sq=result.min_grad_mapping_sq,
        theory=theory_constants(acfg, problem),
        output_vector=[float(v) for v in result.output],
    )
    if out_dir:
        with open(Path(out_dir) / "report.json", "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def lr_grid_search(config: ExperimentConfig, grid: Sequence[float],
                   budget_epochs: Optional[int] = None,
                   problem: Optional[CompositeProblem] = None) -> tuple[float, dict]:
    """Pick the constant learning rate minimizing the final training loss over
    a short run; ties break toward the smaller rate. Divergent rates
    (non-finite loss, or an iterate too large for a binary32 message) are
    skipped; all divergent is an error. Every rate is checked before any
    problem is built or run."""
    if not grid:
        raise ValueError("empty learning-rate grid")
    base = config.algo_config()
    epochs = base.epochs if budget_epochs is None else budget_epochs
    configs = {lr: replace(base, eta=lr, eta_mode="constant", epochs=epochs)
               for lr in grid}
    if problem is None:
        problem = build_problem(config.problem)
    workers = build_workers(config.workers)
    results = {}
    for lr, acfg in configs.items():
        try:
            results[lr] = run_training(problem, acfg, workers).final_loss
        except OverflowError:
            results[lr] = math.inf
    finite = {lr: loss for lr, loss in results.items() if math.isfinite(loss)}
    if not finite:
        raise ValueError(f"all learning rates diverged: {sorted(grid)}")
    best = min(sorted(finite), key=lambda lr: (finite[lr], lr))
    return best, results


def figure_mu_trace(config: ExperimentConfig,
                    probe_widths: Sequence[int] = (4, 8)) -> dict:
    """Per-broadcast required-precision-budget trace plus a spike summary.

    Probe widths are evaluated on the same pinned trajectory (the required
    budget is a pure function of the broadcast iterate and snapshot), so
    coarser and finer widths are compared on identical iterates. The trace
    goes to ``mu_trace.csv`` in ``run.out_dir``, whose path the summary's
    ``csv`` holds (``None`` with no ``out_dir``), and its rows to ``rows``.
    """
    widths = sorted(set(probe_widths))
    acfg = replace(config.algo_config(), mu_probe_widths=widths)
    problem = build_problem(config.problem)
    result = run_training(problem, acfg, build_workers(config.workers))
    rows = result.broadcasts
    csv = None
    if config.run.out_dir:
        out = Path(config.run.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv = str(out / "mu_trace.csv")
        columns = ["epoch", "version", "mu_required", "b_x_used", "violation"]
        columns += [f"mu_required_b{w}" for w in widths]
        write_csv(csv, columns, ([row.get(k) for k in columns] for row in rows))
    summary = _mu_summary(rows, acfg.m, widths)
    summary.update(csv=csv, rows=rows)
    return summary


def _mu_summary(rows: Sequence[dict], m: int, widths: Sequence[int]) -> dict:
    summary: dict = {"n_broadcasts": len(rows)}
    vals = [r["mu_required"] for r in rows if r.get("mu_required") is not None]
    summary["all_finite"] = all(math.isfinite(v) for v in vals) if vals else True
    summary["mu_ceiling"] = max(vals) if vals else None
    for w in widths:
        key = f"mu_required_b{w}"
        wv = [r[key] for r in rows if r.get(key) is not None]
        summary[f"mu_ceiling_b{w}"] = max(wv) if wv else None
    # fraction of epochs whose peak requirement sits in the first 20% of
    # inner iterations
    by_epoch: dict[int, list] = {}
    for r in rows:
        if r.get("mu_required") is not None:
            by_epoch.setdefault(r["epoch"], []).append(r)
    early = 0
    for _, erows in sorted(by_epoch.items()):
        peak = max(erows, key=lambda r: r["mu_required"])
        if peak["version"] < max(1, 0.2 * m):
            early += 1
    summary["epochs"] = len(by_epoch)
    summary["early_peak_epochs"] = early
    summary["early_peak_fraction"] = early / len(by_epoch) if by_epoch else None
    return summary


_pool_state: dict = {}  # a compare_suite worker process's run, and only there


def _set_pool_run(run) -> None:
    _pool_state["run"] = run


def _pool_run(config: ExperimentConfig) -> RunReport:
    return _pool_state["run"](config)


def compare_suite(config: ExperimentConfig, algos: Sequence[str]) -> dict:
    """Run ``config`` once per algorithm in ``algos``, into
    ``<out_dir>/<algo>`` when ``run.out_dir`` is set, on the one problem it
    builds and to the loss target of its ``run`` section; tabulate
    bits/epochs-to-target with ratios normalized to the full-precision
    baseline (ratio = baseline bits / algorithm bits). Each algorithm's
    section is checked as ``parse_config`` checks it, and a name given twice
    is refused, before set-up."""
    if len(algos) < 2:
        raise ValueError("need at least two algorithms to compare")
    if len(set(algos)) < len(algos):
        raise ValueError(f"an algorithm is named more than once in {list(algos)}")
    out_dir = config.run.out_dir
    configs = [replace(config, algo=_algo_section({**config.algo, "algo": name}),
                       run=replace(config.run,
                                   out_dir=out_dir and str(Path(out_dir) / name)))
               for name in algos]
    threads = os.environ.get("DQSIM_THREADS", "1")
    if not threads.isdecimal() or int(threads) < 1:  # checked before set-up
        raise ValueError(f"DQSIM_THREADS must be an integer >= 1, got {threads!r}")
    threads = int(threads)
    problem = build_problem(config.problem)
    loss_target = resolve_loss_target(config, problem)

    run = partial(run_experiment, problem=problem, loss_target=loss_target)
    if threads > 1:
        # imported here, not at module top: the executor modules add about
        # 1.3 MB to a process, which a compare in one process never needs
        from concurrent.futures import ProcessPoolExecutor

        # the problem goes to each worker process once, with the initializer,
        # and a task sends only its config
        with ProcessPoolExecutor(max_workers=min(threads, len(configs)),
                                 initializer=_set_pool_run,
                                 initargs=(run,)) as pool:
            reports = list(pool.map(_pool_run, configs))
    else:
        reports = list(map(run, configs))

    baseline_bits = next((rep.bits_to_target for cfg, rep in zip(configs, reports)
                          if cfg.algo["algo"] == Algorithm.ASYFPG.value), None)
    table = [{"algo": cfg.algo["algo"],
              "bits_to_target": rep.bits_to_target,
              "epochs_to_target": rep.epochs_to_target,
              "total_bits": rep.total_bits,
              "final_loss": rep.final_loss,
              "target_reached": rep.target_reached,
              "ratio_vs_asyfpg": (baseline_bits / rep.bits_to_target
                                  if baseline_bits and rep.bits_to_target else None)}
             for cfg, rep in zip(configs, reports)]
    return {"loss_target": loss_target, "table": table, "reports": reports}
