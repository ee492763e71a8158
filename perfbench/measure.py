"""Measure one workload: timed set-up, timed training rounds, checked runs.

Everything goes through the harness the way ``dqsim compare`` does:
``parse_config`` -> ``build_problem`` -> ``resolve_loss_target`` -> one
``run_experiment`` per algorithm with ``out_dir`` set, so every run writes
its CSVs and report. A round is one run of each of the workload's configs.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import math
import resource
import statistics
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

from dqsim import harness, optim, simnet
from dqsim.problems import CompositeProblem

from spans import Tracer, layer_metrics, traced
from workloads import Workload

# Set-up runs at least SETUP_REPEATS times and for SETUP_MIN_S seconds in
# all; setup_s is the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
MIN_ROUNDS = 2  # so every config is compared with a repeat of itself
NOOP_REPEATS = 3


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


class RunChecker:
    """Checks one finished training run, and compares its fingerprint with
    the first run of the same algorithm in this process (traced runs too)."""

    def __init__(self, tau: int, initial_objective: float):
        self.tau = tau
        self.initial_objective = initial_objective
        self.fingerprints: dict[str, dict] = {}

    def check(self, config, report) -> tuple[int, list[str]]:
        """(applied updates, reasons the run fails; empty if it passes)."""
        files = {name: Path(getattr(report, f"{name}_csv")).read_bytes()
                 for name in ("metrics", "ledger", "trace")}
        fingerprint = {
            "total_bits": report.total_bits,
            "final_loss": repr(report.final_loss),
            **{f"{name}.csv": _sha256(data) for name, data in files.items()},
        }
        applied = len(_rows(files["metrics"]))
        reasons = []
        if report.violations:
            reasons.append(f"{report.violations} precision-budget violations")
        stale = [int(r["t"]) - int(r["D_t"]) for r in _rows(files["trace"])]
        if stale and (max(stale) > self.tau or min(stale) < 0):
            reasons.append(f"staleness outside [0, {self.tau}]: "
                           f"{min(stale)}..{max(stale)}")
        ledger_bits = sum(int(r["bits"]) for r in _rows(files["ledger"]))
        if ledger_bits != report.total_bits:
            reasons.append(f"ledger.csv sums to {ledger_bits} bits, "
                           f"report says {report.total_bits}")
        loss = report.final_loss
        if not (math.isfinite(loss) and loss < self.initial_objective):
            reasons.append(f"final loss {loss!r} not below the initial "
                           f"objective {self.initial_objective!r}")
        expected = config.algo["epochs"] * config.algo["m"]
        if applied != expected:
            reasons.append(f"{applied} updates applied, expected {expected}")
        reference = self.fingerprints.setdefault(config.algo["algo"], fingerprint)
        if fingerprint != reference:
            reasons.append(f"fingerprint {fingerprint} differs from the first "
                           f"run's {reference}")
        return applied, reasons


def timed_setup(configs) -> tuple[CompositeProblem, Optional[float], float]:
    """Parsed config to ready problem and loss target: (problem, target, s)."""
    start = time.perf_counter()
    problem = harness.build_problem(configs[0].problem)
    target = harness.resolve_loss_target(configs[0], problem)
    return problem, target, time.perf_counter() - start


class Runner:
    """Runs rounds of a workload's configs on one problem and checks them."""

    def __init__(self, configs, problem, target):
        self.configs = configs
        self.problem = problem
        self.target = target
        self.checker = RunChecker(configs[0].algo["tau"],
                                  problem.objective(np.zeros(problem.d)))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def round(self) -> tuple[int, float]:
        """One run per config: (applied updates, host seconds), summed over
        the runs that finished. Host seconds include CSV and report writes."""
        updates, seconds = 0, 0.0
        for config in self.configs:
            algo = config.algo["algo"]
            self.attempted += 1
            start = time.perf_counter()
            try:
                report = harness.run_experiment(config, problem=self.problem,
                                                loss_target=self.target)
            except Exception as exc:  # a crashing run is a counted failure
                reasons = [f"raised {exc!r}"]
            else:
                seconds += time.perf_counter() - start
                applied, reasons = self.checker.check(config, report)
                updates += applied
            if reasons:
                self.failed += 1
                self.failures += [f"{algo}: {r}" for r in reasons]
        return updates, seconds

    def timed_rounds(self, budget_s: float) -> list[float]:
        """Rounds until ``budget_s`` has passed (at least MIN_ROUNDS); the
        throughput (updates per host second) of each round."""
        rates = []
        deadline = time.perf_counter() + budget_s
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            updates, seconds = self.round()
            rounds += 1
            if seconds > 0:
                rates.append(updates / seconds)
        return rates


def scheduler_noop_us(config) -> float:
    """Median microseconds per update of ``run_inner_loop`` with no-op
    callbacks on the config's workers, tau and m: the scheduler alone."""
    acfg = config.algo_config()
    workers = harness.build_workers(config.workers)
    samples = []
    for _ in range(NOOP_REPEATS):
        latency_rngs = optim.make_streams(acfg.seed, len(workers))[2]
        start = time.perf_counter()
        simnet.run_inner_loop(workers, acfg.tau, acfg.m, lambda w, v: None,
                              lambda w, msg: None, lambda t, p, r: None,
                              latency_rngs)
        samples.append((time.perf_counter() - start) / acfg.m * 1e6)
    return statistics.median(samples)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path) -> dict:
    """Run one workload; returns metric values by name, run counts, failures
    and fingerprints. Run outputs live in a temporary directory under
    ``root``; a traced run also leaves its spans in ``root/.perfbench-spans``."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=root) as tmp:
        work = Path(tmp)
        configs = [harness.parse_config(raw)
                   for raw in workload.generate_configs(seed, work, work / "out")]
        setup_s: list[float] = []
        repeats, min_s = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_MIN_S)
        while len(setup_s) < repeats or sum(setup_s) < min_s:
            problem = None  # one problem alive at a time, as for a user
            gc.collect()
            problem, target, elapsed = timed_setup(configs)
            setup_s.append(elapsed)
        runner = Runner(configs, problem, target)
        rates = runner.timed_rounds(seconds)
        if not rates:
            raise RuntimeError("no training run finished: "
                               + "; ".join(runner.failures))
        fingerprints = runner.checker.fingerprints
        if not trace:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "updates_per_s": statistics.median(rates),
                "total_mbits": sum(fp["total_bits"] for fp in fingerprints.values())
                / 1e6,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024,
            }
        else:
            tracer = Tracer()
            with traced(tracer):
                runner.problem, runner.target, _ = timed_setup(configs)
                updates, traced_s = runner.round()
            metrics = layer_metrics(tracer)
            metrics["tracing.updates_per_s_ratio"] = (
                updates / traced_s / statistics.median(rates) if traced_s else 0.0)
            metrics["simnet.noop_us_per_update"] = scheduler_noop_us(configs[0])
            metrics["harness.output_bytes"] = sum(
                f.stat().st_size for f in (work / "out").rglob("*") if f.is_file())
            spans_dir = root / ".perfbench-spans"
            spans_dir.mkdir(exist_ok=True)
            tracer.write_csv(spans_dir / f"{workload.name}-seed{seed}.csv")
    return {
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "fingerprints": fingerprints,
        "round_rates": rates,
    }

