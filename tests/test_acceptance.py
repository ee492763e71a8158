"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight training runs (criteria 6-10 and 12) share a
module-scoped fixture so the whole suite stays within its time budget.
"""

import math
import time

import numpy as np
import pytest

from dqsim.codec import (
    dense_bits,
    decode_dense,
    decode_sparse,
    encode_dense,
    encode_flag,
    encode_full,
    encode_sparse,
    flag_bits,
    full_bits,
    sparse_bits,
)
from dqsim.optim import (
    Algorithm,
    AlgoConfig,
    make_streams,
    run_training,
    theory_constants,
    theory_rho,
)
from dqsim.problems import logistic_problem, mlp_problem, synth_dataset, synth_multiclass_dataset
from dqsim.quantizer import (
    LowPrecisionVector,
    QuantGrid,
    SparseLowPrecisionVector,
    expected_sq_error,
    grid_for,
    quantize_on_grid,
)
from dqsim.simnet import (
    FixedLatency,
    GeometricLatency,
    UniformLatency,
    run_inner_loop,
)
from dqsim.sparsifier import SparsePlan, budget_max, optimal_plan, sparsify
from dqsim.harness import oracle_best_loss

from oracles import (
    finite_diff_grad,
    second_moment_expected,
    serial_prox_svrg,
    sparse_to_dense,
)


def rng_of(seed):
    return np.random.Generator(np.random.Philox(seed))


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_quantizer_unbiasedness_and_variance():
    start = time.time()
    rng = rng_of(101)
    n_mc = 100_000
    d = 16
    widths = (2, 4, 8)
    worst_z = 0.0
    for k in range(100):
        v = rng.normal(size=d)
        for bits in widths:
            grid = grid_for(v, bits)
            exact = expected_sq_error(v, grid)
            assert exact <= d * grid.delta**2 / 4.0 + 1e-15
        # Monte Carlo unbiasedness at one width per vector, cycling widths
        bits = widths[k % 3]
        grid = grid_for(v, bits)
        q = quantize_on_grid(np.tile(v, n_mc), grid, rng)
        mean = q.codes.reshape(n_mc, d).mean(axis=0) * grid.delta
        scaled = v / grid.delta
        frac = scaled - np.floor(scaled)
        frac[frac > 1 - 1e-9] = 0.0
        frac[frac < 1e-9] = 0.0
        se = grid.delta * np.sqrt(frac * (1 - frac) / n_mc)
        stochastic = se > 0
        z = np.abs(mean - v)[stochastic] / se[stochastic]
        worst_z = max(worst_z, float(z.max()) if z.size else 0.0)
        assert np.all(z < 4.0)
        # deterministic coordinates reproduce exactly up to mean accumulation
        assert np.all(np.abs(mean - v)[~stochastic] < 1e-9)
    elapsed = time.time() - start
    report(
        "1 quantizer unbiasedness/variance",
        elapsed < 10.0,
        f"(300 bound checks, 100 MC runs, worst |z|={worst_z:.2f}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_sparsifier_optimality():
    start = time.time()
    # closed form at the canonical example, against 10^6 library draws
    alpha = np.array([3.0, 1.0])
    plan = optimal_plan(alpha, 4.0 / 3.0)
    assert second_moment_expected(alpha, plan) == pytest.approx(12.0)
    n = 1_000_000
    tiled_plan = SparsePlan(np.tile(plan.probs, n), float(plan.probs.sum() * n))
    beta = sparsify(np.tile(alpha, n), tiled_plan, rng_of(102))
    emp = float(np.mean(np.sum(sparse_to_dense(beta).reshape(n, 2) ** 2, axis=1)))
    assert emp == pytest.approx(12.0, rel=0.01)

    # optimal plan beats random valid plans of the same budget
    rng = rng_of(103)
    checked = 0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=d)
        phi = float(rng.uniform(0.3, 1.0)) * budget_max(a)
        opt_val = second_moment_expected(a, optimal_plan(a, phi))
        for _ in range(100):
            w = rng.dirichlet(np.ones(d)) * phi
            for _ in range(60):
                over = w > 1.0
                if not over.any():
                    break
                excess = float(np.sum(w[over] - 1.0))
                w[over] = 1.0
                room = ~over & (w > 0)
                if not room.any():
                    break
                w[room] += excess * w[room] / w[room].sum()
            w = np.minimum(w, 1.0)
            if np.any((a != 0) & (w <= 0)) or abs(w.sum() - phi) > 1e-9 * d:
                continue
            assert opt_val <= second_moment_expected(a, SparsePlan(w, float(w.sum()))) + 1e-9
            checked += 1
    elapsed = time.time() - start
    report(
        "2 sparsifier optimality",
        elapsed < 30.0 and emp == pytest.approx(12.0, rel=0.01),
        f"(E||b||^2={emp:.4f} vs 12, {checked} random plans dominated, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_codec_exactness():
    start = time.time()
    for d, b in [(1, 2), (7, 3), (64, 8), (300, 8), (1000, 8), (784, 4), (33, 16)]:
        q = LowPrecisionVector(QuantGrid(0.5, b), np.zeros(d, dtype=np.int64))
        assert encode_dense(q).bits == 32 + b * d == dense_bits(d, b)
        assert encode_full(np.zeros(d)).bits == 32 * d == full_bits(d)
        for nnz in (0, 1, min(d, 5)):
            idx = np.arange(nnz, dtype=np.int64)
            sq = SparseLowPrecisionVector(
                QuantGrid(0.5, b), d, idx, np.ones(nnz, dtype=np.int64)
            )
            iw = math.ceil(math.log2(d)) if d > 1 else 0
            assert encode_sparse(sq).bits == 32 + nnz * (iw + b) == sparse_bits(d, nnz, b)
    assert encode_flag().bits == 1 == flag_bits()

    rng = rng_of(104)
    for _ in range(500):
        d = int(rng.integers(1, 120))
        b = int(rng.integers(2, 17))
        grid = QuantGrid(float(np.float32(rng.uniform(1e-4, 3.0))), b)
        codes = rng.integers(grid.code_min, grid.code_max + 1, size=d)
        q = LowPrecisionVector(grid, codes)
        assert decode_dense(encode_dense(q).payload, d, b) == q
    for _ in range(500):
        d = int(rng.integers(1, 200))
        b = int(rng.integers(2, 17))
        grid = QuantGrid(float(np.float32(rng.uniform(1e-4, 3.0))), b)
        nnz = int(rng.integers(0, d + 1))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
        codes = rng.integers(grid.code_min, grid.code_max + 1, size=nnz)
        sq = SparseLowPrecisionVector(grid, d, idx, codes)
        assert decode_sparse(encode_sparse(sq).payload, d, b) == sq
    elapsed = time.time() - start
    report("3 codec exactness", elapsed < 5.0,
           f"(formula matrix + 1000 bit-exact roundtrips, {elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 4
def test_criterion_4_oracle_equivalence():
    start = time.time()
    prob = logistic_problem(synth_dataset(500, 20, seed=40), 1e-5, 1e-4)
    cfg = AlgoConfig(
        algo=Algorithm.ASYLPG, epochs=3, m=25, eta=0.5, b_x=32, b=32, tau=0,
        batch_size=2, seed=41, track_grad_mapping=False,
    )
    iterates = []  # each update's prox output is its post-update iterate
    prox = prob.prox
    prob.prox = lambda eta, v: iterates.append(prox(eta, v)) or iterates[-1]
    run_training(prob, cfg, [FixedLatency(1)])
    del prob.prox  # the reference below steps through the class's prox
    _, wrngs, _, _, _ = make_streams(41, 1)
    reference = serial_prox_svrg(prob, 3, 25, 0.5, 2, wrngs[0])
    assert len(iterates) == len(reference) == 75
    worst = max(float(np.max(np.abs(x - r))) for x, r in zip(iterates, reference))
    elapsed = time.time() - start
    report("4 oracle equivalence", worst <= 1e-12 and elapsed < 10.0,
           f"(75 iterates, max deviation {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_bounded_staleness():
    start = time.time()
    rng = np.random.default_rng(105)
    violations = 0
    total = 0
    for trial in range(200):
        n_w = int(rng.integers(1, 9))
        tau = int(rng.integers(0, 9))
        specs = []
        for _ in range(n_w):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                specs.append(FixedLatency(int(rng.integers(1, 7))))
            elif kind == 1:
                specs.append(UniformLatency(1, int(rng.integers(2, 10))))
            else:
                specs.append(GeometricLatency(float(rng.uniform(0.15, 0.9))))
        _, _, lat, _, _ = make_streams(trial, n_w)
        recs = run_inner_loop(
            specs, tau, 10_000, lambda w, v: None, lambda w, d: d,
            lambda t, p, r: None, lat
        )
        assert len(recs) == 10_000
        violations += sum(1 for r in recs if not 0 <= r.staleness <= tau)
        total += len(recs)
    elapsed = time.time() - start
    report(
        "5 bounded staleness",
        violations == 0 and elapsed < 60.0,
        f"({total} updates over 200 configs, {violations} violations, {elapsed:.1f}s)",
    )


# ------------------------------------------------- shared runs: criteria 6-10
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def convergence_runs():
    """Criterion-7 problem and the AsyLPG / AsyFPG / Acc-AsyLPG runs."""
    data = synth_dataset(5000, 300, seed=70)
    prob = logistic_problem(data, 1e-5, 1e-4)
    _, p_star = oracle_best_loss(prob, 1500)
    p0 = prob.objective(np.zeros(prob.d))
    target = p_star + 0.1 * (p0 - p_star)
    workers = [UniformLatency(1, 3)] * 4

    def make(algo, seed, probes=()):
        return AlgoConfig(
            algo=algo, epochs=12, m=100, eta=1.0, b_x=8, b=8, mu=0.1, tau=4,
            batch_size=50, seed=seed, track_grad_mapping=False,
            mu_probe_widths=probes,
        )

    runs = {}
    for seed in SEEDS:
        runs[("asylpg", seed)] = run_training(
            prob, make(Algorithm.ASYLPG, seed, probes=(4, 8)), workers
        )
        runs[("asyfpg", seed)] = run_training(
            prob, make(Algorithm.ASYFPG, seed), workers
        )
        runs[("acc", seed)] = run_training(
            prob, make(Algorithm.ACC_ASYLPG, seed), workers
        )
    return {"problem": prob, "target": target, "runs": runs, "m": 100}


def _epoch_losses(res, epochs):
    out = {}
    for row in res.metrics:
        if row["train_loss"] is not None:
            out[row["epoch"]] = row["train_loss"]  # last update of the epoch
    return [out[e] for e in range(epochs)]


def _crossing(res, target):
    for row in res.metrics:
        if row["train_loss"] is not None and row["train_loss"] < target:
            return row["epoch"] + 1, row["cumulative_bits"]
    return None, None


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_rate_bound():
    start = time.time()
    prob = logistic_problem(synth_dataset(2000, 100, seed=60), 0.0, 1e-4)
    cfg = AlgoConfig(
        algo=Algorithm.ASYLPG, epochs=3, m=50, eta_mode="theory", b_x=8, b=8,
        mu=0.1, tau=2, batch_size=1, seed=61, track_grad_mapping=True,
    )
    rho = theory_rho(cfg, prob.d)
    rep = theory_constants(cfg, prob)
    assert rep["step_condition_ok"] and 0 < rho < 0.5
    workers = [UniformLatency(1, 3)] * 2
    res = run_training(prob, cfg, workers)
    _, p_star = oracle_best_loss(prob, 4000)
    T = cfg.epochs * cfg.m
    bound = 2 * prob.smoothness * (prob.objective(np.zeros(prob.d)) - p_star) / (
        rho * (1 - 2 * rho) * T
    )
    min_g = res.min_grad_mapping_sq
    slack = bound / min_g
    elapsed = time.time() - start
    report(
        "6 rate bound",
        min_g <= bound / 2.0 and res.violations == 0 and elapsed < 300.0,
        f"(min ||G||^2 = {min_g:.3e} <= bound {bound:.3e} with {slack:.1f}x slack, "
        f"{elapsed:.1f}s)",
    )
    test_criterion_6_rate_bound.violations = res.violations


# ---------------------------------------------------------------- criterion 7
def test_criterion_7_quantization_preserves_convergence(convergence_runs):
    start = time.time()
    runs = convergence_runs["runs"]
    gaps = []
    for seed in SEEDS:
        lp = _epoch_losses(runs[("asylpg", seed)], 12)
        fp = _epoch_losses(runs[("asyfpg", seed)], 12)
        gaps.append(abs(lp[-1] - fp[-1]))
    mean_gap = float(np.mean(gaps))
    elapsed = time.time() - start
    report(
        "7 quantization preserves convergence",
        mean_gap <= 1e-3,
        f"(mean final-epoch loss gap over 3 seeds = {mean_gap:.2e}, +{elapsed:.1f}s)",
    )


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_communication_savings(convergence_runs):
    target = convergence_runs["target"]
    runs = convergence_runs["runs"]
    _, bits_fpg = _crossing(runs[("asyfpg", 0)], target)
    _, bits_lpg = _crossing(runs[("asylpg", 0)], target)
    _, bits_acc = _crossing(runs[("acc", 0)], target)
    assert bits_fpg and bits_lpg and bits_acc
    r_lpg = bits_fpg / bits_lpg
    r_acc = bits_fpg / bits_acc
    report(
        "8 communication savings",
        r_lpg >= 3.0 and r_acc >= r_lpg,
        f"(AsyFPG/AsyLPG = {r_lpg:.2f}x >= 3, AsyFPG/Acc = {r_acc:.2f}x >= {r_lpg:.2f}x)",
    )


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_acceleration(convergence_runs):
    target = convergence_runs["target"]
    runs = convergence_runs["runs"]
    wins = []
    pairs = []
    for seed in SEEDS:
        e_acc, _ = _crossing(runs[("acc", seed)], target)
        e_lpg, _ = _crossing(runs[("asylpg", seed)], target)
        assert e_acc is not None and e_lpg is not None
        wins.append(e_acc < e_lpg)
        pairs.append((e_acc, e_lpg))
    report(
        "9 acceleration",
        all(wins),
        f"(epochs to target acc vs asylpg per seed: {pairs})",
    )


# --------------------------------------------------------------- criterion 10
def test_criterion_10_mu_trace(convergence_runs):
    m = convergence_runs["m"]
    rows = convergence_runs["runs"][("asylpg", 0)].broadcasts
    assert rows
    finite = all(
        r["mu_required"] is not None and math.isfinite(r["mu_required"])
        for r in rows
    )
    ceil4 = max(r["mu_required_b4"] for r in rows)
    ceil8 = max(r["mu_required_b8"] for r in rows)
    by_epoch = {}
    for r in rows:
        by_epoch.setdefault(r["epoch"], []).append(r)
    early = sum(
        1
        for erows in by_epoch.values()
        if max(erows, key=lambda r: r["mu_required"])["version"] < 0.2 * m
    )
    frac = early / len(by_epoch)
    report(
        "10 mu trace",
        finite and ceil4 > ceil8 and frac >= 0.8,
        f"(finite={finite}, ceiling b4={ceil4:.3g} > b8={ceil8:.3g}, "
        f"early-peak epochs {early}/{len(by_epoch)})",
    )


# --------------------------------------------------------------- criterion 11
def test_criterion_11_mlp_gradient_check():
    start = time.time()
    data = synth_multiclass_dataset(12, 6, 3, seed=110)
    prob = mlp_problem(data, hidden=5, lambda2=1e-3)
    rng = rng_of(111)
    worst = 0.0
    for _ in range(20):
        x = prob.init_params(seed=int(rng.integers(1 << 30)))
        x += rng.normal(scale=0.05, size=prob.d)
        i = int(rng.integers(0, prob.n))

        def f_i(z, i=i):
            _, logits, log_z = prob._forward(prob._X[i:i + 1], z)
            return float(log_z[0] - logits[0, prob.targets[i]]) + \
                0.5 * prob.lambda2 * float(z @ z)

        g = prob.grad_batch(np.array([i]), x)
        fd = finite_diff_grad(f_i, x, h=1e-6)
        rel = float(np.max(np.abs(g - fd)) / max(1.0, float(np.max(np.abs(g)))))
        worst = max(worst, rel)
    elapsed = time.time() - start
    report(
        "11 mlp gradient check",
        worst <= 1e-4 and elapsed < 30.0,
        f"(20 points, worst relative error {worst:.2e}, {elapsed:.1f}s)",
    )


# --------------------------------------------------------------- criterion 12
def test_criterion_12_precision_budget_assertions(convergence_runs):
    total = sum(res.violations for res in convergence_runs["runs"].values())
    total += getattr(test_criterion_6_rate_bound, "violations", 0)
    report(
        "12 precision budget assertions",
        total == 0,
        f"(criteria 6-9 runs, {total} violations)",
    )
