import copy

import numpy as np
import pytest

from dqsim import codec, optim, quantizer
from dqsim.codec import MessageKind
from dqsim.harness import parse_config, run_experiment
from dqsim.optim import (
    Algorithm,
    AlgoConfig,
    make_streams,
    momentum_weight,
    run_training,
    theory_constants,
    theory_rho,
    gradient_message,
    model_message,
)
from dqsim.problems import (
    CompositeProblem,
    Dataset,
    LogisticProblem,
    gradient_mapping_norm,
    logistic_problem,
    soft_threshold,
    synth_dataset,
)
from dqsim.quantizer import (
    choose_bx,
    expected_sq_error,
    grid_for,
    mu_required,
    quantize_on_grid,
    quantize_vector,
)
from dqsim.simnet import UniformLatency

from oracles import (as_csr, grad_sample, metric_block_stacked, per_kind,
                     serial_prox_svrg)


def rng_of(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def record(problem, method, keep):
    """Wrap ``method`` on this problem instance only; ``keep(args, result)``
    sees every call, in order."""
    inner = getattr(problem, method)

    def wrapped(*args):
        result = inner(*args)
        keep(args, result)
        return result

    setattr(problem, method, wrapped)


class QuadProblem(CompositeProblem):
    """Every sample is f_a(x) = ||x||^2/2; h = lambda1 ||x||_1."""

    def __init__(self, n=4, d=1, lambda1=0.0):
        self.n, self.d, self.smoothness = n, d, 1.0
        self.lambda1 = lambda1

    def f_value(self, x):
        return 0.5 * float(x @ x)

    def h_value(self, x):
        return self.lambda1 * float(np.sum(np.abs(x)))

    def grad_batch(self, idx, x):
        return x.copy()

    def grad_range_sum(self, lo, hi, x):
        return (hi - lo) * x

    def prox(self, eta, v):
        return soft_threshold(v, eta * self.lambda1)


class TestWorkerStep:
    def test_snapshot_model_gives_exact_zero_gradient(self):
        prob = logistic_problem(synth_dataset(30, 6, 0), 1e-4, 1e-3)
        snapshot = rng_of(1).normal(size=prob.d)
        batch = np.array([3, 7, 7, 11])
        alpha = prob.grad_batch(batch, snapshot) - prob.grad_batch(batch, snapshot)
        assert not np.any(alpha)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b=8)
        msg = gradient_message(alpha, cfg, rng_of(2))
        assert msg.kind is MessageKind.DENSE and msg.bits == 32 + 8 * prob.d
        assert not np.any(msg.content.decode())

    def test_quadratic_unit_difference_is_exact(self):
        # alpha = grad(1) - grad(0) = 1 sits on the grid extreme
        prob = QuadProblem(d=1)
        alpha = prob.grad_batch(np.array([0]), np.array([1.0])) - prob.grad_batch(
            np.array([0]), np.array([0.0])
        )
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b=8)
        for seed in range(10):
            msg = gradient_message(alpha, cfg, rng_of(seed))
            np.testing.assert_array_equal(msg.content.decode(), [1.0])

    def test_conditional_unbiasedness_toward_received_model(self):
        # fixing the received quantized model, averaging decoded messages over
        # (sample, quantization) draws recovers grad f(Q(x)) - grad f(snapshot)
        prob = logistic_problem(synth_dataset(12, 5, 3), 1e-4, 1e-3)
        rng = rng_of(4)
        snapshot = rng.normal(size=prob.d)
        xq = quantize_vector(snapshot + 0.3 * rng.normal(size=prob.d),
                             8, rng).decode()
        target = prob.full_grad(xq) - prob.full_grad(snapshot)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b=6)
        n_draws = 40_000
        acc = np.zeros(prob.d)
        for _ in range(n_draws):
            batch = rng.integers(0, prob.n, size=1)
            alpha = prob.grad_batch(batch, xq) - prob.grad_batch(batch, snapshot)
            acc += gradient_message(alpha, cfg, rng).content.decode()
        err = np.abs(acc / n_draws - target)
        assert np.max(err) < 0.02  # ~4 sigma for this sample count and scale

    def test_semi_stochastic_mean_exact_by_enumeration(self):
        # over exact sample enumeration the gradient differences telescope
        # with the snapshot gradient to the full gradient at the received
        # model; quantization adds no bias on top (its exact mean is its input)
        prob = logistic_problem(synth_dataset(15, 4, 8), 1e-4, 1e-3)
        rng = rng_of(30)
        snapshot = rng.normal(size=prob.d)
        xq = quantize_vector(snapshot + 0.2 * rng.normal(size=prob.d),
                             8, rng).decode()
        alphas = [
            grad_sample(prob, i, xq) - grad_sample(prob, i, snapshot)
            for i in range(prob.n)
        ]
        u_mean = np.mean(alphas, axis=0) + prob.full_grad(snapshot)
        np.testing.assert_allclose(u_mean, prob.full_grad(xq), atol=1e-13)

    def test_sparse_worker_zero_gradient_is_empty_message(self):
        cfg = AlgoConfig(algo=Algorithm.SPARSE_ASYLPG, b=8)
        msg = gradient_message(np.zeros(40), cfg, rng_of(5))
        assert msg.kind is MessageKind.SPARSE
        assert msg.bits == 32 and msg.content.nnz == 0
        assert msg.content.grid.delta == 0.0
        np.testing.assert_array_equal(msg.content.decode(), np.zeros(40))

    def test_sparse_worker_unbiasedness(self):
        alpha = np.array([3.0, 1.0])
        cfg = AlgoConfig(algo=Algorithm.SPARSE_ASYLPG, b=10)
        rng = rng_of(6)
        n = 30_000
        acc = np.zeros(2)
        nnz = 0
        for _ in range(n):
            msg = gradient_message(alpha, cfg, rng)
            acc += msg.content.decode()
            nnz += msg.content.nnz
        np.testing.assert_allclose(acc / n, alpha, atol=0.05)
        assert nnz / n == pytest.approx(4.0 / 3.0, abs=0.02)

    def test_full_precision_width_bypasses_quantization(self):
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b=32)
        alpha = rng_of(7).normal(size=9)
        msg = gradient_message(alpha, cfg, rng_of(8))
        assert msg.kind is MessageKind.FULL and msg.bits == 32 * 9
        np.testing.assert_array_equal(msg.content, alpha)


class TestModelMessage:
    def test_flag_path_when_iterate_equals_snapshot(self):
        x = rng_of(9).normal(size=6)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=0.1)
        msg, diag = model_message(x, x.copy(), cfg, rng_of(10))
        assert msg.kind is MessageKind.FLAG and msg.bits == 1
        assert diag["mu_required"] is None

    def test_quantized_path_bits(self):
        rng = rng_of(11)
        x, snap = rng.normal(size=300), rng.normal(size=300)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=1e9)
        msg, diag = model_message(x, snap, cfg, rng)
        assert msg.kind is MessageKind.DENSE
        assert msg.bits == 32 + 8 * 300
        assert diag["b_x_used"] == 8 and not diag["violation"]

    def test_widening_enforces_budget(self):
        rng = rng_of(12)
        x = rng.normal(size=50)
        snap = x + 1e-4 * rng.normal(size=50)  # tiny gap forces wide widths
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=0.1, bx_adapt=True)
        msg, diag = model_message(x, snap, cfg, rng)
        assert diag["b_x_used"] > 8
        assert not diag["violation"]

    def test_widening_never_narrows(self):
        # width 3 is exact on [1, 1/3] (delta 1/3) but width 8 is not: the
        # search must look above b_x, where width 9 (delta 1/255) is exact
        x = np.array([1.0, 1.0 / 3.0])
        snap = x + np.array([0.005, 0.0])
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=0.1, bx_adapt=True)
        msg, diag = model_message(x, snap, cfg, rng_of(17))
        budget = 0.1 * float(np.sum((x - snap) ** 2))
        assert diag["b_x_used"] == 9 and not diag["violation"]
        assert msg.kind is MessageKind.DENSE and msg.bits == 32 + 9 * 2
        assert expected_sq_error(x, grid_for(x, 9)) <= budget

    def test_fixed_width_logs_violation(self):
        rng = rng_of(13)
        x = rng.normal(size=50)
        snap = x + 1e-4 * rng.normal(size=50)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=0.1, bx_adapt=False)
        msg, diag = model_message(x, snap, cfg, rng)
        assert msg.kind is MessageKind.DENSE and diag["violation"]

    def test_baselines_send_full_even_at_snapshot(self):
        x = rng_of(14).normal(size=6)
        for algo in (Algorithm.QSVRG, Algorithm.ASYFPG):
            cfg = AlgoConfig(algo=algo)
            msg, _ = model_message(x, x.copy(), cfg, rng_of(15))
            assert msg.kind is MessageKind.FULL and msg.bits == 32 * 6

    def test_momentum_budget_tightens_with_epoch(self):
        rng = rng_of(16)
        x, snap = rng.normal(size=64), rng.normal(size=64)
        diff_sq = float(np.sum((x - snap) ** 2))
        results = [choose_bx(x, momentum_weight(s) * 0.05 * diff_sq)
                   for s in range(1, 30)]
        widths = [32 if r is None else r.grid.bits for r in results]
        assert all(a <= b for a, b in zip(widths, widths[1:]))


def reference_model_message(x, snap, cfg, rng, mu_scale):
    """``model_message`` for a model-quantizing algorithm, composed from the
    public quantizer functions."""
    diag = {"mu_required": None, "mu_probes": {}, "b_x_used": None,
            "violation": False, "search_failed": False}
    if np.array_equal(x, snap):
        return MessageKind.FLAG, 1, None, None, diag
    diff_sq = float(np.sum((x - snap) ** 2))
    budget = mu_scale * cfg.mu * diff_sq
    diag["mu_required"] = mu_required(x, snap, cfg.b_x)
    diag["mu_probes"] = {w: mu_required(x, snap, w) for w in cfg.mu_probe_widths}
    b_use = cfg.b_x
    if diag["mu_required"] * diff_sq > budget:
        if cfg.bx_adapt:
            found = choose_bx(x, budget, cfg.b_x + 1)
            b_use = 32 if found is None else found.grid.bits
            diag["search_failed"] = found is None
        else:
            diag["violation"] = True
    diag["b_x_used"] = b_use
    if b_use == 32:
        return MessageKind.FULL, 32 * x.size, None, x, diag
    grid = grid_for(x, b_use)
    if grid.delta == 0.0:
        codes = np.zeros(x.size, dtype=np.int64)
    else:
        codes = quantize_on_grid(x, grid, rng).codes
    return MessageKind.DENSE, 32 + b_use * x.size, grid, codes, diag


class TestModelMessageReference:
    @pytest.mark.parametrize("d", [1, 7, 300])
    @pytest.mark.parametrize("b_x", [2, 8, 31])
    def test_matches_public_functions(self, d, b_x):
        gen = rng_of(40 + d + b_x)
        widened = failed = 0
        for mu in (0.0, 1e-6, 1e-2, 0.1, 10.0, 1e9):
            for bx_adapt in (True, False):
                for probes in ((), (4, 8)):
                    cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=b_x, mu=mu,
                                     bx_adapt=bx_adapt, mu_probe_widths=probes)
                    for mu_scale in (1.0, 0.4):
                        x = gen.normal(size=d) * 10.0 ** gen.uniform(-3, 3)
                        for snap in (x + 1e-4 * gen.normal(size=d),
                                     gen.normal(size=d)):
                            for v in (x, np.zeros(d)):
                                rng = rng_of(int(gen.integers(1 << 30)))
                                ref_rng = copy.deepcopy(rng)
                                msg, diag = model_message(v, snap, cfg, rng,
                                                          mu_scale)
                                kind, bits, grid, content, ref_diag = \
                                    reference_model_message(v, snap, cfg,
                                                            ref_rng, mu_scale)
                                assert msg.kind is kind and msg.bits == bits
                                assert diag == ref_diag
                                # the same draws: both streams go on alike
                                np.testing.assert_array_equal(
                                    rng.bit_generator.random_raw(4),
                                    ref_rng.bit_generator.random_raw(4))
                                if kind is MessageKind.DENSE:
                                    assert msg.content.grid == grid
                                    np.testing.assert_array_equal(
                                        msg.content.codes, content)
                                else:
                                    np.testing.assert_array_equal(
                                        msg.content, content)
                                widened += diag["b_x_used"] > b_x
                                failed += diag["search_failed"]
        # the cases reach the widening search and its exhaustion; a single
        # value lies on its covering grid, so at d = 1 nothing widens
        assert d == 1 or (widened > 0 and failed > 0)


class _FloorCounter:
    """Stands in for numpy in ``quantizer``: counts ``np.floor`` calls, one
    per vector rounded on a grid."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def floor(self, a):
        self.calls += 1
        return np.floor(a)


class TestModelMessageRoundings:
    def count(self, monkeypatch, x, snap, cfg):
        counter = _FloorCounter()
        monkeypatch.setattr(quantizer, "np", counter)
        _, diag = model_message(x, snap, cfg, rng_of(30))
        monkeypatch.undo()
        return counter.calls, diag["b_x_used"]

    def test_unwidened_broadcast_rounds_once(self, monkeypatch):
        rng = rng_of(31)
        x, snap = rng.normal(size=300), rng.normal(size=300)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=1e9)
        assert self.count(monkeypatch, x, snap, cfg) == (1, 8)
        # a probe adds a rounding only at a width not yet rounded
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=1e9,
                         mu_probe_widths=(4, 8))
        assert self.count(monkeypatch, x, snap, cfg) == (2, 8)

    def test_widened_broadcast_rounds_once_per_width(self, monkeypatch):
        # widths 8 (rejected) and 9 (accepted, see test_widening_never_narrows)
        x = np.array([1.0, 1.0 / 3.0])
        snap = x + np.array([0.005, 0.0])
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=0.1)
        assert self.count(monkeypatch, x, snap, cfg) == (2, 9)
        # a zero budget tries every width from 8 to 32, then sends in full
        rng = rng_of(32)
        x, snap = rng.normal(size=20), rng.normal(size=20)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b_x=8, mu=0.0)
        assert self.count(monkeypatch, x, snap, cfg) == (25, 32)


class TestMasterStep:
    def test_plain_gradient_step(self):
        # no h, u = snapshot gradient = 1 at x0 = 1, so x1 = 1 - 0.1 = 0.9
        prob = QuadProblem(n=4, d=1)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, epochs=1, m=1, eta=0.1,
                         b_x=32, b=32, track_grad_mapping=False)
        res = run_training(prob, cfg, x0=np.array([1.0]))
        assert res.final_x[0] == pytest.approx(0.9, abs=1e-15)

    def test_soft_threshold_after_step(self):
        # pre-prox value 0.9, eta*lambda1 = 0.05 -> 0.85
        prob = QuadProblem(n=4, d=1, lambda1=0.5)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, epochs=1, m=1, eta=0.1,
                         b_x=32, b=32, track_grad_mapping=False)
        res = run_training(prob, cfg, x0=np.array([1.0]))
        assert res.final_x[0] == pytest.approx(0.85, abs=1e-15)

    def test_matches_serial_prox_svrg_exactly(self):
        prob = logistic_problem(synth_dataset(200, 12, 5), 1e-5, 1e-4)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, epochs=2, m=15, eta=0.4,
                         b_x=32, b=32, batch_size=3, seed=21, tau=0,
                         track_grad_mapping=False)
        res = run_training(prob, cfg)
        _, wrngs, _, _, _ = make_streams(21, 1)
        ref = serial_prox_svrg(prob, 2, 15, 0.4, 3, wrngs[0])
        np.testing.assert_array_equal(res.final_x, ref[-1])


class TestAccelerated:
    def test_momentum_weights(self):
        assert momentum_weight(1) == pytest.approx(2.0 / 3.0)
        assert momentum_weight(2) == pytest.approx(0.5)
        assert momentum_weight(3) == pytest.approx(0.4)

    def test_theory_step_sizes(self):
        prob = QuadProblem(n=8, d=3)  # smoothness 1
        cfg = AlgoConfig(algo=Algorithm.ACC_ASYLPG, epochs=3, m=2, sigma=2.0,
                         eta_mode="theory", b_x=32, b=32,
                         track_grad_mapping=False)
        res = run_training(prob, cfg)
        assert res.eta_used[0] == pytest.approx(0.75)  # 1/(2*1*(2/3))
        assert res.eta_used[1] == pytest.approx(1.0)
        assert res.eta_used[2] == pytest.approx(1.25)

    def test_experiment_mode_divides_by_theta(self):
        prob = QuadProblem()
        cfg = AlgoConfig(algo=Algorithm.ACC_ASYLPG, epochs=2, m=2, eta=0.1,
                         b_x=32, b=32, track_grad_mapping=False)
        res = run_training(prob, cfg)
        assert res.eta_used[0] == pytest.approx(0.1 / (2.0 / 3.0))
        assert res.eta_used[1] == pytest.approx(0.1 / 0.5)

    def test_coupling_identity_every_step(self):
        # without gradient mappings each update adds one metric column, its
        # post-update x; the auxiliary y is what prox returns, and an
        # epoch's snapshot is what the barrier's first range is taken at
        prob = logistic_problem(synth_dataset(120, 8, 6), 1e-5, 1e-4)
        cfg = AlgoConfig(algo=Algorithm.ACC_ASYLPG, epochs=3, m=12, eta=0.05,
                         b_x=8, b=8, mu=0.1, tau=2, seed=2, batch_size=2,
                         track_grad_mapping=False)
        workers = [UniformLatency(1, 3)] * 3
        xs, ys, snapshots = [], [], []

        def keep_snapshot(args, _):
            if args[0] == 0:
                snapshots.append(args[2])

        record(prob, "loss_and_grads",
               lambda args, _: xs.extend(args[0].T.copy()))
        record(prob, "prox", lambda args, y: ys.append(y))
        record(prob, "grad_range_sum", keep_snapshot)
        run_training(prob, cfg, workers)
        assert len(xs) == len(ys) == 36 and len(snapshots) == 3
        for k, (x, y) in enumerate(zip(xs, ys)):
            snapshot = snapshots[k // 12]
            theta = momentum_weight(k // 12 + 1)
            lhs = x - snapshot
            rhs = theta * (y - snapshot)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_output_is_final_averaged_snapshot(self):
        prob = QuadProblem(n=4, d=2)
        cfg = AlgoConfig(algo=Algorithm.ACC_ASYLPG, epochs=2, m=3, eta=0.1,
                         b_x=32, b=32, track_grad_mapping=False)
        xs = []
        record(prob, "loss_and_grads",
               lambda args, _: xs.extend(args[0].T.copy()))
        res = run_training(prob, cfg, x0=np.array([1.0, -2.0]))
        assert len(xs) == 6
        np.testing.assert_allclose(res.output, np.mean(xs[-3:], axis=0),
                                   atol=1e-15)
        np.testing.assert_array_equal(res.output, res.final_snapshot)


class TestTheoryConstants:
    def test_dense_variance_constant(self):
        prob = QuadProblem(n=4, d=784)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b=4, m=10, eta=0.01)
        report = theory_constants(cfg, prob)
        assert report["delta"] == pytest.approx(4.0)

    def test_sparse_variance_constant(self):
        prob = QuadProblem(n=4, d=100)
        cfg = AlgoConfig(algo=Algorithm.SPARSE_ASYLPG, b=8, m=10, eta=0.01,
                         phi=10.0)
        report = theory_constants(cfg, prob)
        assert report["gamma"] == pytest.approx(11.0155, abs=1e-3)

    def test_unquantized_condition_vs_serial_reference(self):
        # mu = 0 (baseline), b = 32, tau = 0: condition is 16 rho^2 m^2 + rho,
        # twice the curvature of the serial reference's 4 rho^2 m^2 + rho
        prob = QuadProblem(n=4, d=50)
        cfg = AlgoConfig(algo=Algorithm.ASYFPG, b=32, b_x=32, m=10, eta=0.002,
                         tau=0)
        report = theory_constants(cfg, prob)
        rho = report["rho"]
        assert report["step_condition_dense"] == pytest.approx(
            16 * rho**2 * 100 + rho
        )
        assert report["serial_condition"] == pytest.approx(4 * rho**2 * 100 + rho)

    def test_theory_rho_saturates_condition(self):
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b=8, b_x=8, mu=0.1, m=25, tau=3,
                         eta_mode="theory")
        rho = theory_rho(cfg, d=100)
        delta = 100 / (4.0 * 127**2)
        factor = 1.1 * (delta + 2.0)
        lhs = (8 * rho**2 * 625 + 2 * rho**2 * 9) * factor + rho
        assert lhs == pytest.approx(1.0, abs=1e-9)
        assert 0 < rho < 0.5

    def test_rate_bound_arithmetic(self):
        prob = QuadProblem(n=4, d=10)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, b=32, b_x=32, m=5, epochs=4,
                         eta=0.01)
        x0 = np.ones(10)
        report = theory_constants(cfg, prob, p_star=0.0, x0=x0)
        rho = 0.01 * 1.0
        expected = 2 * 1.0 * (prob.objective(x0) - 0.0) / (rho * (1 - 2 * rho) * 20)
        assert report["rate_bound"] == pytest.approx(expected)

    def test_momentum_tau_bound_reports_binding_epoch(self):
        prob = QuadProblem(n=4, d=64)
        cfg = AlgoConfig(algo=Algorithm.ACC_ASYLPG, b=8, b_x=8, mu=0.1,
                         epochs=6, m=5, sigma=4.0, eta=0.1)
        report = theory_constants(cfg, prob)
        assert len(report["tau_bound_per_epoch"]) == 6
        assert report["tau_bound"] == min(b for _, b in report["tau_bound_per_epoch"])
        assert report["theta"][0] == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("eta_mode", ["constant", "theory"])
    def test_momentum_eta_schedule_is_the_run_schedule(self, eta_mode):
        prob = logistic_problem(synth_dataset(300, 20, 3), 1e-3, 1e-3)
        cfg = AlgoConfig(algo=Algorithm.ACC_ASYLPG, epochs=3, m=5, eta=0.2,
                         eta_mode=eta_mode, track_grad_mapping=False)
        report = theory_constants(cfg, prob)
        assert report["eta_schedule"] == run_training(prob, cfg).eta_used
        if eta_mode == "constant":
            # eta / theta with theta = 2 / (s + 2)
            assert report["eta_schedule"] == pytest.approx([0.3, 0.4, 0.5])
        else:
            assert report["eta_schedule"] == [
                1.0 / (cfg.sigma * prob.smoothness * momentum_weight(s))
                for s in (1, 2, 3)
            ]


class TestCommunicationAccounting:
    def run_bits(self, algo, b, seed=31):
        prob = logistic_problem(synth_dataset(150, 40, 9), 1e-5, 1e-4)
        cfg = AlgoConfig(algo=algo, epochs=2, m=10, eta=0.2, b_x=b, b=b,
                         mu=0.5, tau=2, seed=seed, batch_size=2,
                         track_grad_mapping=False)
        workers = [UniformLatency(1, 3)] * 2
        return run_training(prob, cfg, workers)

    def test_monotone_in_width(self):
        res4 = self.run_bits(Algorithm.ASYLPG, 4)
        res8 = self.run_bits(Algorithm.ASYLPG, 8)
        fpg = self.run_bits(Algorithm.ASYFPG, 32)
        # identical event patterns: message counts match across widths
        count = lambda r: sum(c for c, _ in per_kind(r.ledger).values())
        assert count(res4) == count(res8) == count(fpg)
        assert res4.ledger.total_bits < res8.ledger.total_bits
        assert res8.ledger.total_bits < fpg.ledger.total_bits

    def test_qsvrg_broadcasts_full_models_and_quantized_gradients(self):
        res = self.run_bits(Algorithm.QSVRG, 8)
        kinds = per_kind(res.ledger)
        assert "snapshot_flag" not in kinds
        assert "quantized_dense" in kinds  # gradients
        ups = [r for r in res.ledger.rows if r.direction == "up"
               and r.kind != "full_barrier"]
        assert all(r.kind == "quantized_dense" for r in ups)
        downs = [r for r in res.ledger.rows if r.direction == "down"
                 and r.kind != "full_barrier"]
        assert all(r.kind == "full" for r in downs)

    def test_full_precision_sentinel_widths(self):
        res = self.run_bits(Algorithm.ASYLPG, 32)
        kinds = set(per_kind(res.ledger))
        assert kinds <= {"full", "snapshot_flag", "full_barrier"}

    def test_metrics_rows_carry_message_metadata(self):
        res = self.run_bits(Algorithm.ASYLPG, 8)
        assert len(res.metrics) == 20
        for row in res.metrics:
            assert row["cumulative_bits"] > 0
            assert 0 <= row["staleness"] <= 2
        assert any(row["mu_required"] is not None for row in res.metrics)

    def test_zero_violations_with_widening(self):
        res = self.run_bits(Algorithm.ASYLPG, 8)
        assert res.violations == 0

    def test_fixed_width_tiny_budget_violates(self):
        prob = logistic_problem(synth_dataset(100, 20, 10), 1e-5, 1e-4)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, epochs=2, m=8, eta=0.2, b_x=2,
                         b=8, mu=1e-12, bx_adapt=False, seed=3,
                         track_grad_mapping=False)
        res = run_training(prob, cfg)
        assert res.violations > 0


class TestWireBytes:
    @pytest.mark.parametrize("execution", ["simulated", "threads"])
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_training_never_packs_a_payload(self, algo, execution, monkeypatch):
        # the ledger charges counted bits and the master consumes typed
        # values, so a run has no reader for wire bytes; both the message
        # packer and the code-field packer it calls are refused
        def refuse(*args):
            raise AssertionError("a training run packed a wire payload")

        monkeypatch.setattr(codec, "_pack_fields", refuse)
        monkeypatch.setattr(codec, "_pack_message", refuse)
        prob = logistic_problem(synth_dataset(60, 12, 4), 1e-4, 1e-3)
        cfg = AlgoConfig(algo=algo, epochs=2, m=10, eta=0.2, b_x=4, b=6,
                         tau=2, seed=5, batch_size=2, execution=execution)
        workers = [UniformLatency(1, 3)] * 3
        res = run_training(prob, cfg, workers)
        assert len(res.metrics) == 20 and res.ledger.total_bits > 0


class TestMetricColumns:
    """train_loss and grad_mapping_sq are evaluated after the fact, in
    blocks of recorded iterates."""

    @pytest.mark.parametrize("shape", [(300, 20), (5000, 300)])
    @pytest.mark.parametrize("algo,metric_every", [("asylpg", 1),
                                                   ("acc_asylpg", 1),
                                                   ("asylpg", 3)])
    def test_metrics_do_not_depend_on_block_size(self, shape, algo,
                                                 metric_every, tmp_path,
                                                 monkeypatch):
        # m=32 records 33 iterates per epoch: blocks of 32 and of 2 leave a
        # one-iterate tail, blocks of 5 a three-iterate one
        n, d = shape
        raw = {"problem": {"kind": "synth_logistic", "n": n, "d": d, "seed": 2,
                           "lambda1": 1e-3, "lambda2": 1e-3},
               "algo": {"algo": algo, "epochs": 2, "m": 32, "eta": 0.3,
                        "tau": 2, "batch_size": 4, "seed": 3,
                        "metric_every": metric_every},
               "workers": {"count": 2, "latency": {"kind": "fixed", "ticks": 1}}}
        outputs = set()
        for block in (2, 5, 32):
            monkeypatch.setattr(optim, "_METRIC_BLOCK", block)
            out = tmp_path / str(block)
            report = run_experiment(parse_config(
                {**raw, "run": {"out_dir": str(out), "loss_target": None}}))
            outputs.add(((out / "metrics.csv").read_bytes(),
                         report.min_grad_mapping_sq))
        assert len(outputs) == 1

    @staticmethod
    def flushed(prob, xs, etas):
        """(train_loss, grad_mapping_sq) per iterate, from one flush of the
        run's metric columns; a None in ``etas`` asks for no mapping."""
        eta = next((e for e in etas if e is not None), 1.0)
        columns = optim._MetricColumns(prob, len(xs))
        for j, (x, e) in enumerate(zip(xs, etas)):
            columns.add(x, eta, j, None if e is None else j)
        columns.flush(eta)
        return list(zip(columns.losses, columns.gmaps))

    @pytest.mark.parametrize("width", [1, 2, 32, 33])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_buffer_keeps_the_stacked_copy_bits(self, width, storage):
        # 33 columns are a full block and then a lone column, written over
        # the first block's iterates
        data = synth_dataset(300, 40, 5)
        prob = logistic_problem(as_csr(data) if storage == "csr" else data,
                                0.02, 1e-3)
        rng = rng_of(8)
        xs = [rng.normal(scale=0.2, size=prob.d) for _ in range(width)]
        eta = 0.3
        columns = optim._MetricColumns(prob, width)
        for j, x in enumerate(xs):
            x = x.copy()
            columns.add(x, eta, j, j if j % 3 else None)
            x[:] = np.inf  # the column keeps the iterate as it was added
        columns.flush(eta)
        losses, gmaps = [], [None] * width
        for lo in range(0, width, optim._METRIC_BLOCK):
            block = xs[lo:lo + optim._METRIC_BLOCK]
            mapped = [j for j in range(len(block)) if (lo + j) % 3]
            block_losses, block_gmaps = metric_block_stacked(
                prob, block, eta, mapped)
            losses += block_losses
            for j, gmap in zip(mapped, block_gmaps):
                gmaps[lo + j] = gmap
        assert columns.losses == losses
        assert columns.gmaps == gmaps

    @pytest.mark.parametrize("width", [1, 2, 7])
    @pytest.mark.parametrize("box", [None, 0.05])
    def test_block_matches_per_iterate_calls(self, width, box):
        prob = logistic_problem(synth_dataset(200, 30, 6), 0.02, 1e-3,
                                box_radius=box)
        rng = rng_of(7)
        xs = [rng.normal(scale=0.2, size=prob.d) for _ in range(width)]
        for eta in (0.1, 2.0):
            block = self.flushed(prob, xs, [eta] * width)
            assert len(block) == width
            for x, (loss, gmap) in zip(xs, block):
                assert loss == pytest.approx(prob.objective(x), rel=1e-12)
                assert gmap == pytest.approx(
                    gradient_mapping_norm(prob, x, eta), rel=1e-12)
            some = [eta if j % 2 else None for j in range(width)]
            assert self.flushed(prob, xs, some) == [
                (loss, gmap if e is not None else None)
                for (loss, gmap), e in zip(block, some)]
        assert [g for _, g in self.flushed(prob, xs, [None] * width)] == \
            [None] * width

    @pytest.mark.parametrize("algo", [Algorithm.ASYLPG, Algorithm.ACC_ASYLPG])
    @pytest.mark.parametrize("box,storage", [
        (None, "dense"), (0.05, "dense"), (None, "csr"), (0.05, "csr"),
    ], ids=["None", "0.05", "None-csr", "0.05-csr"])
    def test_run_matches_per_iterate_evaluation(self, algo, box, storage,
                                                monkeypatch):
        # the momentum variant's step size changes every epoch; with the
        # base class's loss_and_grads the run evaluates per iterate
        data = synth_dataset(150, 25, 8)
        if storage == "csr":
            data = as_csr(data)
        assert isinstance(data.matrix, np.ndarray) == (storage == "dense")
        prob = logistic_problem(data, 0.02, 1e-3, box_radius=box)
        cfg = AlgoConfig(algo=algo, epochs=3, m=20, eta=0.2, b_x=6, b=6,
                         tau=2, seed=9, batch_size=3)
        workers = [UniformLatency(1, 3)] * 2
        blocked = run_training(prob, cfg, workers)
        monkeypatch.setattr(LogisticProblem, "loss_and_grads",
                            CompositeProblem.loss_and_grads)
        per_iterate = run_training(prob, cfg, workers)
        assert len(blocked.metrics) == len(per_iterate.metrics) == 60
        for row, ref in zip(blocked.metrics, per_iterate.metrics):
            for key in ("train_loss", "grad_mapping_sq"):
                assert row[key] == pytest.approx(ref[key], rel=1e-12)
            rest = {k: v for k, v in row.items()
                    if k not in ("train_loss", "grad_mapping_sq")}
            assert rest == {k: ref[k] for k in rest}
        assert blocked.min_grad_mapping_sq == pytest.approx(
            per_iterate.min_grad_mapping_sq, rel=1e-12)
        assert blocked.ledger.total_bits == per_iterate.ledger.total_bits

    @pytest.mark.parametrize("execution,storage", [
        ("simulated", "dense"), ("threads", "dense"),
        ("simulated", "csr"), ("threads", "csr"),
    ], ids=["simulated", "threads", "simulated-csr", "threads-csr"])
    def test_dense_run_makes_no_per_iterate_metric_call(self, execution,
                                                        storage, monkeypatch):
        def refuse(*args):
            raise AssertionError("a metric was evaluated per iterate")

        data = synth_dataset(80, 10, 4)
        if storage == "csr":
            data = as_csr(data)
        assert isinstance(data.matrix, np.ndarray) == (storage == "dense")
        monkeypatch.setattr(CompositeProblem, "objective", refuse)
        monkeypatch.setattr(CompositeProblem, "loss_and_grads", refuse)
        monkeypatch.setattr(CompositeProblem, "full_grad", refuse)
        prob = logistic_problem(data, 1e-3, 1e-3)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, epochs=2, m=12, eta=0.2,
                         tau=2, seed=5, batch_size=2, execution=execution)
        workers = [UniformLatency(1, 3)] * 2
        res = run_training(prob, cfg, workers)
        assert all(row["train_loss"] is not None and
                   row["grad_mapping_sq"] is not None for row in res.metrics)
        assert res.min_grad_mapping_sq == min(
            row["grad_mapping_sq"] for row in res.metrics)

    def test_csr_loss_only_columns_take_no_gradient(self, monkeypatch):
        # with metric_every=3 a metric column feeds a train_loss or a
        # grad_mapping_sq, never both; only the latter may cost a column of
        # the transposed product, which on CSR storage is a CSC product
        from scipy.sparse import csc_array

        prob = logistic_problem(as_csr(synth_dataset(90, 12, 4)), 1e-3, 1e-3)
        columns = []
        inner_matmul = csc_array.__matmul__

        def counted_matmul(matrix, w):
            columns.append(w.shape[1] if np.ndim(w) == 2 else 1)
            return inner_matmul(matrix, w)

        blocks = []  # (loss-only columns, mapping columns, product columns)
        inner_flush = optim._MetricColumns.flush

        def counted_flush(self, eta):
            before = len(columns)
            mapped = sum(gmap_row is not None for _, gmap_row in self._rows)
            loss_only = len(self._rows) - mapped
            inner_flush(self, eta)
            blocks.append((loss_only, mapped, sum(columns[before:])))

        monkeypatch.setattr(csc_array, "__matmul__", counted_matmul)
        monkeypatch.setattr(optim._MetricColumns, "flush", counted_flush)
        cfg = AlgoConfig(algo=Algorithm.ASYLPG, epochs=2, m=12, eta=0.2,
                         tau=2, seed=5, batch_size=2, metric_every=3)
        workers = [UniformLatency(1, 3)] * 2
        res = run_training(prob, cfg, workers)
        assert sum(loss_only for loss_only, _, _ in blocks) == 8
        assert sum(mapped for _, mapped, _ in blocks) == 8
        assert all(mapped == cols for _, mapped, cols in blocks)
        for row in res.metrics:
            kept = row["t_global"] % 3 == 0
            assert (row["train_loss"] is not None) == kept
            assert (row["grad_mapping_sq"] is not None) == kept


class TestConfigValidation:
    def test_momentum_needs_sigma_above_one(self):
        with pytest.raises(ValueError):
            AlgoConfig(algo=Algorithm.ACC_ASYLPG, sigma=1.0)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            AlgoConfig(b_x=1)
        with pytest.raises(ValueError):
            AlgoConfig(b=40)

    def test_misc_bounds(self):
        with pytest.raises(ValueError):
            AlgoConfig(m=0)
        with pytest.raises(ValueError):
            AlgoConfig(eta=-1.0)
        with pytest.raises(ValueError):
            AlgoConfig(eta_mode="magic")
        with pytest.raises(ValueError):
            AlgoConfig(phi=0.0)
        with pytest.raises(ValueError):
            AlgoConfig(batch_size=0)
