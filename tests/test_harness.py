import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from dqsim import harness
from dqsim.harness import (
    ProblemConfig,
    RunConfig,
    build_problem,
    build_workers,
    compare_suite,
    figure_mu_trace,
    load_config,
    lr_grid_search,
    oracle_best_loss,
    parse_config,
    resolve_loss_target,
    run_experiment,
)
from dqsim.optim import AlgoConfig
from dqsim.problems import CompositeProblem, LogisticProblem, synth_dataset
from dqsim.simnet import FixedLatency, GeometricLatency, UniformLatency

from oracles import as_csr, write_libsvm

BASE = {
    "problem": {"kind": "synth_logistic", "n": 400, "d": 30, "seed": 2,
                "lambda1": 1e-5, "lambda2": 1e-4},
    "algo": {"algo": "asylpg", "epochs": 3, "m": 20, "eta": 0.5, "b_x": 8,
             "b": 8, "mu": 0.1, "tau": 2, "batch_size": 5, "seed": 7,
             "track_grad_mapping": False},
    "workers": {"count": 3, "latency": {"kind": "uniform", "low": 1, "high": 3}},
    "run": {"loss_target": None},
}


def base_config(**run_overrides):
    raw = json.loads(json.dumps(BASE))
    raw["run"].update(run_overrides)
    return parse_config(raw)


def serial_config():
    raw = json.loads(json.dumps(BASE))
    raw["algo"].update({"tau": 0, "b_x": 32, "b": 32})
    raw["workers"] = {"count": 1, "latency": {"kind": "fixed", "ticks": 1}}
    return parse_config(raw)


class ShiftedQuad(CompositeProblem):
    """f_a(x) = (x - 1)^2 / 2 for every sample; optimum at 1."""

    n, d, smoothness = 6, 1, 1.0

    def f_value(self, x):
        return 0.5 * float((x[0] - 1.0) ** 2)

    def h_value(self, x):
        return 0.0

    def grad_batch(self, idx, x):
        return x - 1.0

    def grad_range_sum(self, lo, hi, x):
        return (hi - lo) * (x - 1.0)

    def prox(self, eta, v):
        return v


class TestConfig:
    def test_defaults_materialized_and_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": {"n": 123}}))
        cfg = load_config(path)
        assert cfg.problem.n == 123
        assert cfg.problem.lambda2 == 1e-4  # default materialized
        assert cfg.algo["b_x"] == 8
        # serialize -> parse is identical once defaults are in place
        again = parse_config(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_config({"algo": {"learning_rate": 0.1}})
        with pytest.raises(ValueError, match="unknown"):
            parse_config({"extra_section": {}})
        with pytest.raises(ValueError, match="unknown"):
            parse_config({"run": {"repetitions": 3}})
        # the seed has one key, algo.seed
        with pytest.raises(ValueError, match="unknown key in config section 'run'"):
            parse_config({"run": {"seed": 9}})
        # h is lambda1 ||x||_1 alone: the logistic problem has no box
        with pytest.raises(ValueError,
                           match="unknown key in config section 'problem'"):
            parse_config({"problem": {"box_radius": 1.0}})
        # a config or a section that is not an object is refused as such;
        # a null section takes every default
        for raw in ([], {"problem": [1]}, {"problem": []}, {"problem": 0},
                    {"workers": False}, {"run": ""}):
            with pytest.raises(ValueError, match="must be a JSON object"):
                parse_config(raw)
        assert parse_config({"problem": None, "workers": None}) == parse_config({})

    def test_missing_dataset_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            parse_config({"problem": {"kind": "libsvm_logistic", "path": "/nope"}})

    def test_algo_section_is_algo_config(self):
        # every AlgoConfig field is a config key with the same default, and
        # the materialized section is the one configs have always written
        defaults = parse_config({}).algo
        assert list(defaults) == [f.name for f in dataclasses.fields(AlgoConfig)]
        assert parse_config({}).algo_config() == AlgoConfig()
        assert json.dumps(defaults) == json.dumps({
            "algo": "asylpg", "epochs": 5, "m": 20, "eta": 0.1, "b_x": 8,
            "b": 8, "mu": 0.1, "phi": None, "tau": 0, "sigma": 2.0,
            "batch_size": 1, "seed": 0, "eta_mode": "constant",
            "bx_adapt": True, "mu_probe_widths": [], "metric_every": 1,
            "track_grad_mapping": True, "execution": "simulated"})
        assert AlgoConfig(mu_probe_widths=[8, 4]).mu_probe_widths == (8, 4)
        assert AlgoConfig(mu_probe_widths=None).mu_probe_widths == ()

    def test_problem_and_run_sections_are_their_configs(self):
        config = parse_config({})
        assert config.problem == ProblemConfig() and config.run == RunConfig()
        materialized = config.to_dict()
        assert json.dumps(materialized["problem"]) == json.dumps({
            "kind": "synth_logistic", "n": 1000, "d": 50, "seed": 0,
            "flip_prob": 0.0, "lambda1": 1e-5, "lambda2": 1e-4, "path": None,
            "hidden": 100, "classes": 10})
        assert json.dumps(materialized["run"]) == json.dumps({
            "out_dir": None, "loss_target": "auto", "oracle_iters": 2000})

    @pytest.mark.parametrize("section, key, value", [
        ("problem", "n", 60.5), ("problem", "n", True),
        ("problem", "lambda1", "0.1"), ("problem", "hidden", "a"),
        ("problem", "path", 5),
        ("problem", "lambda1", -1e-5), ("problem", "lambda2", -1.0),
        ("problem", "flip_prob", 2.0), ("problem", "flip_prob", -0.1),
        ("problem", "lambda1", math.inf), ("problem", "lambda2", math.inf),
        ("run", "out_dir", 5), ("run", "loss_target", math.nan),
        ("run", "loss_target", math.inf), ("run", "loss_target", -math.inf),
    ])
    def test_bad_problem_and_run_values_rejected_at_parse(self, section, key,
                                                          value, monkeypatch):
        # a wrong type or an out-of-range value fails where the config is
        # read, naming its field, before any problem is built
        def refuse(*args):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(harness, "build_problem", refuse)
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            parse_config({section: {key: value}})

    @pytest.mark.parametrize("section, values, key", [
        ("problem", {"n": 0}, "n"), ("problem", {"n": -5}, "n"),
        ("problem", {"d": 0}, "d"), ("problem", {"seed": -1}, "seed"),
        ("problem", {"kind": "synth_mlp", "hidden": 0}, "hidden"),
        ("problem", {"kind": "synth_mlp", "classes": 1}, "classes"),
        ("algo", {"seed": -1}, "seed"),
    ])
    def test_out_of_range_sizes_and_seeds_rejected_at_parse(
            self, section, values, key, monkeypatch):
        # each failed only at build or mid-run, or (hidden 0) ran to the end
        def refuse(*args):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(harness, "build_problem", refuse)
        with pytest.raises(ValueError, match=rf"\b{key} must be >= "):
            parse_config({section: values})

    @pytest.mark.parametrize("run, key", [
        ({"loss_target": "autoo"}, "run.loss_target"),
        ({"loss_target": True}, "run.loss_target"),
        ({"oracle_iters": -5}, "run.oracle_iters"),
    ])
    def test_bad_run_values_rejected_at_parse(self, run, key):
        with pytest.raises(ValueError, match=key):
            parse_config({"run": run})

    @pytest.mark.parametrize("key, value", [
        ("m", 2.5), ("tau", 1.5), ("epochs", True), ("b_x", 8.5),
        ("batch_size", 2.0), ("seed", 1.5), ("metric_every", 1.5),
        ("mu_probe_widths", [40]), ("mu_probe_widths", [True]),
        ("mu_probe_widths", 8), ("bx_adapt", "no"), ("track_grad_mapping", 1),
        ("eta", "0.1"), ("mu", True), ("sigma", "2"), ("phi", "4"),
        ("eta", math.nan), ("eta", math.inf), ("sigma", math.nan),
        ("phi", math.nan), ("phi", math.inf),
    ])
    def test_bad_algo_values_rejected_at_parse(self, key, value):
        # a wrong type or a non-finite value fails where the config is read,
        # naming its field, not late in the run or silently as another value
        with pytest.raises(ValueError, match=key):
            parse_config({"algo": {key: value}})

    def test_sparse_theory_mode_without_phi_rejected_at_parse(self):
        with pytest.raises(ValueError, match="eta_mode 'theory'.*needs phi"):
            parse_config({"algo": {"algo": "sparse_asylpg",
                                   "eta_mode": "theory"}})
        parse_config({"algo": {"algo": "sparse_asylpg", "eta_mode": "theory",
                               "phi": 4.0}})

    def test_theory_mode_without_smoothness_rejected_at_parse(self):
        with pytest.raises(ValueError, match="algo.eta_mode 'theory'"):
            parse_config({"problem": {"kind": "synth_mlp"},
                          "algo": {"eta_mode": "theory"}})

    def test_worker_construction(self):
        specs = build_workers({"count": 2, "latency": {"kind": "fixed", "ticks": 3}})
        assert all(isinstance(s, FixedLatency) for s in specs)
        specs = build_workers(
            {"count": 2,
             "latency": [{"kind": "uniform", "low": 1, "high": 2},
                         {"kind": "geometric", "p": 0.5}]}
        )
        assert isinstance(specs[0], UniformLatency)
        assert isinstance(specs[1], GeometricLatency)
        with pytest.raises(ValueError):
            build_workers({"count": 0, "latency": {"kind": "fixed", "ticks": 1}})

    @pytest.mark.parametrize("workers, match", [
        ({"latency": {"kind": "fixed", "tick": 3}}, "tick"),
        ({"latency": {"kind": "uniform", "low": 1.9, "high": 3}}, "low"),
        ({"latency": {"kind": "uniform", "low": 1}}, "high"),
        ({"latency": {"kind": "uniform", "low": 1, "high": 2**63}}, "high must be"),
        ({"latency": {"kind": "fixed", "ticks": "3"}}, "ticks"),
        ({"latency": {"kind": "geometric", "p": "0.5"}}, "p must be"),
        ({"latency": {"kind": "gauss"}}, "unknown latency kind"),
        ({"latency": "fixed"}, "must be an object"),
        ({"count": True}, "workers.count"),
        ({"count": 2.0}, "workers.count"),
        ({"count": 3, "latency": [{"kind": "fixed"}] * 2}, "2 entries"),
        ({"count": 1, "latency": [{"kind": "fixed"}] * 2}, "2 entries"),
    ], ids=["unknown_key", "float_low", "missing_high", "huge_high", "str_ticks",
            "str_p", "unknown_kind", "not_object", "bool_count", "float_count",
            "short_list", "long_list"])
    def test_bad_workers_rejected_at_parse(self, workers, match):
        with pytest.raises(ValueError, match=match):
            parse_config({"workers": workers})

    def test_fixed_latency_defaults_to_one_tick(self):
        specs = parse_config({"workers": {"count": 2, "latency": [
            {"kind": "fixed"}, {}]}}).workers
        assert build_workers(specs) == [FixedLatency(1)] * 2

    def test_problem_kinds(self):
        assert build_problem(base_config().problem).n == 400
        mlp_cfg = parse_config(
            {"problem": {"kind": "synth_mlp", "n": 30, "d": 6, "classes": 3,
                         "hidden": 4}}
        )
        prob = build_problem(mlp_cfg.problem)
        assert prob.smoothness is None

    def test_mlp_gets_the_configured_classes(self):
        # 20 draws of 10 classes leave one unlabelled; the network still
        # has an output for it, so d does not depend on the draw
        pcfg = parse_config({"problem": {"kind": "synth_mlp", "n": 20, "d": 2,
                                         "classes": 10, "seed": 1,
                                         "hidden": 4}}).problem
        prob = build_problem(pcfg)
        assert np.unique(prob.targets).size < 10
        assert prob.num_classes == 10 and prob.d == 4 * 2 + 4 + 10 * 4 + 10


class TestRunExperiment:
    def test_artifacts_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rep_a = run_experiment(base_config(out_dir=str(out_a)))
        rep_b = run_experiment(base_config(out_dir=str(out_b)))
        for name in ("metrics.csv", "ledger.csv", "trace.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report_a = json.loads((out_a / "report.json").read_text())
        report_b = json.loads((out_b / "report.json").read_text())
        report_a["out_dir"] = report_b["out_dir"] = None
        for key in ("metrics_csv", "ledger_csv", "trace_csv"):
            report_a[key] = report_b[key] = None
        report_a["config"]["run"]["out_dir"] = None
        report_b["config"]["run"]["out_dir"] = None
        assert report_a == report_b
        assert rep_a.total_bits == rep_b.total_bits

    def test_metrics_csv_schema(self, tmp_path):
        rep = run_experiment(base_config(out_dir=str(tmp_path / "run")))
        header = open(rep.metrics_csv).readline().strip()
        assert header == ("epoch,t,t_global,D_t,staleness,worker_id,train_loss,"
                          "grad_mapping_sq,cumulative_bits,mu_required,"
                          "b_x_used,nnz_sent")

    def test_report_embeds_effective_config(self, tmp_path):
        rep = run_experiment(base_config(out_dir=str(tmp_path / "r")))
        assert rep.config["algo"]["mu"] == 0.1
        assert rep.config["problem"]["flip_prob"] == 0.0  # default materialized

    def test_bits_to_target_consistent_with_ledger_rows(self, tmp_path):
        rep = run_experiment(base_config(loss_target=0.65))
        assert rep.target_reached
        # the reported bits equal the cumulative column at the first row
        # whose loss is below the target
        cfg = base_config(loss_target=0.65)
        from dqsim.optim import run_training
        res = run_training(build_problem(cfg.problem), cfg.algo_config(),
                           build_workers(cfg.workers))
        first = next(r for r in res.metrics
                     if r["train_loss"] is not None and r["train_loss"] < 0.65)
        assert rep.bits_to_target == first["cumulative_bits"]

    def test_search_failures_counted_and_reported(self, tmp_path):
        # a zero budget admits no quantization error, so every quantized
        # broadcast exhausts the width search and is sent at full precision
        raw = {"problem": {"kind": "synth_logistic", "n": 100, "d": 20},
               "algo": {"algo": "asylpg", "epochs": 2, "m": 8, "mu": 0.0,
                        "seed": 3, "track_grad_mapping": False},
               "run": {"loss_target": None, "out_dir": str(tmp_path)}}
        cfg = parse_config(raw)
        from dqsim.optim import run_training
        res = run_training(build_problem(cfg.problem), cfg.algo_config(),
                           build_workers(cfg.workers))
        # 16 broadcasts, of which each epoch's first is a snapshot flag
        assert len(res.broadcasts) == 14
        assert all(row["search_failed"] for row in res.broadcasts)
        assert res.search_failures == 14 and res.violations == 0
        fulls = [r for r in res.ledger.rows
                 if r.direction == "down" and r.kind == "full"]
        assert len(fulls) == 14
        run_experiment(cfg)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["search_failures"] == 14 and report["violations"] == 0

    def test_capped_sparsity_budget_logs_nothing(self, caplog, tmp_path):
        # a message's cap ||a||_1/||a||_inf is at most d = 10, so phi 20
        # exceeds every cap; each message is sent at its cap, silently
        raw = {"problem": {"kind": "synth_logistic", "n": 100, "d": 10, "seed": 1},
               "algo": {"algo": "sparse_asylpg", "epochs": 2, "m": 5, "phi": 20.0},
               "workers": {"count": 2},
               "run": {"loss_target": None, "out_dir": str(tmp_path)}}
        with caplog.at_level("WARNING"):
            run_experiment(parse_config(raw))
        assert not caplog.records
        with open(tmp_path / "metrics.csv") as fh:
            sent = [int(row["nnz_sent"]) for row in csv.DictReader(fh)]
        assert len(sent) == 10 and all(0 <= nnz <= 10 for nnz in sent)

    def test_threshold_never_crossed(self):
        rep = run_experiment(base_config(loss_target=1e-9))
        assert not rep.target_reached
        assert rep.bits_to_target is None
        assert rep.total_bits > 0

    def test_auto_target_uses_oracle_gap(self, tmp_path):
        # a dense and a CSR logistic problem, and a network, whose start is
        # its seeded initial point, not zeros: the oracle's first objective
        # is the objective there
        path = tmp_path / "data.libsvm"
        write_libsvm(path, as_csr(synth_dataset(400, 30, 2)))
        for problem_section in (BASE["problem"],
                                {**BASE["problem"], "kind": "libsvm_logistic",
                                 "path": str(path)},
                                {"kind": "synth_mlp", "n": 60, "d": 6,
                                 "classes": 3, "hidden": 4, "seed": 2}):
            cfg = parse_config({**BASE, "problem": problem_section,
                                "run": {"loss_target": "auto",
                                        "oracle_iters": 300}})
            problem = build_problem(cfg.problem)
            if problem_section.get("path"):
                assert not isinstance(problem.data.matrix, np.ndarray)
            target = resolve_loss_target(cfg, problem)
            start, best = oracle_best_loss(problem, 300)
            assert start == problem.objective(problem.initial_point())
            assert target == pytest.approx(best + 0.1 * (start - best))

    def test_mlp_run_moves_first_layer(self):
        # from all-zero weights every ReLU is dead and W1 never moves
        raw = {"problem": {"kind": "synth_mlp", "n": 60, "d": 6, "classes": 3,
                           "hidden": 4, "seed": 2, "lambda2": 1e-3},
               "algo": {"algo": "acc_asyfpg", "epochs": 2, "m": 20,
                        "eta": 0.05, "batch_size": 4},
               "run": {"loss_target": "auto", "oracle_iters": 50}}
        config = parse_config(raw)
        problem = build_problem(config.problem)
        start = problem.initial_point()
        np.testing.assert_array_equal(start, build_problem(config.problem)
                                      .initial_point())
        report = run_experiment(config, problem=problem)
        w1 = slice(0, 4 * 6)
        output = np.array(report.output_vector)
        assert np.count_nonzero(output[w1] - start[w1]) == 4 * 6
        assert report.loss_target < problem.objective(start)


class TestGridSearch:
    def test_single_point_grid(self):
        best, results = lr_grid_search(base_config(), [0.25], budget_epochs=1)
        assert best == 0.25 and set(results) == {0.25}

    def test_quadratic_selects_analytic_optimum(self):
        # serial run on the quadratic contracts the error by |1 - eta| per
        # step, so eta = 1 is exact after one update
        best, results = lr_grid_search(serial_config(), [0.3, 1.0, 1.7],
                                       budget_epochs=1, problem=ShiftedQuad())
        assert best == 1.0
        assert results[1.0] < results[0.3]

    def test_tie_breaks_toward_smaller(self):
        # symmetric contraction factors tie; smaller rate wins
        best, _ = lr_grid_search(serial_config(), [0.5, 1.5], budget_epochs=1,
                                 problem=ShiftedQuad())
        assert best == 0.5

    def test_deterministic(self):
        a = lr_grid_search(base_config(), [0.1, 0.5], budget_epochs=1)
        b = lr_grid_search(base_config(), [0.1, 0.5], budget_epochs=1)
        assert a == b

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lr_grid_search(base_config(), [])

    @pytest.mark.parametrize("grid, budget", [([0.1, 0.05, 0.0], None),
                                              ([0.1], 0)])
    def test_every_rate_checked_before_any_compute(self, grid, budget,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before the rates were checked")

        monkeypatch.setattr(harness, "build_problem", refuse)
        monkeypatch.setattr(harness, "run_training", refuse)
        with pytest.raises(ValueError):
            lr_grid_search(base_config(), grid, budget_epochs=budget)

    def divergent_config(self):
        return parse_config({
            "problem": {"kind": "synth_logistic", "n": 200, "d": 20},
            "algo": {"algo": "asylpg", "epochs": 2, "m": 50, "tau": 2},
            "workers": {"count": 2},
            "run": {"loss_target": None},
        })

    def test_overflowing_rates_are_skipped(self):
        # eta = 1e6 sends a quantization scale past binary32, which the
        # codec refuses with OverflowError
        best, results = lr_grid_search(self.divergent_config(), [1e6, 1e5, 0.1])
        assert best == 0.1
        assert not math.isfinite(results[1e6])

    def test_all_divergent_is_an_error(self):
        with pytest.raises(ValueError, match="diverged"):
            lr_grid_search(self.divergent_config(), [1e6])


def test_overrides_parse_no_config(monkeypatch):
    # the grid search and the mu trace override the one parsed AlgoConfig
    cfg = base_config()
    calls = []

    def counting_parse(raw):
        calls.append(raw)
        return parse_config(raw)

    monkeypatch.setattr(harness, "parse_config", counting_parse)
    lr_grid_search(cfg, [0.1, 0.5], budget_epochs=1)
    figure_mu_trace(cfg, probe_widths=(4, 8))
    assert calls == []


class TestMuTrace:
    def test_trace_and_summary(self, tmp_path):
        out = tmp_path / "mu"
        summary = figure_mu_trace(base_config(out_dir=str(out)),
                                  probe_widths=(4, 8))
        assert summary["all_finite"]
        assert summary["n_broadcasts"] > 0
        # coarser grids need at least the budget of finer grids on the same
        # pinned trajectory
        assert summary["mu_ceiling_b4"] >= summary["mu_ceiling_b8"]
        assert summary["csv"] == str(out / "mu_trace.csv")
        header = (out / "mu_trace.csv").read_text().splitlines()[0]
        assert "mu_required_b4" in header and "mu_required_b8" in header
        assert os.listdir(out) == ["mu_trace.csv"]

    def test_no_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        summary = figure_mu_trace(base_config(), probe_widths=(8,))
        assert summary["csv"] is None
        assert os.listdir(tmp_path) == []

    def test_rows_exclude_flag_broadcasts(self):
        summary = figure_mu_trace(base_config(), probe_widths=(8,))
        assert all(r["mu_required"] is not None for r in summary["rows"])


class TestCompareSuite:
    def make_config(self, **run):
        raw = json.loads(json.dumps(BASE))
        raw["algo"]["epochs"] = 4
        raw["run"].update(run)
        return parse_config(raw)

    def test_ratio_convention_and_ordering(self):
        config = self.make_config(loss_target=0.62)
        outcome = compare_suite(config, ["asyfpg", "asylpg"])
        table = {row["algo"]: row for row in outcome["table"]}
        assert table["asyfpg"]["ratio_vs_asyfpg"] == pytest.approx(1.0)
        ratio = table["asylpg"]["ratio_vs_asyfpg"]
        assert ratio == pytest.approx(
            table["asyfpg"]["bits_to_target"] / table["asylpg"]["bits_to_target"]
        )
        assert ratio > 1.0

    def test_per_message_ratio_mechanism(self):
        # with large d the per-update cost ratio approaches
        # 64 d / (64 + 16 d) (~4 at width 8); check the ledger reproduces it
        raw = json.loads(json.dumps(BASE))
        raw["problem"].update({"n": 100, "d": 200})
        raw["algo"].update({"epochs": 1, "m": 10, "mu": 1e9})
        raw["workers"] = {"count": 1, "latency": {"kind": "fixed", "ticks": 1}}
        cfg_lpg = parse_config(raw)
        raw_f = json.loads(json.dumps(raw))
        raw_f["algo"]["algo"] = "asyfpg"
        cfg_fpg = parse_config(raw_f)
        problem = build_problem(cfg_lpg.problem)
        from dqsim.optim import run_training
        res_l = run_training(problem, cfg_lpg.algo_config(),
                             build_workers(cfg_lpg.workers))
        res_f = run_training(problem, cfg_fpg.algo_config(),
                             build_workers(cfg_fpg.workers))

        def inner_bits(res):
            return sum(r.bits for r in res.ledger.rows
                       if r.kind not in ("full_barrier", "snapshot_flag"))

        d = 200
        # low precision: 9 quantized broadcasts (the first is a flag) plus 10
        # quantized gradients; full precision: 10 full messages each way
        expected_l = 9 * (32 + 8 * d) + 10 * (32 + 8 * d)
        expected_f = 10 * 32 * d + 10 * 32 * d
        assert inner_bits(res_l) == expected_l
        assert inner_bits(res_f) == expected_f
        assert expected_f / expected_l == pytest.approx(64 * d / (64 + 16 * d),
                                                        rel=0.06)

    def test_needs_two_configs(self):
        with pytest.raises(ValueError):
            compare_suite(self.make_config(), ["asylpg"])

    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
    def test_bad_thread_count_rejected_before_setup(self, value, monkeypatch):
        def refuse(*args):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(harness, "build_problem", refuse)
        monkeypatch.setenv("DQSIM_THREADS", value)
        with pytest.raises(ValueError, match="DQSIM_THREADS"):
            compare_suite(self.make_config(), ["asyfpg", "asylpg"])

    @pytest.mark.parametrize("algos, algo, match", [
        (["asylpg", "asylpg", "asyfpg"], {}, "named more than once"),
        (["asyfpg", "sparse_asylpg"], {"eta_mode": "theory"}, "needs phi"),
        (["asyfpg", "asylpgg"], {}, "'asylpgg' is not a valid Algorithm"),
    ])
    def test_bad_algorithms_rejected_before_setup(self, algos, algo, match,
                                                  monkeypatch, tmp_path):
        # a repeated name ran twice into one directory; each variant's algo
        # section is checked as parse_config checks it, before any problem
        def refuse(*args):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(harness, "build_problem", refuse)
        raw = json.loads(json.dumps(BASE))
        raw["algo"].update(algo)
        raw["run"]["out_dir"] = str(tmp_path / "out")
        with pytest.raises(ValueError, match=match):
            compare_suite(parse_config(raw), algos)
        assert not (tmp_path / "out").exists()

    def test_each_run_writes_its_own_directory(self, tmp_path):
        out = tmp_path / "out"
        outcome = compare_suite(self.make_config(out_dir=str(out)),
                                ["asyfpg", "asylpg"])
        for name, report in zip(["asyfpg", "asylpg"], outcome["reports"]):
            assert report.out_dir == str(out / name)
            assert report.config["algo"]["algo"] == name
            assert (out / name / "report.json").exists()
        assert sorted(os.listdir(out)) == ["asyfpg", "asylpg"]

    def test_parallel_execution_matches_serial(self):
        config = self.make_config(loss_target=0.62)
        serial = compare_suite(config, ["asyfpg", "asylpg"])
        os.environ["DQSIM_THREADS"] = "2"
        try:
            parallel = compare_suite(config, ["asyfpg", "asylpg"])
        finally:
            del os.environ["DQSIM_THREADS"]
        assert [r["bits_to_target"] for r in serial["table"]] == \
            [r["bits_to_target"] for r in parallel["table"]]
        assert [r.to_dict() for r in serial["reports"]] == \
            [r.to_dict() for r in parallel["reports"]]

    def test_problem_goes_to_each_worker_process_once(self, monkeypatch):
        # four configs on two processes: a problem sent with every task is
        # pickled four times, one sent with each process at most twice
        pickles = []

        def counted_getstate(problem):
            pickles.append(type(problem).__name__)
            return problem.__dict__

        monkeypatch.setattr(LogisticProblem, "__getstate__", counted_getstate,
                            raising=False)
        monkeypatch.setenv("DQSIM_THREADS", "2")
        parallel = compare_suite(self.make_config(loss_target=0.62),
                                 ["asyfpg", "asylpg", "qsvrg", "sparse_asylpg"])
        assert len(parallel["reports"]) == 4
        assert len(pickles) <= 2
