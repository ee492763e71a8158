import json

import pytest

from dqsim.cli import main


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "problem": {"kind": "synth_logistic", "n": 150, "d": 12, "seed": 3},
        "algo": {"algo": "asylpg", "epochs": 2, "m": 8, "eta": 0.4, "tau": 1,
                 "batch_size": 4, "track_grad_mapping": False},
        "workers": {"count": 2, "latency": {"kind": "fixed", "ticks": 1}},
        "run": {"loss_target": None},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config_path), "--out", str(out),
               "--seed", "9"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_bits"] > 0
    assert (out / "metrics.csv").exists()
    assert (out / "ledger.csv").exists()
    assert (out / "report.json").exists()
    assert report["config"]["run"]["seed"] == 9


def test_algo_override(config_path, capsys):
    rc = main(["run", "--config", str(config_path), "--algo", "asyfpg"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["algo"]["algo"] == "asyfpg"


def test_grid_search_subcommand(config_path, capsys):
    rc = main(["grid-search", "--config", str(config_path),
               "--grid", "0.1,0.4", "--budget-epochs", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["best_lr"] in (0.1, 0.4)
    assert set(map(float, out["final_losses"])) == {0.1, 0.4}


def test_mu_trace_subcommand(config_path, tmp_path, capsys):
    out = tmp_path / "mu_out"
    rc = main(["mu-trace", "--config", str(config_path), "--out", str(out),
               "--widths", "4,8"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["all_finite"] is True
    assert (out / "mu_trace.csv").exists()


def test_compare_subcommand(config_path, capsys):
    rc = main(["compare", "--config", str(config_path),
               "--algos", "asyfpg,asylpg"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    algos = [row["algo"] for row in out["table"]]
    assert algos == ["asyfpg", "asylpg"]


def test_rejected_option_is_one_error_line(config_path, capsys):
    rc = main(["grid-search", "--config", str(config_path), "--grid", "0.1,0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dqsim: error: eta must be positive\n"


def test_missing_config_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc = main(["run", "--config", str(missing)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("dqsim: error: ") and str(missing) in err
    assert err.count("\n") == 1
