import importlib
import json
import math
from pathlib import Path

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
    assert report["config"]["algo"]["seed"] == 9
    assert "seed" not in report["config"]["run"]


def test_seed_option_is_algo_seed(config_path, tmp_path, capsys):
    # --seed writes algo.seed, the one seed of a run
    raw = json.loads(config_path.read_text())
    raw["algo"]["seed"] = 9
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config_path), "--seed", "9",
                 "--out", str(tmp_path / "option")]) == 0
    assert main(["run", "--config", str(seeded),
                 "--out", str(tmp_path / "config")]) == 0
    for name in ("metrics.csv", "ledger.csv", "trace.csv"):
        assert (tmp_path / "option" / name).read_bytes() == \
            (tmp_path / "config" / name).read_bytes()


def _refuse_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


@pytest.mark.parametrize("argv", [
    ["run"], ["mu-trace"], ["compare", "--algos", "asyfpg,asylpg"],
    ["grid-search", "--grid", "1e6,0.1"],
])
def test_stdout_is_strict_json(tmp_path, capsys, argv):
    # at 1e6 the grid search diverges; its loss prints as null, not Infinity
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "problem": {"kind": "synth_logistic", "n": 200, "d": 20},
        "algo": {"algo": "asylpg", "epochs": 2, "m": 50, "tau": 2},
        "workers": {"count": 2},
        "run": {"loss_target": None},
    }))
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    if argv[0] == "grid-search":
        assert out["best_lr"] == 0.1
        assert out["final_losses"]["1000000.0"] is None
        assert math.isfinite(out["final_losses"]["0.1"])


def test_algo_override(config_path, capsys):
    rc = main(["run", "--config", str(config_path), "--algo", "asyfpg"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["algo"]["algo"] == "asyfpg"


@pytest.mark.parametrize("argv", [["compare", "--algo", "asyfpg"],
                                  ["grid-search", "--out", "out"]])
def test_unread_options_rejected(config_path, argv):
    # compare names each run's algorithm with --algos; grid-search writes no file
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(config_path), *argv[1:]])
    assert exc.value.code == 2


def test_console_script_entry_point(capsys):
    # the installed ``dqsim`` command is the pyproject entry point, not main
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = scripts["dqsim"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dqsim")


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
    assert summary["csv"] == str(out / "mu_trace.csv")
    assert (out / "mu_trace.csv").exists()
    assert "rows" not in summary


def test_compare_subcommand(config_path, capsys):
    rc = main(["compare", "--config", str(config_path),
               "--algos", "asyfpg,asylpg"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    algos = [row["algo"] for row in out["table"]]
    assert algos == ["asyfpg", "asylpg"]


def test_compare_refuses_a_repeated_algorithm(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["compare", "--config", str(config_path), "--out", str(out),
               "--algos", "asylpg,asylpg,asyfpg"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "dqsim: error: an algorithm is named more than once in "
        "['asylpg', 'asylpg', 'asyfpg']\n")
    assert not out.exists()


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


@pytest.mark.parametrize("algo", ["asylpg", "asyfpg", "sparse_asylpg",
                                  "acc_asylpg"])
def test_divergent_run_is_one_error_line(tmp_path, capsys, algo):
    # at eta 1e6 the iterates overflow binary32: a quantized model message
    # fails to pack its scale, a full-precision one its values; either
    # error says so. At 1e300 the model's quantization error would overflow
    # float64 as well, and the message fails before it is computed.
    for eta in (1e6, 1e300):
        cfg = {
            "problem": {"kind": "synth_logistic", "n": 200, "d": 20, "seed": 1},
            "algo": {"algo": algo, "eta": eta, "epochs": 2, "m": 10},
            "workers": {"count": 2},
            "run": {"loss_target": None},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dqsim: error: ")
        assert captured.err.count("\n") == 1
        assert "too large for binary32" in captured.err
        if algo != "asyfpg":  # the model-quantizing algorithms
            assert "quantized_dense message scale" in captured.err
