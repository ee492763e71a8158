"""Golden fingerprints of small end-to-end runs.

Each case runs ``run_experiment`` on a tiny config and pins the sha256 of
``metrics.csv``, ``ledger.csv`` and ``trace.csv`` with ``total_bits`` and
``repr(final_loss)``. A change to the simulated arithmetic, a random draw, a
message width or the CSV format moves a digest; a refactor that keeps them
all has kept the behaviour. Each case also pins the sha256 of its whole
materialized config, ``json.dumps(parse_config(raw).to_dict())``, so a
refactor of the config path keeps every section and default byte for byte,
and the sha256 of its ``report.json``; each model-quantizing case pins the
sha256 of the ``mu_trace.csv`` that ``figure_mu_trace`` writes for it.
After an intentional change, print the new tables with
``python tests/test_golden.py``, paste them over ``GOLDEN``,
``CONFIG_DIGESTS``, ``REPORT_DIGESTS`` and ``MU_TRACE_DIGESTS`` and say why
in the change log.
"""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from dqsim.harness import figure_mu_trace, parse_config, run_experiment
from dqsim.optim import Algorithm
from dqsim.problems import Dataset, load_libsvm
from oracles import load_libsvm_lines, write_libsvm

_SYNTH = {"kind": "synth_logistic", "n": 300, "d": 20, "seed": 3,
          "flip_prob": 0.05, "lambda1": 1e-3, "lambda2": 1e-3}
_ALGO = {"epochs": 2, "m": 40, "eta": 0.2, "b_x": 6, "b": 6, "mu": 0.1,
         "tau": 3, "batch_size": 4, "seed": 7}
_WORKERS = {"count": 3, "latency": {"kind": "uniform", "low": 1, "high": 4}}

CASES = {
    **{algo: {"problem": _SYNTH, "algo": {**_ALGO, "algo": algo}}
       for algo in ("asylpg", "sparse_asylpg", "acc_asylpg", "asyfpg",
                    "acc_asyfpg", "qsvrg")},
    "asylpg_theory": {"problem": _SYNTH,
                      "algo": {**_ALGO, "algo": "asylpg", "eta_mode": "theory"}},
    "mlp": {"problem": {"kind": "synth_mlp", "n": 120, "d": 10, "seed": 5,
                        "hidden": 8, "classes": 3, "lambda2": 1e-3},
            "algo": {**_ALGO, "algo": "asylpg", "eta": 0.05}},
    "libsvm_csr": {"problem": {"kind": "libsvm_logistic", "lambda1": 1e-3,
                               "lambda2": 1e-3},
                   "algo": {**_ALGO, "algo": "sparse_asylpg"}},
}

# case: (sha256 of metrics.csv, ledger.csv, trace.csv; total_bits;
#        repr(final_loss))
GOLDEN = {
    'acc_asyfpg': (
        '95ffb0270da500f3a5eddfa74b984e88aef3113817ce6d3ba89535fc87057ec1',
        '354d7afedddab5269e0a3c1c60264d6a8ddb586b3206d6f559b62acae8845368',
        'bc190e96eeafd4edc7f517dc51da5162871a92956b93f6fb0ab5ad471ca05ec9',
        116480,
        '0.5236550354219801',
    ),
    'acc_asylpg': (
        '64342a7b645bfcf8fa820e8ea6cb76106237b9cedbef7b2e7acd741c990582c9',
        'b980bf43ffbcb947649d4226de239c0c5e94be4b45a72e8fd974c43914307a56',
        '8d37131d3137c3b8a40a208935820c7352dca55d540920a2a9bbee939017fcc0',
        33067,
        '0.5236363792818363',
    ),
    'asyfpg': (
        'a52df0a42fc1e867af9db3b553d4c9c8193da98f5ba5d927f9373ae9c7492f56',
        '354d7afedddab5269e0a3c1c60264d6a8ddb586b3206d6f559b62acae8845368',
        'bc190e96eeafd4edc7f517dc51da5162871a92956b93f6fb0ab5ad471ca05ec9',
        116480,
        '0.5244892372115177',
    ),
    'asylpg': (
        'cca927e023d1ede0a92ae7c46655a1d52c7ebd9ec79371853d0f52fe5751f809',
        '07d505875172417e0acffd5f6f6a977fe53551a5b04fcc1139350ef76ac67310',
        '8d37131d3137c3b8a40a208935820c7352dca55d540920a2a9bbee939017fcc0',
        32754,
        '0.5244949662522178',
    ),
    'asylpg_theory': (
        '3df414150d92635b8e1a4efda3c2342fcd4d9d9dcd3cb2cdc77b757059cc0075',
        'a0ed36103a8b2c47595eebaaa24a3ca2ee98def66f418322abc263b003929429',
        '8d37131d3137c3b8a40a208935820c7352dca55d540920a2a9bbee939017fcc0',
        32734,
        '0.6792009902611621',
    ),
    'libsvm_csr': (
        'e91be46abeaa0a3a410e2dd09bd8abdfdf2079ea09bc2e4f7a5edc8db850f442',
        '031b35020bb4b25e0483bbc9ea64415d3d69baf4b2416a16f14f3ec5f6e9a636',
        'a71153b1b62d41cbd45e945120d2a48c2863cd4d66117fafb6f2b7cf5cb3b77e',
        37207,
        '0.6358146137567444',
    ),
    'mlp': (
        '57595a500b1fdc6a72c48439caaebd27e6323de762975e46b37c191b52ec5a17',
        'b4b07e6948cbd99cc3ddf335e34da972d71974075f408fcc4d7aca39b06d6782',
        '9b02b74080792996a5092663c6acdcf2f8d3198d473eed8384688926400aca96',
        168899,
        '1.0709368135087276',
    ),
    'qsvrg': (
        '810074807b7a7188ef0ff41b24f47bfc12cc2126e1d2027dbb77b54e0c5c6223',
        '0ba1edc5e7ffced14fd4c3d9c0569eea27db3f7a3f2e125fce40d3ea6eca7d67',
        '8d37131d3137c3b8a40a208935820c7352dca55d540920a2a9bbee939017fcc0',
        75488,
        '0.5244576573188952',
    ),
    'sparse_asylpg': (
        'bf0d6036ac71f9ad761a8e8fa87430b064f238173add0ae47f2f93a15c86f336',
        'dd7a0cb449cd909e9ff82cc7992a05d1528878235e0d6b53ca4b3c45e0abb4e6',
        'fec7c314e69bc28933030c205b110d0d3f5198bd98ff4ba077c2ac9191b0c0fb',
        29111,
        '0.5246344894124111',
    ),
}

# case: sha256 of json.dumps(parse_config(raw).to_dict()), with the
# temporary directory that holds the libsvm file and the outputs as "<tmp>"
CONFIG_DIGESTS = {
    'acc_asyfpg': '9f7d9d66318a51598d654fb1ca7925429ec32d4b207d26b92091ddbc4400e059',
    'acc_asylpg': '16c858161b16fa1f2a5c279e223db07ebedeec568f9ea782dbac6348b6d28f5a',
    'asyfpg': '657d8c8adbb0174e62dd4d6d7d7bc512a69740d69f492160ec37b636ecaab62f',
    'asylpg': 'a2d28c2c33e157e425cbd7a6f34b6856529f8de80db727d8509c43c7793a93af',
    'asylpg_theory': '480f0a9fe1168c1845a7724497d9033c8336f04bf2e8c8ca41200736031b74c1',
    'libsvm_csr': '31aa94e95417c403776b123d577029b5d9a0019a07fcbe4851a074ac1dc2beff',
    'mlp': '73f18d64ab0c932ad42db9d66bdba775f2f9ec1e5e02d4dd80357501f9185dc5',
    'qsvrg': '78e8a6a210208993de311bb377e86d583395256a4e70400e4ed4cd7847fcae5f',
    'sparse_asylpg': 'd141d977d45a9e98642590a8d17fe7e19ec4b9f872034ed79bf884afdc7f00f0',
}

# case: sha256 of report.json, with the temporary directory as "<tmp>"
REPORT_DIGESTS = {
    'acc_asyfpg': '1ba5c5a710e1bb1f6ba5661837f86b0e4718c9362f51f8adb245d5e0d1a94d94',
    'acc_asylpg': 'e61966fc3fa3eb13688b4d04307fd8405d0cb05f477acad9da16b67fecec1bf8',
    'asyfpg': '16206274e3bf63f31bdf7bae6e515f6110a844742789437d47fe8bc8d8081580',
    'asylpg': 'e10f59dcbde29c256480a43acf6165a42a7b580f26a531fe852420baf40a2b1f',
    'asylpg_theory': 'a34892241d40f1bf3855bca16196aa9dc0db798a4c7d5f6bfae18efb13ac2a19',
    'libsvm_csr': '70a906566c51df154d4095e5391f02528b3c7c3e431563cc59a69c1eb2efca9f',
    'mlp': 'acaf91780ef526b404a250855d0fac15e88272c88ed022c84802246b94495d42',
    'qsvrg': 'b8a50fbc0824eb58a9421827eb04f2cb7df4b33f5a64410738d3e5fbd77f314b',
    'sparse_asylpg': '1fddf88f2b28719ecea711fc7587f664d9be048e510b9e13b6f4dbde924398ca',
}

# model-quantizing case: sha256 of mu_trace.csv at the default probe widths
MU_TRACE_DIGESTS = {
    'acc_asylpg': '701de184426ca5fa06ec32c9f9007b882921c5ec93e42416d9b1c19e940d3dbd',
    'asylpg': '7053252f843f26f17e3bbc5f7288746d2ebc34a9044f6b8b3b8d958bf041c85b',
    'asylpg_theory': 'be538c8e8891723dab75fd7814d55ad9084bfd444b53d0530895150b5a88d3df',
    'libsvm_csr': '92bba4372eb74d0562242d77c051b94698d5d185c7f2d5f0655f43cd504a44fb',
    'mlp': '3f30428190a83eb451b32248145c1407cd706dfceb92ddc29115d69777b11f43',
    'sparse_asylpg': '637dda6d12911ea7fbf5e60f692d31eb28ad03ceaf15ffc4760b586e80577f1c',
}

MU_TRACE_CASES = sorted(name for name in CASES if CASES[name]["algo"]["algo"]
                        in ("asylpg", "sparse_asylpg", "acc_asylpg"))


def _write_sparse_libsvm(path) -> None:
    """A 200 x 30 dataset at about 30% density, exact through the text
    format."""
    rng = np.random.Generator(np.random.Philox(11))
    n, d = 200, 30
    indptr, indices, values = [0], [], []
    for _ in range(n):
        idx = np.flatnonzero(rng.random(d) < 0.3)
        indices.extend(idx)
        values.extend(rng.normal(size=idx.size))
        indptr.append(len(indices))
    labels = rng.choice([-1.0, 1.0], size=n)
    write_libsvm(path, Dataset(indptr, indices, values, labels, d))


def _problem_section(name: str, tmp_path: Path) -> dict:
    """The case's problem section, with the libsvm file written and named."""
    problem = CASES[name]["problem"]
    if problem["kind"] != "libsvm_logistic":
        return problem
    path = tmp_path / "data.libsvm"
    _write_sparse_libsvm(path)
    return {**problem, "path": str(path)}


def _raw_config(name: str, tmp_path: Path) -> dict:
    return {**CASES[name], "problem": _problem_section(name, tmp_path),
            "workers": _WORKERS,
            "run": {"out_dir": str(tmp_path / name), "loss_target": None}}


def fingerprint(name: str, tmp_path: Path) -> tuple:
    return _fingerprint_of(_raw_config(name, tmp_path))


def _digest_in(tmp_path: Path, text: str) -> str:
    """sha256 of ``text`` with the temporary directory written as "<tmp>"."""
    return hashlib.sha256(text.replace(str(tmp_path), "<tmp>").encode()).hexdigest()


def config_digest(name: str, tmp_path: Path) -> str:
    return _digest_in(
        tmp_path, json.dumps(parse_config(_raw_config(name, tmp_path)).to_dict()))


def report_digest(name: str, tmp_path: Path) -> str:
    report = run_experiment(parse_config(_raw_config(name, tmp_path)))
    return _digest_in(tmp_path, (Path(report.out_dir) / "report.json").read_text())


def mu_trace_digest(name: str, tmp_path: Path) -> str:
    summary = figure_mu_trace(parse_config(_raw_config(name, tmp_path)))
    return hashlib.sha256(Path(summary["csv"]).read_bytes()).hexdigest()


def _fingerprint_of(raw: dict) -> tuple:
    report = run_experiment(parse_config(raw))
    digests = tuple(
        hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in (report.metrics_csv, report.ledger_csv, report.trace_csv)
    )
    return (*digests, report.total_bits, repr(report.final_loss))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name, tmp_path):
    assert fingerprint(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_fingerprint(name, tmp_path):
    assert config_digest(name, tmp_path) == CONFIG_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_fingerprint(name, tmp_path):
    assert report_digest(name, tmp_path) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", MU_TRACE_CASES)
def test_mu_trace_fingerprint(name, tmp_path):
    assert mu_trace_digest(name, tmp_path) == MU_TRACE_DIGESTS[name]


def test_printer_prints_the_tables():
    # the script's output, pasted over the tables, gives the tables
    out = subprocess.run([sys.executable, __file__], capture_output=True,
                         text=True, check=True).stdout
    printed = {node.targets[0].id: ast.literal_eval(node.value)
               for node in ast.parse(out).body}
    assert printed == {"GOLDEN": GOLDEN, "CONFIG_DIGESTS": CONFIG_DIGESTS,
                       "REPORT_DIGESTS": REPORT_DIGESTS,
                       "MU_TRACE_DIGESTS": MU_TRACE_DIGESTS}


def _threads_and_simulated(algo: str, tmp_path: Path,
                           problem: dict = _SYNTH) -> tuple:
    def run(execution):
        return _fingerprint_of(
            {"problem": problem,
             "algo": {**_ALGO, "algo": algo, "tau": 0, "execution": execution},
             "workers": {"count": 1, "latency": {"kind": "fixed", "ticks": 1}},
             "run": {"out_dir": str(tmp_path / execution), "loss_target": None}})

    return run("threads"), run("simulated")


@pytest.mark.parametrize("algo", sorted(a.value for a in Algorithm))
def test_threads_reproduce_simulated_run(algo, tmp_path):
    # with one worker and tau = 0 the thread loop has one event order, so it
    # must give the simulated run's bytes; this pins the state that the step
    # functions share between the master and the worker thread
    threads, simulated = _threads_and_simulated(algo, tmp_path)
    assert threads == simulated


def test_threads_reproduce_simulated_run_on_csr(tmp_path, monkeypatch):
    # the same on the CSR-stored libsvm case, where the barrier takes
    # scipy's row-range products, the metrics its whole-matrix ones and the
    # workers the gathered bincount
    row_ranges = []

    def counted(data, x, *rows, inner=Dataset.dot):
        # the barrier passes its row range; the metrics pass none
        assert not isinstance(data.matrix, np.ndarray)
        row_ranges.extend(rows)
        return inner(data, x, *rows)

    monkeypatch.setattr(Dataset, "dot", counted)
    threads, simulated = _threads_and_simulated(
        "sparse_asylpg", tmp_path, _problem_section("libsvm_csr", tmp_path))
    assert row_ranges
    assert threads == simulated


def test_libsvm_case_loads_as_the_line_reference(tmp_path):
    # the block parser reads the case's file to the reference's bytes
    path = _problem_section("libsvm_csr", tmp_path)["path"]
    got, want = load_libsvm(path), load_libsvm_lines(path)
    assert got.d == want.d
    for name in ("labels", "indptr", "indices", "values"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in sorted(CASES):
            print(f"    {name!r}: (")
            for value in fingerprint(name, Path(tmp)):
                print(f"        {value!r},")
            print("    ),")
        print("}")
        print("CONFIG_DIGESTS = {")
        for name in sorted(CASES):
            print(f"    {name!r}: {config_digest(name, Path(tmp))!r},")
        print("}")
        print("REPORT_DIGESTS = {")
        for name in sorted(CASES):
            print(f"    {name!r}: {report_digest(name, Path(tmp))!r},")
        print("}")
        print("MU_TRACE_DIGESTS = {")
        for name in MU_TRACE_CASES:
            print(f"    {name!r}: {mu_trace_digest(name, Path(tmp))!r},")
        print("}")
