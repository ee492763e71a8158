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
    'acc_asyfpg': '9b6b577c373303726e893ca1a91a78d28086c8536546ef7dba59c6ec17dd2cae',
    'acc_asylpg': '3f2e393de44508b914648ab4b4c305df2be4d38da1612db9d74f152c06bcf63c',
    'asyfpg': '20453b4cae0371725f86ea21c04ff9d9fc72cbc439a14148b4fb98e59de00415',
    'asylpg': 'd644d23e7943f8454c65e8fffbfcbff37ae28b0bc8eb29b18690262912010fc3',
    'asylpg_theory': '189e25117475696cd41cc3470524f3a5c034e065e16a1823e3b1a751d175bf39',
    'libsvm_csr': '82def2dc199ec479b6bca13decbecd79abd4a526c086282e65fe2932be65e475',
    'mlp': 'e088c8445584ed504a87849c4bb4be71a540cbe24d2bfda52af36c60258c1f3e',
    'qsvrg': '32ff4fbfdfb10717d899181352b6c2d083e4e3b2d7f8936df457f6454d5988dc',
    'sparse_asylpg': '420d52275b7e35ee39e71c89062cf479cc918092c28df7b246795945fb309fa7',
}

# case: sha256 of report.json, with the temporary directory as "<tmp>"
REPORT_DIGESTS = {
    'acc_asyfpg': '5772795b2cb81c1f616e67aaeac082015905fef36b5b98376235619f9d1d9609',
    'acc_asylpg': 'c307425e66e07717391fcc5bd5e4b772d26b80f0548526edc48317f30efd4111',
    'asyfpg': 'e929627576f4b91785a20ae7cd4d159df80611010b8b9a10ba0d6c089f265283',
    'asylpg': '8666dd1976ae3a5d48ad67493f146a5569465bfad09dce94970b0d08dda6f16e',
    'asylpg_theory': '994ca10da1d0ce80e94acf0da56585c6c516c96899f8db1695fe81991c7e5118',
    'libsvm_csr': 'a37359c70603e20d4fe8e80d96bc3c8fa4531ffeb462f95acd7735055bc90cce',
    'mlp': '0b8eda150232f18a251cc13ae93cc7f10f4546c110dd55fb1346c6b9dac20f4a',
    'qsvrg': '5b3107663bae5f66ae3164b2248045f597f32431f0b2d0f5f9862cf307168f0d',
    'sparse_asylpg': '3cb6464dedb35c030fd153379b6c68b55da1d3caade13b76dd8cad14afccfa49',
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
