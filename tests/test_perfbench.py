"""The benchmark's tracer wraps dqsim names by lookup, so renaming or
removing one of them breaks ``perfbench/run.py --trace 1``; this test makes
that a test failure."""

import importlib.util
from pathlib import Path

from dqsim import codec, harness, optim, problems, quantizer
from dqsim.harness import parse_config, run_experiment

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    owners = (codec, harness, optim, problems, quantizer, codec.BitLedger,
              problems.CompositeProblem, problems.LogisticProblem,
              problems.MLPProblem)
    return [dict(vars(owner)) for owner in owners]


def test_traced_run_restores_every_name():
    spans = load_spans()
    before = namespaces()
    config = parse_config({
        "problem": {"kind": "synth_logistic", "n": 60, "d": 5, "seed": 1},
        "algo": {"algo": "sparse_asylpg", "epochs": 1, "m": 6},
        "run": {"loss_target": None},
    })
    with spans.traced(spans.Tracer()) as tracer:
        assert namespaces() != before
        run_experiment(config)
    assert namespaces() == before
    metrics = spans.layer_metrics(tracer)
    assert metrics["optim.model_message.calls"] == 6
    assert metrics["sparsifier.sparsify.calls"] > 0
    # one gradient mapping per update, each through the traced name
    assert metrics["problems.gradient_mapping_norm.calls"] == 6
