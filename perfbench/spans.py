"""Tracing from outside the program: spans around dqsim's public functions.

``traced()`` replaces functions and methods of the loaded ``dqsim`` modules in
this process only, and restores every original on exit. It patches the names
where callers look them up: the names ``optim`` and ``harness`` imported, the
module globals ``quantizer`` calls internally, the ``codec`` module attributes
``optim`` calls through, and methods of ``BitLedger`` and the problem classes.

A span is ``[name, start_ns, end_ns, parent_index]``; spans stay in memory
and ``write_csv`` writes them out when the run ends. A span's name starts
with the layer (module) it belongs to. Self time is a span's duration minus
its children's, which nest inside it because the simulator runs on one
thread.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional

from dqsim import codec, harness, optim, problems, quantizer

LAYERS = ("problems", "quantizer", "sparsifier", "codec", "simnet", "optim", "harness")


class Tracer:
    """Span recorder plus the counters read from traced calls' arguments and
    results."""

    def __init__(self):
        self.names: set[str] = set()  # every span name wrapped, called or not
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.staleness: list[int] = []

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``after(result, args)`` runs
        outside the span to update counters."""
        self.names.add(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced_call(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(result, args)
            return result

        return traced_call

    # -- counters fed by ``after`` hooks ---------------------------------

    def _on_model_message(self, result, args) -> None:
        msg, diag = result
        if diag["b_x_used"] is not None:
            self.counts["quantized_broadcasts"] += 1
            if diag["b_x_used"] > args[2].b_x:
                self.counts["widened_broadcasts"] += 1

    def _on_encode(self, msg, args) -> None:
        self.counts["payload_bytes"] += len(msg.payload)

    def _on_sparsify(self, beta, args) -> None:
        self.counts["kept_coords"] += beta.nnz
        self.counts["offered_coords"] += beta.dim

    def _on_inner_loop(self, records, args) -> None:
        self.counts["applied"] += len(records)
        if records:
            self.counts["idle_ticks"] += records[-1].clock + 1 - len(records)
        self.staleness.extend(r.staleness for r in records)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for (name, start, end, _), child in zip(self.spans, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child) / 1e9
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent"])
            for idx, span in enumerate(self.spans):
                writer.writerow([idx, *span])


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers on the loaded dqsim modules; restore the
    originals on exit."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(owner, attr: str, name: str, after=None) -> None:
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    span(harness, "build_problem", "harness.build_problem")
    span(harness, "resolve_loss_target", "harness.resolve_loss_target")
    span(harness, "run_experiment", "harness.run_experiment")
    span(harness, "run_training", "optim.run_training")
    for fn in ("load_libsvm", "synth_dataset", "logistic_problem"):
        span(harness, fn, f"problems.{fn}")

    span(optim, "model_message", "optim.model_message", tracer._on_model_message)
    span(optim, "gradient_message", "optim.gradient_message")
    span(optim, "run_inner_loop", "simnet.run_inner_loop", tracer._on_inner_loop)
    span(optim, "epoch_barrier", "simnet.epoch_barrier")
    span(optim, "gradient_mapping_norm", "problems.gradient_mapping_norm")
    for fn in ("choose_bx", "quantize_vector", "mu_required", "expected_sq_error"):
        span(optim, fn, f"quantizer.{fn}")
    span(optim, "sparsify", "sparsifier.sparsify", tracer._on_sparsify)
    for fn in ("optimal_plan", "budget_max", "clamp_budget"):
        span(optim, fn, f"sparsifier.{fn}")
    # choose_bx and mu_required evaluate widths through the module global
    span(quantizer, "expected_sq_error", "quantizer.expected_sq_error")

    for kind in ("dense", "sparse", "full", "flag"):
        span(codec, f"encode_{kind}", f"codec.encode_{kind}", tracer._on_encode)
    for kind in ("dense", "sparse", "full"):
        span(codec, f"decode_{kind}", f"codec.decode_{kind}")
    span(codec.BitLedger, "record", "codec.ledger_record")
    span(codec.BitLedger, "write_csv", "codec.ledger_write_csv")

    span(problems.CompositeProblem, "objective", "problems.objective")
    for cls in (problems.LogisticProblem, problems.MLPProblem):
        for method in ("grad_batch", "grad_range_sum", "prox"):
            span(cls, method, f"problems.{method}")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced run: ``<span>.calls``, ``<span>.s``
    and ``<span>.self_s`` for every wrapped span, counter ratios, and each
    layer's share of self time. BENCHMARK.json picks the ones reported."""
    summary = tracer.summary()
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {f"{name}.{field}": value
           for name, entry in summary.items() for field, value in entry.items()}
    encodes = sum(out[f"codec.encode_{k}.calls"]
                  for k in ("dense", "sparse", "full", "flag"))
    decodes = sum(out[f"codec.decode_{k}.calls"] for k in ("dense", "sparse", "full"))
    out["quantizer.widened_ratio"] = ratio(counts["widened_broadcasts"],
                                           counts["quantized_broadcasts"])
    out["sparsifier.kept_ratio"] = ratio(counts["kept_coords"], counts["offered_coords"])
    out["codec.payload_bytes"] = counts["payload_bytes"]
    out["codec.payload_decoded_ratio"] = ratio(decodes, encodes)
    out["simnet.idle_ticks"] = counts["idle_ticks"]
    out["simnet.applied_ratio"] = ratio(counts["applied"],
                                        out["optim.model_message.calls"])
    out["simnet.staleness_mean"] = (statistics.fmean(tracer.staleness)
                                    if tracer.staleness else 0.0)
    out["simnet.staleness_max"] = max(tracer.staleness, default=0)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    total = sum(layer_self.values())
    for layer, self_s in layer_self.items():
        out[f"{layer}.self_share"] = ratio(self_s, total)
    return out
