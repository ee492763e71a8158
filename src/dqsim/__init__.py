"""Double quantization for communication-efficient asynchronous optimization.

Library layout:
    quantizer   stochastic-rounding grids, exact error, width search
    sparsifier  unbiased Bernoulli coordinate dropping, optimal plans
    codec       bit-exact wire formats and the transmitted-bit ledger
    problems    composite objectives, datasets, prox, gradient mapping
    simnet      deterministic bounded-staleness master-worker simulator
    optim       the low-precision algorithms and their baselines
    harness     experiment configs, runs, CSV/report emission, comparisons
"""

from .codec import BitLedger, MessageKind, WireMessage
from .optim import Algorithm, AlgoConfig, RunResult, run_training
from .problems import (
    CompositeProblem,
    Dataset,
    gradient_mapping_norm,
    load_libsvm,
    logistic_problem,
    mlp_problem,
    synth_dataset,
)
from .quantizer import (
    LowPrecisionVector,
    QuantGrid,
    SparseLowPrecisionVector,
    quantize_vector,
)
from .simnet import (
    FixedLatency,
    GeometricLatency,
    StalenessRecord,
    UniformLatency,
)
from .sparsifier import SparsePlan, SparseRealVector

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "AlgoConfig",
    "BitLedger",
    "CompositeProblem",
    "Dataset",
    "FixedLatency",
    "GeometricLatency",
    "LowPrecisionVector",
    "MessageKind",
    "QuantGrid",
    "RunResult",
    "SparseLowPrecisionVector",
    "SparsePlan",
    "SparseRealVector",
    "StalenessRecord",
    "UniformLatency",
    "WireMessage",
    "gradient_mapping_norm",
    "load_libsvm",
    "logistic_problem",
    "mlp_problem",
    "quantize_vector",
    "run_training",
    "synth_dataset",
    "__version__",
]
