"""dqsim benchmark: one workload per process, checked runs, JSON result.

Usage, from the repository root:

    python3 perfbench/run.py --workload logreg_dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced. ``--trace 1``
adds a traced set-up and round after the untraced rounds and reports the
per-layer metrics instead (names and units as in BENCHMARK.json). Human
readable lines (environment, checks, fingerprints, metrics) come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in its own process, one at a time, and prints each one's output.

The benchmark builds nothing: it imports the program from ``src/`` of the
checkout it lives in, and exits with status 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A BLAS thread count can reorder float sums and so change the digests; the
# workload processes run single-threaded, one at a time. DQSIM_THREADS keeps
# compare-style suites serial.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DQSIM_THREADS": "1",
}


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def _run_one(args, spec: dict) -> int:
    os.environ.update(PINNED_ENV)  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    from measure import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name} seed {args.seed}: {why}")
    print(f"  loads: {', '.join(workload.loads)}")
    print(f"  bypasses: {', '.join(workload.bypasses)}")
    print("environment " + json.dumps(_environment(), sort_keys=True))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = measure(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    values = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: "
                           f"{missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for algo, fingerprint in result["fingerprints"].items():
        print(f"fingerprint {algo} " + json.dumps(fingerprint, sort_keys=True))
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    attempted, failed = result["attempted"], result["failed"]
    rates = result["round_rates"]
    print(f"checks: {attempted} runs in {len(rates)} rounds, {failed} failed, "
          f"error_rate {failed / attempted:.4g}")
    print("untraced updates per host second, by round: "
          + " ".join(f"{r:.5g}" for r in rates))
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one at a time."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, **PINNED_ENV})
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited with status {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    # Exit through SystemExit on SIGTERM, so temporary directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dqsim" / "__init__.py").is_file():
        print(f"dqsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, names)
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
