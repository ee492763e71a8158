"""Command-line entry points for running and comparing experiments.

Subcommands:
    run          one experiment from a JSON config
    grid-search  constant learning-rate sweep on a config
    mu-trace     per-broadcast precision-budget trace at probe widths
    compare      a suite of algorithms on one shared problem

The number of parallel runs in ``compare`` is capped by the DQSIM_THREADS
environment variable (default 1, fully serial). The executor modules are
imported only for DQSIM_THREADS > 1 and for ``execution: "threads"``, so a
simulated run or a serial compare loads none of them (about 1.3 MB less
memory). A rejected config, option or file, and a run whose values overflow
what the wire can carry (a divergent step size), end the command with one
``dqsim: error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .harness import (
    compare_suite,
    figure_mu_trace,
    load_config,
    lr_grid_search,
    parse_config,
    run_experiment,
)


def _apply_overrides(config, args):
    raw = config.to_dict()
    if args.seed is not None:
        raw["algo"]["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        raw["run"]["out_dir"] = args.out
    if getattr(args, "algo", None) is not None:
        raw["algo"]["algo"] = args.algo
    return parse_config(raw)


def _add_common(sub, out: bool = True, algo: bool = True):
    """--config, --seed, and the --out and --algo overrides it reads."""
    sub.add_argument("--config", required=True, help="path to a JSON config")
    sub.add_argument("--seed", type=int, default=None, help="override algo.seed")
    if out:
        sub.add_argument("--out", help="override output directory")
    if algo:
        sub.add_argument("--algo", help="override algorithm name")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dqsim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one experiment")
    _add_common(p_run)

    p_grid = subs.add_parser("grid-search", help="constant learning-rate sweep")
    _add_common(p_grid, out=False)  # writes no file
    p_grid.add_argument(
        "--grid", default="1e-1,5e-2,1e-2,5e-3,1e-3,5e-4,1e-4,5e-5,1e-5",
        help="comma-separated learning rates",
    )
    p_grid.add_argument("--budget-epochs", type=int, default=None)

    p_mu = subs.add_parser("mu-trace", help="precision-budget trace")
    _add_common(p_mu)
    p_mu.add_argument("--widths", default="4,8",
                      help="comma-separated probe bit widths")

    # no abbreviations, so the dropped --algo is not read as --algos
    p_cmp = subs.add_parser("compare", help="compare algorithms on one problem",
                            allow_abbrev=False)
    _add_common(p_cmp, algo=False)  # --algos names every run
    p_cmp.add_argument(
        "--algos",
        default="asyfpg,acc_asyfpg,qsvrg,asylpg,sparse_asylpg,acc_asylpg",
        help="comma-separated algorithm names",
    )

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Run the parsed subcommand and print its JSON result."""
    config = _apply_overrides(load_config(args.config), args)

    if args.command == "run":
        report = run_experiment(config)
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.command == "grid-search":
        grid = [float(v) for v in args.grid.split(",") if v]
        best, results = lr_grid_search(config, grid,
                                       budget_epochs=args.budget_epochs)
        losses = {lr: loss if math.isfinite(loss) else None
                  for lr, loss in results.items()}  # JSON has no Infinity
        print(json.dumps({"best_lr": best, "final_losses": losses}, indent=2))
        return 0

    if args.command == "mu-trace":
        widths = [int(v) for v in args.widths.split(",") if v]
        summary = figure_mu_trace(config, probe_widths=widths)
        del summary["rows"]
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    # compare
    names = [v.strip() for v in args.algos.split(",") if v.strip()]
    outcome = compare_suite(config, names)
    table = {"loss_target": outcome["loss_target"], "table": outcome["table"]}
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
