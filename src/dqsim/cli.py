"""Command-line entry points for running and comparing experiments.

Subcommands:
    run          one experiment from a JSON config
    grid-search  constant learning-rate sweep on a config
    mu-trace     per-broadcast precision-budget trace at probe widths
    compare      a suite of algorithms on one shared problem

The number of parallel runs in ``compare`` is capped by the DQSIM_THREADS
environment variable (default 1, fully serial). A rejected config, option or
file ends the command with one ``dqsim: error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
        raw["run"]["seed"] = args.seed
    if args.out is not None:
        raw["run"]["out_dir"] = args.out
    if args.algo is not None:
        raw["algo"]["algo"] = args.algo
    return parse_config(raw)


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a JSON config")
    sub.add_argument("--seed", type=int, default=None, help="override run seed")
    sub.add_argument("--out", default=None, help="override output directory")
    sub.add_argument("--algo", default=None, help="override algorithm name")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dqsim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one experiment")
    _add_common(p_run)

    p_grid = subs.add_parser("grid-search", help="constant learning-rate sweep")
    _add_common(p_grid)
    p_grid.add_argument(
        "--grid", default="1e-1,5e-2,1e-2,5e-3,1e-3,5e-4,1e-4,5e-5,1e-5",
        help="comma-separated learning rates",
    )
    p_grid.add_argument("--budget-epochs", type=int, default=None)

    p_mu = subs.add_parser("mu-trace", help="precision-budget trace")
    _add_common(p_mu)
    p_mu.add_argument("--widths", default="4,8",
                      help="comma-separated probe bit widths")

    p_cmp = subs.add_parser("compare", help="compare algorithms on one problem")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--algos",
        default="asyfpg,acc_asyfpg,qsvrg,asylpg,sparse_asylpg,acc_asylpg",
        help="comma-separated algorithm names",
    )

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
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
        print(json.dumps({"best_lr": best, "final_losses": results}, indent=2))
        return 0

    if args.command == "mu-trace":
        widths = [int(v) for v in args.widths.split(",") if v]
        out_path = None
        out_dir = config.run.out_dir
        if out_dir:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            out_path = str(Path(out_dir) / "mu_trace.csv")
        summary = figure_mu_trace(config, probe_widths=widths, out_path=out_path)
        summary = {k: v for k, v in summary.items() if k != "rows"}
        summary["csv"] = out_path
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    if args.command == "compare":
        names = [v.strip() for v in args.algos.split(",") if v.strip()]
        configs = []
        for name in names:
            raw = config.to_dict()
            raw["algo"]["algo"] = name
            if raw["run"]["out_dir"]:
                raw["run"]["out_dir"] = str(Path(raw["run"]["out_dir"]) / name)
            configs.append(parse_config(raw))
        outcome = compare_suite(configs)
        table = {"loss_target": outcome["loss_target"], "table": outcome["table"]}
        print(json.dumps(table, indent=2, sort_keys=True))
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
