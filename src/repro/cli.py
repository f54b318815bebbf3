"""Command-line entry point: ``python -m repro`` / ``repro-experiments``.

Examples::

    python -m repro list
    python -m repro run fig8b --scale small
    python -m repro run all --scale paper --seed 7
    python -m repro solve --n-subjects 200 --rounds 2 --check
    python -m repro serve --rounds 3 --parallel 2
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments.config import ExperimentConfig
from .experiments.runner import EXPERIMENTS, EXTENSIONS, run_all, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Dynamic Contract Design for Heterogenous "
            "Workers in Crowdsourcing for Quality Control' (ICDCS 2017)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    run_parser = subparsers.add_parser("run", help="run one experiment or 'all'")
    run_parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + sorted(EXTENSIONS) + ["all"],
        help="experiment id from DESIGN.md, an extension id, or 'all'",
    )
    run_parser.add_argument(
        "--extensions",
        action="store_true",
        help="with 'all': also run the ext_* extension experiments",
    )
    run_parser.add_argument(
        "--scale",
        choices=["paper", "small"],
        default="paper",
        help="trace scale (default: paper)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=7, help="trace/simulation seed (default: 7)"
    )
    from .obs.cli import add_obs_arguments, add_obs_out_argument

    add_obs_out_argument(run_parser)

    report_parser = subparsers.add_parser(
        "report", help="run experiments and write a markdown report"
    )
    report_parser.add_argument(
        "--out", default="report.md", help="output markdown path"
    )
    report_parser.add_argument(
        "--scale", choices=["paper", "small"], default="paper"
    )
    report_parser.add_argument("--seed", type=int, default=7)
    report_parser.add_argument(
        "--no-extensions",
        action="store_true",
        help="omit the ext_* extension experiments",
    )
    add_obs_out_argument(report_parser)

    from .serving.cli import add_serve_arguments, add_solve_arguments

    solve_parser = subparsers.add_parser(
        "solve",
        help="pooled/cached contract solve over a synthetic population",
    )
    add_solve_arguments(solve_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve marketplace rounds through the shard router",
    )
    add_serve_arguments(serve_parser)

    from .serving.cluster.cli import add_bench_serve_arguments

    bench_serve_parser = subparsers.add_parser(
        "bench-serve",
        help="closed-loop load benchmark against the sharded serving cluster",
    )
    add_bench_serve_arguments(bench_serve_parser)

    lint_parser = subparsers.add_parser(
        "lint",
        help=(
            "run the theory-lint static analyzer (REPRO001-REPRO009; "
            "--flow adds cross-module passes REPRO010-REPRO013)"
        ),
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(lint_parser)

    obs_parser = subparsers.add_parser(
        "obs",
        help="inspect observability dumps (report / validate / metrics)",
    )
    add_obs_arguments(obs_parser)
    return parser


def _config_for(args: argparse.Namespace) -> ExperimentConfig:
    if args.scale == "small":
        return ExperimentConfig.small(seed=args.seed)
    return ExperimentConfig(scale="paper", seed=args.seed)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        from .analysis.cli import run_lint

        return run_lint(args)
    if args.command == "solve":
        from .serving.cli import run_solve

        return run_solve(args)
    if args.command == "serve":
        from .serving.cli import run_serve

        return run_serve(args)
    if args.command == "bench-serve":
        from .serving.cluster.cli import run_bench_serve

        return run_bench_serve(args)
    if args.command == "obs":
        from .obs.cli import run_obs

        return run_obs(args)
    if args.command == "list":
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        for experiment_id in EXTENSIONS:
            print(experiment_id)
        return 0

    from .obs.cli import obs_session

    config = _config_for(args)
    if args.command == "report":
        from .experiments.report import write_report

        with obs_session(args.obs_out):
            path = write_report(
                args.out,
                config=config,
                include_extensions=not args.no_extensions,
            )
        print(f"wrote {path}")
        return 0

    with obs_session(args.obs_out):
        if args.experiment == "all":
            results = run_all(config, include_extensions=args.extensions)
        else:
            results = [run_experiment(args.experiment, config)]

    all_pass = True
    for result in results:
        print(result.format())
        print()
        all_pass = all_pass and result.all_checks_pass
    return 0 if all_pass else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
