"""Command-line front end.

Subcommands:

* ``run``      execute an experiment grid from a JSON config
* ``analytic`` evaluate the closed-form group errors for a beta/mixture pair
* ``table1``   run the built-in ten-cell reference grid

Exit codes: 0 on a full run, 1 when any cell's analytic comparison is
inconsistent, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .analytic_linear import (
    LinearDgpCoefficients,
    bias_vanishes_condition,
    omitted_group_errors,
)
from .analytic_probit import ProbitDgpCoefficients, omitted_group_errors_probit
from .exceptions import BiaslabError, ConfigError
from .experiment import (
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
    emit,
    load_config,
    parse_mixture,
    run,
    table1_config,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaslab",
        description="Group-level prediction errors under model mis-specification: "
        "closed forms checked against Monte Carlo simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment grid from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config's base seed")
    run_p.add_argument(
        "--replications", type=int, default=None, help="override the config's replication count"
    )
    run_p.add_argument(
        "--format", choices=("csv", "markdown", "json"), default="csv", dest="fmt"
    )
    run_p.add_argument("--out", default=None, help="output path (default: stdout)")

    ana_p = sub.add_parser("analytic", help="closed-form group errors, printed as JSON")
    ana_p.add_argument("--family", choices=("linear", "probit"), required=True)
    ana_p.add_argument(
        "--beta", required=True, help="comma-separated b0,b1,b2 of the outcome index"
    )
    ana_p.add_argument("--mixture", required=True, help="path to a JSON mixture spec")

    t1_p = sub.add_parser("table1", help="run the built-in ten-cell reference grid")
    t1_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    t1_p.add_argument("--replications", type=int, default=DEFAULT_REPLICATIONS)
    t1_p.add_argument(
        "--format", choices=("csv", "markdown", "json"), default="markdown", dest="fmt"
    )
    t1_p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _parse_beta(text: str) -> tuple[float, float, float]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise ConfigError("--beta must be comma-separated numbers: %s" % err) from err
    if len(values) != 3:
        raise ConfigError("--beta needs exactly three values, got %d" % len(values))
    return values


def _run_and_emit(config, args) -> int:
    rows = run(config)
    emit(rows, args.fmt, args.out)
    return 1 if any(r.verdict == "inconsistent" for r in rows) else 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    if args.replications is not None:
        config = dataclasses.replace(config, replications=args.replications)
    return _run_and_emit(config, args)


def _cmd_analytic(args) -> int:
    beta = _parse_beta(args.beta)
    try:
        with open(args.mixture) as fh:
            mixture = parse_mixture(json.load(fh))
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError("cannot load mixture %r: %s" % (args.mixture, err)) from err
    if args.family == "linear":
        linear = LinearDgpCoefficients(*beta)
        payload = dataclasses.asdict(omitted_group_errors(linear, mixture))
        payload["bias_vanishes"] = bias_vanishes_condition(linear, mixture)
    else:
        probit = ProbitDgpCoefficients(*beta)
        payload = dataclasses.asdict(omitted_group_errors_probit(probit, mixture))
    non_finite = [name for name, value in payload.items() if not math.isfinite(value)]
    if non_finite:  # json would print NaN or Infinity, which are not JSON
        raise ConfigError("closed form is not finite: %s" % ", ".join(non_finite))
    print(json.dumps({"family": args.family, **payload}, indent=2))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analytic":
            return _cmd_analytic(args)
        config = table1_config(replications=args.replications, base_seed=args.seed)
        return _run_and_emit(config, args)
    except BiaslabError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
