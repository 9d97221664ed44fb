"""Command-line front end.

Subcommands:

* ``run``      execute an experiment grid from a JSON config
* ``analytic`` evaluate the closed-form group errors for a beta/mixture pair
* ``table1``   run the built-in ten-cell reference grid

``run`` and ``table1`` are one grid command with the same flags; they differ
only in where the config comes from and in the default ``--format``. Every
subcommand writes its report through ``_write``, which checks the write, the
flush and the close. ``analytic --beta`` takes three finite numbers.

Exit codes: 0 on a full run, 1 when any cell's analytic comparison is
inconsistent, 2 on configuration errors and on a report that cannot be
written, to ``--out`` or to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from . import experiment
from .analytic_linear import bias_vanishes_condition, omitted_group_errors
from .analytic_probit import omitted_group_errors_probit
from .dgp import _beta
from .exceptions import BiaslabError, ConfigError
from .experiment import _load_json, load_config, parse_mixture, run, table1_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaslab",
        description="Group-level prediction errors under model mis-specification: "
        "closed forms checked against Monte Carlo simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment grid from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    _grid_flags(run_p, "csv")

    ana_p = sub.add_parser("analytic", help="closed-form group errors, printed as JSON")
    ana_p.add_argument("--family", choices=("linear", "probit"), required=True)
    ana_p.add_argument(
        "--beta", required=True, help="comma-separated b0,b1,b2 of the outcome index"
    )
    ana_p.add_argument("--mixture", required=True, help="path to a JSON mixture spec")

    t1_p = sub.add_parser("table1", help="run the built-in ten-cell reference grid")
    _grid_flags(t1_p, "markdown")
    return parser


def _grid_flags(grid_p, fmt: str) -> None:
    """The flags that run and table1 share; fmt is the default --format."""
    grid_p.add_argument("--seed", type=int, default=None, help="override the config's base seed")
    grid_p.add_argument(
        "--replications", type=int, default=None, help="override the config's replication count"
    )
    grid_p.add_argument("--format", choices=("csv", "markdown", "json"), default=fmt, dest="fmt")
    grid_p.add_argument("--out", default=None, help="output path (default: stdout)")


def _parse_beta(text: str, family: str) -> tuple[float, ...]:
    """--beta's comma-separated numbers, held to the family's beta rule, as a config's are."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as err:
        raise ConfigError("--beta must be comma-separated numbers: %s" % err) from err
    return _beta(family, values)


def _cannot_write(path, err: OSError) -> ConfigError:
    return ConfigError("cannot write %s: %s" % ("stdout" if path is None else repr(path), err))


def _open_out(path):
    """--out opened for writing (None: stdout) before the grid runs: a bad path costs no work."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as err:
        raise _cannot_write(path, err) from err


def _write(out, path, text: str) -> None:
    """Write text to out (path None: stdout), flush it and close it unless it is stdout.

    An OSError from writing, flushing or closing is a ConfigError naming the output.
    """
    try:
        out.write(text)
        out.flush()  # else a short report to stdout fails at exit, outside any handler
        if path is not None:
            out.close()  # here, so that its errors are checked too
    except OSError as err:
        with contextlib.suppress(OSError):
            out.close()  # drops the unwritten text, which exit would flush again
        raise _cannot_write(path, err) from err


def _cmd_grid(args) -> int:
    """run's config or table1's, with --seed and --replications where given, run and written.

    An OSError from the grid itself propagates; only the output's are ConfigErrors.
    """
    config = load_config(args.config) if args.command == "run" else table1_config()
    overrides = {"base_seed": args.seed, "replications": args.replications}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    with _open_out(args.out) as out:
        rows = run(config)
        text = experiment.render(rows, args.fmt)  # on the module, so a tracer's wrapper sees it
        _write(out, args.out, text)
    return 1 if any(r.verdict == "inconsistent" for r in rows) else 0


def _cmd_analytic(args) -> int:
    beta = _parse_beta(args.beta, args.family)
    mixture = parse_mixture(_load_json(args.mixture, "mixture"))
    if args.family == "linear":
        payload = dataclasses.asdict(omitted_group_errors(beta, mixture))
        payload["bias_vanishes"] = bias_vanishes_condition(beta, mixture)
    else:
        payload = dataclasses.asdict(omitted_group_errors_probit(beta, mixture))
    non_finite = [name for name, value in payload.items() if not math.isfinite(value)]
    if non_finite:  # json would print NaN or Infinity, which are not JSON
        raise ConfigError("closed form is not finite: %s" % ", ".join(non_finite))
    _write(sys.stdout, None, json.dumps({"family": args.family, **payload}, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_analytic(args) if args.command == "analytic" else _cmd_grid(args)
    except BiaslabError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
