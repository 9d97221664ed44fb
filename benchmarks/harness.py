"""biaslab benchmark: three config grids, timed end to end and traced per layer.

One invocation runs one workload at one seed:

1. ``setup_s``: fresh interpreters each import ``biaslab`` and
   ``load_config`` the workload's reference config; the median is reported.
2. ``biaslab.cli.main(["run", ...])`` runs the grid untimed, which also
   warms the process up. Its exit code and csv must agree with the first
   in-process grid.
3. Untraced grids (``experiment.run`` plus ``experiment.render(rows, "csv")``,
   the calls ``biaslab run`` makes) repeat until ``seconds`` have passed.
   With ``trace`` on, traced grids alternate with them.

Every grid is checked (see :func:`check_grid`) and must match the first
in-process grid's csv. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` (grids) and the metrics; a record of the run, with
its environment and every sample, goes to ``out/`` beside this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from biaslab import cli, experiment

import tracing
from run import BLAS_THREAD_VARS

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("forest", "parametric", "sweep")
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "grid_s": "s", "peak_rss_mb": "MB"}

# Per-layer stats, keyed by span name. busy_s includes child spans; self_s
# does not. Which end-to-end metric each should move is in README.md.
LAYER_STATS = {
    "dgp.generate": ("calls", "rows", "busy_s"),
    "estimators.fit_forest": ("calls", "busy_s", "trees", "nodes"),
    "estimators.predict": ("calls", "rows", "busy_s"),
    "estimators.fit_probit": ("calls", "busy_s", "newton_iters"),
    "estimators.fit_logit": ("calls", "busy_s", "newton_iters"),
    "estimators.fit_ols": ("calls", "busy_s"),
    "audit.error_report": ("calls", "rows", "busy_s"),
    "audit.compare": ("calls", "busy_s"),
    "experiment.run_cell": ("calls", "self_s", "errors"),
    "experiment.aggregate": ("busy_s",),
    "experiment.analytic_for_cell": ("busy_s",),
    "experiment.render": ("busy_s",),
    "experiment.load_config": ("busy_s",),
    "analytic_linear.omitted_group_errors": ("busy_s",),
    "analytic_probit.omitted_group_errors_probit": ("busy_s",),
    "moments.group_moments": ("calls",),
    "moments.pooled_moments": ("calls",),
    "grid": ("busy_s",),  # root span of one traced grid: run plus render
}
PER_LAYER_UNITS = {
    "%s.%s" % (name, stat): ("s" if stat.endswith("_s") else "count")
    for name, stats in LAYER_STATS.items()
    for stat in stats
}
PER_LAYER_UNITS["consistent_frac"] = "frac"
PER_LAYER_UNITS["trace_overhead_frac"] = "frac"

_STATS = ("b_pop", "b_g0", "b_g1", "tau", "se_pop", "se_g0", "se_g1", "se_tau")
_ANALYTIC = ("analytic_b_g0", "analytic_b_g1", "analytic_tau")

_SETUP_PROBE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import biaslab
biaslab.load_config(sys.argv[2])
print(repr(time.perf_counter() - started))
"""


def config_path(workload: str) -> Path:
    return CONFIG_DIR / ("%s.json" % workload)


def blas_thread_cap() -> int | None:
    """The smallest thread count the BLAS/OpenMP variables allow (run.py sets them)."""
    values = [os.environ.get(var, "") for var in BLAS_THREAD_VARS]
    caps = [int(v) for v in values if v.isdigit()]
    return min(caps) if caps else None


def check_grid(config, rows, csv: str, reference_csv: str | None) -> list[str]:
    """Why a grid failed; an empty list when it passed.

    A grid fails when a cell's row is missing or out of place, a row has
    verdict ``error`` or a non-finite statistic, or its csv differs from
    the reference grid of the same invocation and seed.
    """
    problems = []
    if len(rows) != len(config.cells):
        problems.append("%d rows for %d cells" % (len(rows), len(config.cells)))
    for index, (cell, row) in enumerate(zip(config.cells, rows)):
        if (row.dgp, row.model, row.features) != (cell.dgp.family, cell.model, cell.features):
            problems.append("cell %d: row is for another cell" % index)
        if row.verdict == "error":
            problems.append("cell %d: error row: %s" % (index, row.error))
            continue
        values = [getattr(row, name) for name in _STATS]
        values += [getattr(row, name) for name in _ANALYTIC if getattr(row, name) is not None]
        if not all(math.isfinite(v) for v in values):
            problems.append("cell %d: non-finite statistic" % index)
    if reference_csv is not None and csv != reference_csv:
        problems.append("csv differs from the first grid of this seed")
    return problems


def consistent_frac(rows) -> float:
    """Consistent cells over cells with any verdict.

    A grid with no verdict-bearing cell (the forest workload: no closed
    form covers a forest) has no inconsistent cell and reads 1.
    """
    judged = [r.verdict for r in rows if r.verdict in ("consistent", "inconsistent")]
    return judged.count("consistent") / len(judged) if judged else 1.0


def measure_setup(path: Path, probes: int) -> list[float]:
    """Import + load_config seconds in fresh interpreters (one unrecorded)."""
    samples = []
    for _ in range(probes + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC_DIR), str(path)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def run_grid(config):
    rows = experiment.run(config)
    return rows, experiment.render(rows, "csv")


def timed_grid(config):
    gc.collect()
    started = time.perf_counter()
    rows, csv = run_grid(config)
    return time.perf_counter() - started, rows, csv


def cli_run(path: Path, seed: int, out_csv: Path) -> tuple[int, str | None]:
    """Run the grid through ``biaslab run``; its exit code and csv text."""
    code = cli.main(["run", "--config", str(path), "--seed", str(seed), "--out", str(out_csv)])
    return code, out_csv.read_text() if code in (0, 1) else None


def check_cli(code: int, cli_csv: str | None, rows, csv: str) -> list[str]:
    """The CLI grid's failures, judged against an in-process grid."""
    expected = 1 if any(r.verdict == "inconsistent" for r in rows) else 0
    if code != expected:
        return ["biaslab run exited %d, expected %d" % (code, expected)]
    if cli_csv != csv:
        return ["biaslab run csv differs from the in-process grid"]
    return []


def summary(samples: list[float]) -> dict:
    out = {"n": len(samples), "median": statistics.median(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3, min=min(samples), max=max(samples))
    out["values"] = samples
    return out


def layer_metrics(spans) -> dict[str, float]:
    totals = tracing.layer_totals(spans)
    return {
        "%s.%s" % (name, stat): totals[name][stat] if name in totals else 0.0
        for name, stats in LAYER_STATS.items()
        for stat in stats
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(workload: str, seed: int) -> dict:
    rows_per_group = {}
    for name in WORKLOADS:
        with open(config_path(name)) as fh:
            cells = json.load(fh)["cells"]
        rows_per_group[name] = sorted({c["dgp"]["n_per_group"] for c in cells})
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_cap": blas_thread_cap(),
        "rows_per_group": rows_per_group,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Measure one workload; returns the result line and the run record."""
    path = config_path(workload)
    setup = measure_setup(path, SETUP_PROBES)
    config = dataclasses.replace(experiment.load_config(path), base_seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, int(trace))

    attempted, failed, problems = 0, 0, []

    def record(found):
        nonlocal attempted, failed
        attempted += 1
        failed += bool(found)
        problems.extend(found)

    # The CLI grid also warms the process up before timing starts.
    cli_code, cli_csv = cli_run(path, seed, out_dir / ("%s.cli.csv" % stem))
    reference = None
    fractions = []

    tracer = tracing.Tracer() if trace else None
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        elapsed, rows, csv = timed_grid(config)
        untraced.append(elapsed)
        found = check_grid(config, rows, csv, reference)
        record(found)
        if reference is None:
            reference = csv
            # Same exit code and bytes: the cli grid has this grid's rows.
            record(check_cli(cli_code, cli_csv, rows, csv) or found)
        fractions.append(consistent_frac(rows))
        if tracer is None:
            continue
        first = len(tracer.spans)
        gc.collect()
        with tracer.installed():
            with tracer.span("setup"):
                experiment.load_config(path)
            with tracer.span("grid") as root:
                rows, csv = run_grid(config)
        traced.append(root.duration)
        layers.append(layer_metrics(tracer.spans[first:]))
        record(check_grid(config, rows, csv, reference))

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "grid_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["consistent_frac"] = statistics.median(fractions)
        metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        units = PER_LAYER_UNITS
        tracer.write_jsonl(out_dir / ("%s.trace.jsonl" % stem))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    run_record = {
        "environment": environment(workload, seed),
        "result": result,
        "failed_frac": failed / attempted,
        "consistent_frac": statistics.median(fractions),
        "problems": problems,
        "samples": {
            "setup_s": summary(setup),
            "grid_s": summary(untraced),
            "consistent_frac": summary(fractions),
        },
    }
    if traced:
        run_record["samples"]["traced_grid_s"] = summary(traced)
    with open(out_dir / ("%s.json" % stem), "w") as fh:
        json.dump(run_record, fh, indent=1)
        fh.write("\n")
    return run_record


def _report(run_record: dict) -> None:
    """Human-readable lines: each metric with its unit and sample count."""
    env, result, samples = run_record["environment"], run_record["result"], run_record["samples"]
    print("biaslab benchmark: workload %s, seed %d" % (env["workload"], env["seed"]))
    traced = samples.get("traced_grid_s", {}).get("n")
    for name, metric in result["metrics"].items():
        count = samples[name]["n"] if name in samples else traced
        note = "median of %d" % count if count else "whole process"
        print("  %-48s %14.6g %-5s %s" % (name, metric["value"], metric["unit"], note))
    if "consistent_frac" not in result["metrics"]:
        count = samples["consistent_frac"]["n"]
        print(
            "  %-48s %14.6g %-5s median of %d"
            % ("consistent_frac", run_record["consistent_frac"], "frac", count)
        )
    print(
        "  %-48s %14.6g %-5s %d of %d grids"
        % ("failed_frac", run_record["failed_frac"], "frac", result["failed"], result["attempted"])
    )
    for problem in run_record["problems"]:
        print("  check failed: %s" % problem)
    print("environment: %s" % json.dumps(env, sort_keys=True))


def _seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError("--seconds must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    _report(run_record)
    print(json.dumps(run_record["result"]))
    return 0 if run_record["result"]["correct"] else 1
