"""Tests of the benchmark harness on tiny versions of its workloads.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import tracing  # noqa: E402
from biaslab import dgp, experiment  # noqa: E402
from biaslab.exceptions import ConvergenceError  # noqa: E402

# Rows per group and replications of the tiny workloads.
TINY = {"forest": (40, 1), "parametric": (300, 2), "sweep": (200, 2)}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Point the harness at shrunken copies of the reference configs."""
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    for name, (rows, replications) in TINY.items():
        with open(harness.config_path(name)) as fh:
            obj = json.load(fh)
        obj["replications"] = replications
        for cell in obj["cells"]:
            cell["dgp"]["n_per_group"] = rows
        (config_dir / ("%s.json" % name)).write_text(json.dumps(obj))
    monkeypatch.setattr(harness, "CONFIG_DIR", config_dir)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    return tmp_path


def tiny_grid(workload, seed=3):
    config = experiment.load_config(harness.config_path(workload))
    config = dataclasses.replace(config, base_seed=seed)
    rows, csv = harness.run_grid(config)
    return config, rows, csv


def test_metric_names_and_units_match_benchmark_json():
    with open(harness.REPO_ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(tiny, workload, trace):
    record = harness.run_benchmark(workload, 5, 0.0, trace, tiny / "out")
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 2)  # cli, untraced[, traced]
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert list(result["metrics"]) == list(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
    assert record["environment"]["seed"] == 5
    assert record["environment"]["rows_per_group"][workload] == [TINY[workload][0]]


def test_layer_counts_are_exact(tiny):
    result = harness.run_benchmark("parametric", 5, 0.0, True, tiny / "out")["result"]
    value = {name: m["value"] for name, m in result["metrics"].items()}
    rows, replications = TINY["parametric"]
    runs = 8 * replications
    assert value["dgp.generate.calls"] == runs
    assert value["dgp.generate.rows"] == runs * 2 * rows
    assert value["estimators.fit_probit.calls"] == 2 * replications
    assert value["estimators.fit_probit.newton_iters"] >= 2 * replications
    assert value["estimators.fit_forest.calls"] == 0
    assert value["experiment.run_cell.calls"] == 8
    assert value["experiment.run_cell.errors"] == 0


def test_check_grid_accepts_a_good_grid_and_names_each_failure(tiny):
    config, rows, csv = tiny_grid("sweep")
    assert harness.check_grid(config, rows, csv, csv) == []

    assert harness.check_grid(config, rows, csv + "x", csv)
    error_row = dataclasses.replace(rows[0], verdict="error", error="ConvergenceError: x")
    assert harness.check_grid(config, [error_row] + rows[1:], csv, csv)
    assert harness.check_grid(config, rows[1:], csv, csv)
    nan_row = dataclasses.replace(rows[2], tau=float("nan"))
    assert harness.check_grid(config, rows[:2] + [nan_row] + rows[3:], csv, csv)
    assert harness.check_grid(config, rows[::-1], csv, csv)


def test_consistent_frac_counts_cells_with_a_verdict(tiny):
    _, rows, _ = tiny_grid("sweep")
    verdicts = [r.verdict for r in rows]
    assert harness.consistent_frac(rows) == verdicts.count("consistent") / len(rows)
    _, forest_rows, _ = tiny_grid("forest")
    assert {r.verdict for r in forest_rows} == {""}
    assert harness.consistent_frac(forest_rows) == 1.0


def run_main(capsys, workload):
    code = harness.main(["--workload", workload, "--seed", "2", "--seconds", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_command_fails_when_a_grid_csv_differs(tiny, monkeypatch, capsys):
    monkeypatch.setattr(harness, "OUT_DIR", tiny / "out")
    render = experiment.render
    calls = []

    def drifting_render(rows, fmt):
        calls.append(fmt)
        return render(rows, fmt) + ("drift\n" if len(calls) == 2 else "")

    monkeypatch.setattr(experiment, "render", drifting_render)
    code, result = run_main(capsys, "sweep")
    assert len(calls) == 2  # the cli grid, then one timed grid
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_command_fails_on_an_error_row(tiny, monkeypatch, capsys):
    monkeypatch.setattr(harness, "OUT_DIR", tiny / "out")

    def failing_fit(*args, **kwargs):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(experiment, "fit_ols", failing_fit)
    code, result = run_main(capsys, "sweep")
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_trace_self_times_sum_to_each_root(tiny):
    config = dataclasses.replace(
        experiment.load_config(harness.config_path("parametric")), base_seed=4
    )
    untraced_csv = harness.run_grid(config)[1]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert experiment.generate is not dgp.generate
        with tracer.span("grid") as root:
            _, csv = harness.run_grid(config)
    assert experiment.generate is dgp.generate
    assert csv == untraced_csv

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    by_id = {s.id: s for s in spans}

    def subtree(top):
        out = []
        for span in spans:
            node = span
            while node is not None and node.id != top.id:
                node = by_id.get(node.parent)
            if node is not None:
                out.append(span)
        return out

    assert sum(selfs.values()) == pytest.approx(root.duration, rel=1e-9)
    replications = [s for s in spans if s.name == "experiment.run_replication"]
    rows, reps = TINY["parametric"]
    assert [(s.cell, s.rep) for s in replications] == [
        (c, r) for c in range(8) for r in range(reps)
    ]
    for rep_span in replications:
        members = subtree(rep_span)
        assert {(s.cell, s.rep) for s in members} == {(rep_span.cell, rep_span.rep)}
        assert {s.name for s in members} >= {"dgp.generate", "estimators.predict"}
        total = sum(selfs[s.id] for s in members)
        assert total == pytest.approx(rep_span.duration, rel=1e-9)


def test_self_time_subtracts_only_covered_intervals():
    spans = []
    for span_id, (parent, start, end) in enumerate(
        [(None, 0.0, 10.0), (0, 1.0, 3.0), (0, 2.0, 5.0), (0, 9.0, 12.0)]
    ):
        span = tracing.Span(span_id, "s", parent, None, None)
        span.start, span.end = start, end
        spans.append(span)
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(harness.REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
