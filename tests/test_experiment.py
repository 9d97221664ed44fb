"""Experiment grid: configs, aggregation, analytic attachment, rendering, CLI."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import biaslab
from biaslab.analytic_linear import LinearDgpCoefficients, omitted_group_errors
from biaslab.audit import ErrorReport
from biaslab.cli import main
from biaslab.dgp import DgpSpec, derive_seed
from biaslab.exceptions import ConfigError
from biaslab.experiment import (
    CSV_HEADER,
    ExperimentCell,
    ExperimentConfig,
    PROBIT_MIXTURE_TOLERANCE,
    TABLE_BETA,
    TABLE_BETA_POLY,
    TABLE_MIXTURE,
    aggregate,
    analytic_for_cell,
    parse_config,
    parse_mixture,
    render,
    run,
    table1_config,
)

from conftest import independent_mixture, make_mixture


def small_cell(family="linear", model="ols", features="x1_only", n=300, mixture=None):
    spec = DgpSpec(
        family=family,
        beta=TABLE_BETA_POLY if family == "polynomial" else TABLE_BETA,
        mixture=mixture or TABLE_MIXTURE,
        n_per_group=n,
    )
    return ExperimentCell(dgp=spec, model=model, features=features)


def small_config(cells, replications=3, seed=77):
    return ExperimentConfig(cells=tuple(cells), replications=replications, base_seed=seed)


# --- configuration ---


def test_reference_grid_layout():
    config = table1_config()
    layout = [(c.dgp.family, c.model, c.features) for c in config.cells]
    assert layout == [
        ("linear", "ols", "both"),
        ("linear", "ols", "x1_only"),
        ("logit", "logit", "both"),
        ("logit", "logit", "x1_only"),
        ("probit", "probit", "both"),
        ("probit", "probit", "x1_only"),
        ("linear", "forest", "both"),
        ("linear", "forest", "x1_only"),
        ("polynomial", "ols", "both"),
        ("polynomial", "ols", "x1_only"),
    ]
    for cell in config.cells:
        assert cell.dgp.n_per_group == 10_000
        assert cell.dgp.mixture == TABLE_MIXTURE
        want = TABLE_BETA_POLY if cell.dgp.family == "polynomial" else TABLE_BETA
        assert cell.dgp.beta == want
    assert config.replications == 30


def test_reference_mixture_parameters():
    g0, g1 = TABLE_MIXTURE.groups
    assert g0.mean == (1.0, 1.0) and g1.mean == (1.0, 3.0)
    assert g0.covariance == ((1.0, 0.5), (0.5, 1.0))
    assert g1.covariance == ((1.0, -0.5), (-0.5, 1.0))
    assert TABLE_MIXTURE.weights == (0.5, 0.5)


def test_cell_validation():
    with pytest.raises(ConfigError):
        small_cell(model="ridge")
    with pytest.raises(ConfigError):
        small_cell(features="x2_only")
    with pytest.raises(ConfigError):
        small_cell(family="linear", model="probit")  # needs binary outcomes
    with pytest.raises(ConfigError):
        ExperimentConfig(cells=())


# --- analytic attachment ---


def test_analytic_for_correct_specification_is_zero():
    for family, model in (("linear", "ols"), ("probit", "probit"), ("logit", "logit")):
        pred, slack = analytic_for_cell(small_cell(family=family, model=model, features="both"))
        assert (pred.b_pop, pred.b_group0, pred.b_group1, pred.tau) == (0.0, 0.0, 0.0, 0.0)
        assert slack == 0.0


def test_analytic_for_short_linear_model():
    pred, slack = analytic_for_cell(small_cell())
    direct = omitted_group_errors(LinearDgpCoefficients(*TABLE_BETA), TABLE_MIXTURE)
    assert pred == direct
    assert slack == 0.0


def test_analytic_for_short_probit_model():
    ok, slack = analytic_for_cell(
        small_cell(family="probit", model="probit", mixture=independent_mixture())
    )
    assert ok is not None
    assert slack == PROBIT_MIXTURE_TOLERANCE
    # The reference mixture's within-group correlation violates the closed
    # form's assumptions, so no prediction is attached there.
    none, slack = analytic_for_cell(small_cell(family="probit", model="probit"))
    assert none is None and slack == 0.0


def test_no_analytic_for_uncovered_cells():
    for cell in (
        small_cell(model="forest"),
        small_cell(family="polynomial", features="both"),
        small_cell(family="logit", model="logit"),
    ):
        assert analytic_for_cell(cell) == (None, 0.0)


# --- running and aggregation ---


def test_short_linear_run_is_consistent_with_the_closed_form():
    rows = run(small_config([small_cell(n=2_000)], replications=3))
    row = rows[0]
    assert row.verdict == "consistent"
    assert row.analytic_b_g0 == pytest.approx(1.0, abs=1e-12)
    assert row.analytic_tau == pytest.approx(-2.0, abs=1e-12)
    assert row.tau == row.b_g1 - row.b_g0
    assert row.replications == 3
    assert row.error == ""


def test_failed_cells_become_error_rows():
    # A huge negative intercept makes every label zero, so the MLE blows up;
    # the grid run still reports the cell instead of aborting.
    spec = DgpSpec(
        family="probit", beta=(-50.0, 0.0, 0.0), mixture=TABLE_MIXTURE, n_per_group=50
    )
    cell = ExperimentCell(dgp=spec, model="probit", features="both")
    good = small_cell(n=200)
    config = small_config([cell, good], replications=2)
    rows = run(config)
    assert rows[0].verdict == "error"
    seed = derive_seed(config.base_seed, 0, 0)
    assert rows[0].error.startswith("replication 0 (seed %d): SeparationError: " % seed)
    assert math.isnan(rows[0].b_pop)
    assert rows[1].verdict == "consistent"


def test_non_finite_statistics_make_an_error_row(tmp_path, capsys):
    # beta0 = 1e308 overflows the least-squares fit, so every statistic is NaN;
    # no comparison is made, so the cell reads error and the exit code stays 0.
    obj = config_json()
    obj["cells"][0]["dgp"]["beta"] = [1e308, 1.0, 1.0]
    config = parse_config(obj)
    with pytest.warns(RuntimeWarning):
        row = run(config)[0]
        code = main(["run", "--config", write_config(tmp_path, obj)])
    assert row.verdict == "error"
    seed = derive_seed(config.base_seed, 0, 0)
    assert row.error.startswith("replication 0 (seed %d): non-finite statistics: b_pop" % seed)
    assert all(math.isnan(getattr(row, name)) for name in ("b_pop", "b_g0", "b_g1", "tau"))
    assert row.analytic_tau is None
    assert code == 0
    assert ",error\n" in capsys.readouterr().out


def test_unequal_group_weights_match_the_closed_form():
    # 900 rows of group 0 and 100 of group 1 per replication, as the weight says.
    mixture = make_mixture((0.0, 1.0), (0.5, 3.0), weight=0.1)
    spec = DgpSpec(family="linear", beta=(-0.5, 1.0, 1.0), mixture=mixture, n_per_group=500)
    cell = ExperimentCell(dgp=spec, model="ols", features="x1_only")
    row = run(small_config([cell], replications=5))[0]
    assert row.verdict == "consistent"


def test_per_cell_replication_override():
    cell = small_cell(n=500)
    solo = ExperimentCell(dgp=cell.dgp, model=cell.model, features=cell.features, replications=1)
    rows = run(small_config([solo], replications=4))
    assert rows[0].replications == 1


def fake_report(seed):
    rng = np.random.default_rng(seed)
    b0, b1 = rng.standard_normal(2)
    return ErrorReport(
        b_pop=(b0 + b1) / 2,
        b_group0=b0,
        b_group1=b1,
        tau=b1 - b0,
        se_pop=0.1,
        se_group0=0.1,
        se_group1=0.1,
        se_tau=0.1,
        n_pop=100,
        n_group0=50,
        n_group1=50,
    )


def test_aggregate_is_order_invariant():
    indexed = [(r, fake_report(r)) for r in range(6)]
    shuffled = [indexed[i] for i in (3, 0, 5, 1, 4, 2)]
    assert aggregate(indexed) == aggregate(shuffled)


def test_aggregate_recomputes_tau_and_replication_ses():
    indexed = [(r, fake_report(r)) for r in range(5)]
    report = aggregate(indexed)
    b0s = [rep.b_group0 for _, rep in indexed]
    assert report.b_group0 == pytest.approx(sum(b0s) / 5, abs=1e-12)
    assert report.tau == report.b_group1 - report.b_group0
    assert report.se_group0 == pytest.approx(np.std(b0s, ddof=1) / math.sqrt(5), rel=1e-12)
    assert (report.n_pop, report.n_group0, report.n_group1) == (500, 250, 250)


def test_aggregate_single_replication_passes_through():
    only = fake_report(9)
    report = aggregate([(0, only)])
    assert report.b_group0 == only.b_group0
    assert report.se_group0 == only.se_group0
    assert report.se_tau == only.se_tau


def test_runs_are_deterministic():
    config = small_config([small_cell(n=400)], replications=2)
    first = render(run(config), "csv")
    second = render(run(config), "csv")
    assert first == second
    other = small_config([small_cell(n=400)], replications=2, seed=78)
    assert render(run(other), "csv") != first


# --- rendering and parsing ---


def test_csv_layout():
    # 5 replications: at 3 the replication-SE has 2 degrees of freedom and
    # |z| > 4 is a few-percent event rather than a defect signal.
    rows = run(small_config([small_cell(n=300), small_cell(n=300, model="forest")], replications=5))
    text = render(rows, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == 15
    assert first[:3] == ["linear", "ols", "x1_only"]
    assert first[-1] == "consistent"
    forest = lines[2].split(",")
    assert forest[11:14] == ["", "", ""]  # no closed form for the forest
    assert forest[-1] == ""


def test_markdown_layout():
    rows = run(small_config([small_cell(n=300)]))
    lines = render(rows, "markdown").strip().split("\n")
    assert lines[0].startswith("| DGP | Model | Features |")
    assert len(lines) == 3
    assert lines[2].count("|") == 8


def test_json_round_trip():
    rows = run(small_config([small_cell(n=300)]))
    payload = json.loads(render(rows, "json"))
    assert payload["rows"][0] == rows[0].to_dict()
    assert payload["rows"][0]["b_g0"] == rows[0].b_g0  # full precision survives


def test_unknown_format_rejected():
    rows = run(small_config([small_cell(n=300)]))
    with pytest.raises(ConfigError):
        render(rows, "yaml")


MIXTURE_JSON = {
    "groups": [
        {"mean": [1.0, 1.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        {"mean": [1.0, 3.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
    ],
    "weight_protected": 0.5,
}


def config_json(**overrides):
    obj = {
        "cells": [
            {
                "dgp": {
                    "family": "linear",
                    "beta": [-2.0, 1.0, 1.0],
                    "mixture": MIXTURE_JSON,
                    "n_per_group": 200,
                },
                "model": "ols",
                "features": "x1_only",
            }
        ],
        "replications": 2,
        "seed": 11,
    }
    obj.update(overrides)
    return obj


def test_parse_config_round_trip():
    config = parse_config(config_json())
    assert config.replications == 2
    assert config.base_seed == 11
    assert config.cells[0].dgp.family == "linear"
    assert config.cells[0].dgp.mixture == parse_mixture(MIXTURE_JSON)


def test_parse_config_rejects_malformed_input():
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_mixture({"groups": [{"mean": [0, 0]}]})
    bad_model = config_json()
    bad_model["cells"][0]["model"] = "ridge"
    with pytest.raises(ConfigError):
        parse_config(bad_model)
    bad_cov = config_json()
    bad_cov["cells"][0]["dgp"]["mixture"] = {
        "groups": [
            {"mean": [0.0, 0.0], "covariance": [[1.0, 2.0], [2.0, 1.0]]},
            {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
        ]
    }
    with pytest.raises(ConfigError):
        parse_config(bad_cov)


# --- command line ---


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_run_writes_csv(tmp_path, capsys):
    path = write_config(tmp_path, config_json())
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_cli_run_seed_override_changes_output(tmp_path, capsys):
    path = write_config(tmp_path, config_json())
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["run", "--config", path, "--out", str(first)]) == 0
    assert main(["run", "--config", path, "--seed", "99", "--out", str(second)]) == 0
    assert first.read_text() != second.read_text()


def test_cli_run_flags_inconsistent_cells(tmp_path, capsys):
    # An absurdly small z threshold turns statistical dust into a failure.
    obj = config_json(z_threshold=1e-9)
    path = write_config(tmp_path, obj)
    assert main(["run", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1


def test_cli_rejects_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def with_cell(n_per_group=200, **cell):
    obj = config_json()
    obj["cells"][0]["dgp"]["n_per_group"] = n_per_group
    obj["cells"][0].update(cell)
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        config_json(seed="abc"),
        config_json(replications=2.5),
        config_json(replications=True),
        config_json(z_threshold="x"),
        config_json(z_threshold=-1),
        config_json(z_threshold=math.inf),
        with_cell(n_per_group=True),
        with_cell(replications=1.5),
        with_cell(n_per_group=3, model="forest"),
    ],
    ids=[
        "string-seed",
        "fractional-replications",
        "bool-replications",
        "string-z",
        "negative-z",
        "infinite-z",
        "bool-n-per-group",
        "fractional-cell-replications",
        "forest-below-min-leaf",
    ],
)
def test_cli_refuses_malformed_values_at_parse_time(tmp_path, capsys, obj):
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_cli_analytic_linear(tmp_path, capsys):
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    assert main(["analytic", "--family", "linear", "--beta=-2,1,1", "--mixture", str(mix)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["b_group0"] == pytest.approx(1.0, abs=1e-12)
    assert payload["tau"] == pytest.approx(-2.0, abs=1e-12)
    assert payload["bias_vanishes"] is False


def test_cli_analytic_probit_rejects_violated_assumptions(tmp_path, capsys):
    correlated = {
        "groups": [
            {"mean": [1.0, 1.0], "covariance": [[1.0, 0.5], [0.5, 1.0]]},
            {"mean": [1.0, 3.0], "covariance": [[1.0, -0.5], [-0.5, 1.0]]},
        ]
    }
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(correlated))
    code = main(["analytic", "--family", "probit", "--beta=-2,1,1", "--mixture", str(mix)])
    assert code == 2
    assert "covariance" in capsys.readouterr().err


def test_cli_bad_beta(tmp_path, capsys):
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    assert main(["analytic", "--family", "linear", "--beta=1,2", "--mixture", str(mix)]) == 2
    assert main(["analytic", "--family", "linear", "--beta=a,b,c", "--mixture", str(mix)]) == 2


def test_cli_entry_point_runs_as_module(tmp_path):
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    proc = subprocess.run(
        [sys.executable, "-m", "biaslab", "analytic", "--family", "probit",
         "--beta=-2,1,1", "--mixture", str(mix)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["tau"] == pytest.approx(-0.37589346050503821, abs=1e-12)


# --- package surface ---


def test_public_names_resolve_sorted_and_unique():
    names = list(biaslab.__all__)
    assert [name for name in names if not hasattr(biaslab, name)] == []
    assert names == sorted(set(names))
