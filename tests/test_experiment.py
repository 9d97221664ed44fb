"""Experiment grid: configs, aggregation, analytic attachment, rendering, CLI."""

import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import ndtr

import biaslab
from biaslab import cli, experiment
from biaslab.analytic_linear import (
    GroupErrorPrediction,
    omitted_group_errors,
)
from biaslab.analytic_probit import (
    gaussian_cdf_expectation,
    omitted_coefficients_probit,
)
from biaslab.audit import ErrorReport, column_mean_se, error_report
from biaslab.cli import main
from biaslab.dgp import DgpSpec, _count, derive_seed, generate
from biaslab.estimators import FittedModel, fit_forest, fit_ols, fit_probit, predict
from biaslab.exceptions import BiaslabError, ConfigError, InvalidCovarianceError
from biaslab.experiment import (
    CSV_HEADER,
    ExperimentCell,
    ExperimentConfig,
    TABLE_BETA,
    TABLE_BETA_POLY,
    TABLE_MIXTURE,
    aggregate,
    analytic_for_cell,
    compare,
    load_config,
    parse_config,
    parse_mixture,
    render,
    run,
    run_cell,
    table1_config,
)
from biaslab.moments import GroupGaussianSpec, MixtureSpec, _real, _reals, group_moments

from conftest import ROOT, fresh_python, independent_mixture, make_mixture, probit_short_fit_limit


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
        small_cell(family="polynomial", model="logit")
    with pytest.raises(ConfigError):
        ExperimentConfig(cells=())


def test_config_error_is_the_one_input_exception():
    # Library callers that catch ValueError keep working.
    assert issubclass(ConfigError, BiaslabError) and issubclass(ConfigError, ValueError)
    assert issubclass(InvalidCovarianceError, ConfigError)


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: _count("replications", 1.5),
        lambda: _count("seed", -1, 0),
        lambda: _real("z_threshold", "4"),
        lambda: _reals("beta", "12"),
        lambda: DgpSpec("quadratic", TABLE_BETA, TABLE_MIXTURE, 10),
        lambda: DgpSpec("linear", TABLE_BETA[:2], TABLE_MIXTURE, 10),
        lambda: DgpSpec("linear", TABLE_BETA, TABLE_MIXTURE, True),
        lambda: ExperimentConfig(cells=5),
        lambda: ExperimentConfig(cells=(small_cell(),), replications=0),
        lambda: ExperimentConfig(cells=(small_cell(),), z_threshold=-1.0),
        lambda: GroupGaussianSpec(mean=(0.0, 0.0), covariance=((1.0, 2.0), (2.0, 1.0))),
        lambda: MixtureSpec(groups=5),
        lambda: fit_ols(generate(small_cell().dgp, 1), "x2_only"),
    ],
    ids=[
        "count-fraction", "count-range", "real-string", "reals-string", "dgp-family",
        "dgp-beta-length", "dgp-bool-n", "config-cells", "config-replications", "config-z",
        "covariance", "mixture-groups", "fit-features",
    ],
)
def test_each_input_rule_raises_config_error(refuse):
    with pytest.raises(ConfigError):
        refuse()


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: predict(fit_ols(generate(small_cell().dgp, 1), "both"), [0.0]), "requires x2"),
        (lambda: fit_probit(generate(small_cell().dgp, 1), "both"), "z labels"),
        (lambda: fit_forest(generate(small_cell(n=2).dgp, 1), "both", seed=0), "MIN_LEAF"),
        (lambda: predict(FittedModel("tobit", "x1_only", (0.0, 1.0)), [0.0]), "model family"),
        (lambda: error_report([0.0, 1.0], [0.0, 1.0], [0]), "equal length"),
        (lambda: error_report([0.0, 1.0], [0.0, 1.0], [0, 2]), "0 or 1"),
        (lambda: error_report([[0.0, 1.0]] * 2, [[0.0, 1.0]] * 2, [[0, 1]] * 2), "equal length"),
        (lambda: error_report(0.0, 0.0, 0), "equal length"),
    ],
    ids=[
        "design-x2", "mle-labels", "forest-rows", "predict-family", "audit-length", "audit-label",
        "audit-2d", "audit-0d",
    ],
)
def test_estimator_and_audit_refusals_are_biaslab_errors(refuse, message):
    # run_cell turns a BiaslabError into an error row; a plain ValueError would escape it.
    with pytest.raises(BiaslabError, match=message) as raised:
        refuse()
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize(
    "refuse, message",
    [
        (lambda: gaussian_cdf_expectation(0.0, 1.0, 0.0, -1.0), "sigma must"),
        (
            lambda: omitted_coefficients_probit((0.0, 1.0, 1.0), 0.0, 0.0),
            "sigma2 must",
        ),
        (lambda: group_moments(TABLE_MIXTURE, 2), "group label"),
    ],
    ids=["cdf-sigma", "probit-sigma2", "moments-label"],
)
def test_closed_form_refusals_are_biaslab_errors(refuse, message):
    with pytest.raises(BiaslabError, match=message) as raised:
        refuse()
    assert isinstance(raised.value, ValueError)


# --- analytic attachment ---


def test_analytic_for_correct_specification_is_zero():
    for family, model in (("linear", "ols"), ("probit", "probit"), ("logit", "logit")):
        cell = small_cell(family=family, model=model, features="both")
        pred, start = analytic_for_cell(cell)
        assert (pred.b_pop, pred.b_group0, pred.b_group1, pred.tau) == (0.0, 0.0, 0.0, 0.0)
        assert cell.analytic == pred
        assert cell.start == start == TABLE_BETA


def test_analytic_for_short_linear_model():
    pred, _ = analytic_for_cell(small_cell())
    direct = omitted_group_errors(TABLE_BETA, TABLE_MIXTURE)
    for name in ("b_pop", "b_group0", "b_group1", "tau"):
        assert getattr(pred, name) == pytest.approx(getattr(direct, name), abs=1e-13)


def test_analytic_for_short_probit_model():
    # The probit closed form is shifted from this limit where the groups'
    # X2 means differ, and does not apply to correlated groups at all.
    for mixture in (independent_mixture(), TABLE_MIXTURE):
        cell = small_cell(family="probit", model="probit", mixture=mixture)
        pred, start = analytic_for_cell(cell)
        coefficients, limit = probit_short_fit_limit(TABLE_BETA, mixture)
        for name in ("b_pop", "b_group0", "b_group1", "tau"):
            assert getattr(pred, name) == pytest.approx(getattr(limit, name), abs=1e-10)
        # the replications' Newton start is the limit's own fit
        assert cell.start == start == pytest.approx(coefficients, abs=1e-9)


def test_no_analytic_for_uncovered_cells():
    cell = small_cell(model="forest")
    assert analytic_for_cell(cell) == (None, None)
    assert cell.analytic is cell.start is None


def test_every_parametric_cell_has_an_analytic_value():
    for cell in (
        small_cell(family="polynomial", features="both"),
        small_cell(family="logit", model="logit"),
        small_cell(family="logit", model="probit", features="both"),
        small_cell(family="probit", model="ols"),
    ):
        assert (cell.analytic, cell.start) == analytic_for_cell(cell)
        assert cell.analytic is not None and cell.start is not None


def test_the_analytic_value_is_kept_on_the_cell_and_not_evaluated_again(monkeypatch):
    # The probit cell's start is a population fit, the logit cell's is beta.
    cell = small_cell(family="probit", model="probit", n=200)
    logit = small_cell(family="logit", model="logit", features="both", n=200)
    twin = small_cell(family="probit", model="probit", n=200)
    calls, starts = [], []
    monkeypatch.setattr(experiment, "analytic_for_cell", lambda c: calls.append(c))
    monkeypatch.setattr(experiment, "_population_errors", lambda *a: calls.append(a))
    for name in ("fit_probit", "fit_logit"):
        def recorded(data, features, start=None, fit=getattr(experiment, name)):
            starts.append(start)
            return fit(data, features, start=start)

        monkeypatch.setattr(experiment, name, recorded)
    row = run(small_config([cell, logit], replications=2))[0]
    assert calls == []
    assert starts == [cell.start] * 2 + [logit.start] * 2
    assert len(cell.start) == 2 and logit.start == TABLE_BETA
    assert (row.analytic_b_g0, row.analytic_tau) == (cell.analytic.b_group0, cell.analytic.tau)
    assert "analytic" not in repr(cell) and "start" not in repr(cell)
    assert cell == twin


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


def test_overflowing_squared_errors_make_an_error_row(tmp_path, capsys):
    # beta0 = 1e200 leaves finite errors whose squares overflow a float; the
    # standard errors read nan and the cell is an error row, not a traceback.
    obj = config_json()
    obj["cells"][0]["dgp"]["beta"] = [1e200, 1.0, 1.0]
    config = parse_config(obj)
    row = run(config)[0]
    assert row.verdict == "error"
    seed = derive_seed(config.base_seed, 0, 0)
    assert row.error.startswith("replication 0 (seed %d): non-finite statistics: " % seed)
    assert "se_pop" in row.error
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 0
    assert ",error\n" in capsys.readouterr().out


def test_unequal_group_weights_match_the_closed_form():
    # 900 rows of group 0 and 100 of group 1 per replication, as the weight says.
    mixture = make_mixture((0.0, 1.0), (0.5, 3.0), weight=0.1)
    spec = DgpSpec(family="linear", beta=(-0.5, 1.0, 1.0), mixture=mixture, n_per_group=500)
    cell = ExperimentCell(dgp=spec, model="ols", features="x1_only")
    row = run(small_config([cell], replications=5))[0]
    assert row.verdict == "consistent"


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
    reports = [fake_report(r) for r in range(6)]
    shuffled = [reports[i] for i in (3, 0, 5, 1, 4, 2)]
    assert aggregate(reports) == aggregate(shuffled)


def test_aggregate_recomputes_tau_and_replication_ses():
    reports = [fake_report(r) for r in range(5)]
    report = aggregate(reports)
    b0s = [rep.b_group0 for rep in reports]
    assert report.b_group0 == pytest.approx(sum(b0s) / 5, abs=1e-12)
    assert report.tau == report.b_group1 - report.b_group0
    assert report.se_group0 == pytest.approx(np.std(b0s, ddof=1) / math.sqrt(5), rel=1e-12)
    assert (report.n_pop, report.n_group0, report.n_group1) == (500, 250, 250)


def test_aggregate_single_replication_passes_through():
    only = fake_report(9)
    report = aggregate([only])
    assert report.b_group0 == only.b_group0
    assert report.se_group0 == only.se_group0
    assert report.se_tau == only.se_tau


# The aggregation and comparison with each statistic written out by hand,
# kept as references for the loops over the statistic -> SE table.
def written_out_aggregate(reports):
    if len(reports) == 1:
        return reports[0]
    ((b_pop, se_pop),) = column_mean_se([[r.b_pop] for r in reports])
    ((b_g0, se_g0),) = column_mean_se([[r.b_group0] for r in reports])
    ((b_g1, se_g1),) = column_mean_se([[r.b_group1] for r in reports])
    ((_, se_tau),) = column_mean_se([[r.tau] for r in reports])
    return ErrorReport(
        b_pop=b_pop,
        b_group0=b_g0,
        b_group1=b_g1,
        tau=b_g1 - b_g0,
        se_pop=se_pop,
        se_group0=se_g0,
        se_group1=se_g1,
        se_tau=se_tau,
        n_pop=sum(r.n_pop for r in reports),
        n_group0=sum(r.n_group0 for r in reports),
        n_group1=sum(r.n_group1 for r in reports),
    )


def written_out_compare(analytic, empirical):
    pairs = {
        "b_pop": (empirical.b_pop, analytic.b_pop, empirical.se_pop),
        "b_group0": (empirical.b_group0, analytic.b_group0, empirical.se_group0),
        "b_group1": (empirical.b_group1, analytic.b_group1, empirical.se_group1),
        "tau": (empirical.tau, analytic.tau, empirical.se_tau),
    }
    z_scores = {}
    for name, (emp, ana, se) in pairs.items():
        diff = emp - ana
        if se == 0.0:
            z_scores[name] = 0.0 if diff == 0.0 else math.inf
        else:
            z_scores[name] = diff / se
    return z_scores


def bits(record):
    """A record's (name, value) pairs in field order, floats as their exact hex."""
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in vars(record).items()]


STATISTICS = st.floats(allow_nan=True, allow_infinity=True) | st.floats(-10.0, 10.0)
SES = st.sampled_from([0.0, math.nan, math.inf]) | st.floats(0.0, 10.0)


@st.composite
def error_reports(draw):
    b0, b1 = draw(STATISTICS), draw(STATISTICS)
    tau = b1 - b0 if draw(st.booleans()) else draw(STATISTICS)
    n0, n1 = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
    ses = [draw(SES) for _ in range(4)]
    return ErrorReport(draw(STATISTICS), b0, b1, tau, *ses, n0 + n1, n0, n1)


@settings(max_examples=300, deadline=None)
@given(
    reports=st.lists(error_reports(), min_size=1, max_size=6),
    analytic=st.builds(GroupErrorPrediction, STATISTICS, STATISTICS, STATISTICS, STATISTICS),
)
def test_statistic_table_loops_equal_the_written_out_statistics(reports, analytic):
    expected = written_out_aggregate(reports)
    got = aggregate(reports)
    assert type(got) is ErrorReport
    assert bits(got) == bits(expected)
    if all(v == v for v in vars(expected).values()):  # nan is unequal to itself
        assert got == expected
    for empirical in (got, reports[0]):
        z_expected = written_out_compare(analytic, empirical)
        z_got = compare(analytic, empirical)
        assert list(z_got) == list(z_expected) == ["b_pop", "b_group0", "b_group1", "tau"]
        assert [z.hex() for z in z_got.values()] == [z.hex() for z in z_expected.values()]


def make_report(b_pop, b0, b1, se_pop, se0, se1):
    return ErrorReport(
        b_pop=b_pop,
        b_group0=b0,
        b_group1=b1,
        tau=b1 - b0,
        se_pop=se_pop,
        se_group0=se0,
        se_group1=se1,
        se_tau=math.hypot(se0, se1),
        n_pop=200,
        n_group0=100,
        n_group1=100,
    )


@pytest.mark.parametrize(
    "stats, want",
    [
        ((0.0, 0.5, 0.0, 0.1, 0.1, 0.1),
         {"b_group0": pytest.approx(5.0), "b_pop": 0.0, "b_group1": 0.0}),
        ((0.0, -0.5, 0.5, 0.1, 0.1, 0.1),
         {"b_group0": pytest.approx(-5.0), "b_group1": pytest.approx(5.0),
          "tau": pytest.approx(1.0 / math.hypot(0.1, 0.1))}),
        ((0.0, 0.0, 0.0, 0.0, 0.0, 0.0), {"b_pop": 0.0, "b_group0": 0.0, "b_group1": 0.0, "tau": 0.0}),
        ((0.1, 0.0, 0.0, 0.0, 0.0, 0.0), {"b_pop": math.inf, "b_group0": 0.0}),
    ],
    ids=["z-scores", "signed", "zero-se-agree", "zero-se-differ"],
)
def test_compare_z_scores(stats, want):
    # compare only scores; run_cell reads each |z| against z_threshold. A zero
    # SE gives z = 0 where the values agree and inf where they differ.
    z = compare(GroupErrorPrediction(0.0, 0.0, 0.0, 0.0), make_report(*stats))
    assert list(z) == ["b_pop", "b_group0", "b_group1", "tau"]
    assert {name: z[name] for name in want} == want


def test_an_error_report_is_a_group_error_prediction_with_ses_and_counts():
    assert [f.name for f in fields(ErrorReport)] == [
        "b_pop", "b_group0", "b_group1", "tau",
        "se_pop", "se_group0", "se_group1", "se_tau",
        "n_pop", "n_group0", "n_group1",
    ]
    report = fake_report(3)
    assert isinstance(report, GroupErrorPrediction)
    assert list(vars(report)) == [f.name for f in fields(ErrorReport)]


# Each statistic column of a row and the field it holds, of the aggregated
# report or of the cell's reference, written out pair by pair.
ROW_STATISTICS = {
    "b_pop": "b_pop", "b_g0": "b_group0", "b_g1": "b_group1", "tau": "tau",
    "se_pop": "se_pop", "se_g0": "se_group0", "se_g1": "se_group1", "se_tau": "se_tau",
}
ROW_REFERENCE = {"analytic_b_g0": "b_group0", "analytic_b_g1": "b_group1", "analytic_tau": "tau"}


@pytest.mark.parametrize("family, model", [("probit", "probit"), ("linear", "forest")])
def test_each_row_column_holds_its_report_or_reference_field(family, model):
    # Not ols: its in-sample errors cancel, so se_g0 = se_g1 and a swap would not show.
    cell = small_cell(family=family, model=model, n=60)
    row = run_cell(cell, 0, small_config([cell], replications=2), keep_reports=True)
    assert row.verdict != "error", row.error
    columns = set(CSV_HEADER.split(",")) - {"dgp", "model", "features", "verdict"}
    assert set(ROW_STATISTICS) | set(ROW_REFERENCE) == columns
    report = aggregate(list(row.reports))
    values = [getattr(report, name) for name in ROW_STATISTICS.values()]
    assert len(set(values)) == len(values)  # so a swapped pair would show
    for column, name in ROW_STATISTICS.items():
        assert getattr(row, column).hex() == getattr(report, name).hex(), column
    for column, name in ROW_REFERENCE.items():
        if cell.analytic is None:  # a forest cell has no reference
            assert getattr(row, column) is None, column
        else:
            assert getattr(row, column).hex() == getattr(cell.analytic, name).hex(), column
    if cell.analytic is not None:
        assert cell.analytic.b_group0 != cell.analytic.b_group1


SWEEP_CONFIG = Path(__file__).resolve().parent.parent / "benchmarks" / "configs" / "sweep.json"


def test_ols_rounding_in_b_pop_sets_no_verdict():
    # Sweep cell 10, linear/ols on X1 only: the emitted b_pop and its SE and
    # the reference's b_pop are all rounding, |z| 20.1, while the group
    # errors and tau sit within 0.01.
    config = load_config(SWEEP_CONFIG)
    cell = config.cells[10]
    row = run_cell(cell, 10, config, keep_reports=True)
    z = compare(cell.analytic, aggregate(list(row.reports)))
    assert abs(z.pop("b_pop")) > config.z_threshold
    assert all(abs(v) <= config.z_threshold for v in z.values())
    assert row.verdict == "consistent"


def off_b_pop_report(cell, seed):
    return ErrorReport(
        b_pop=1.0,
        b_group0=0.0,
        b_group1=0.0,
        tau=0.0,
        se_pop=0.01,
        se_group0=0.01,
        se_group1=0.01,
        se_tau=0.01,
        n_pop=100,
        n_group0=50,
        n_group1=50,
    )


@pytest.mark.parametrize("se,verdict", [(0.125, "consistent"), (0.1249, "inconsistent")])
def test_verdict_compares_each_z_score_with_the_threshold(monkeypatch, se, verdict):
    # b_group0 and tau sit at |z| = 0.5 / se: exactly z_threshold 4 still reads consistent.
    report = ErrorReport(
        b_pop=0.0, b_group0=0.5, b_group1=0.0, tau=-0.5, se_pop=0.01, se_group0=se,
        se_group1=0.01, se_tau=se, n_pop=100, n_group0=50, n_group1=50,
    )
    monkeypatch.setattr(experiment, "run_replication", lambda cell, seed: report)
    rows = run(small_config([small_cell("linear", "ols", "both")], replications=1))
    assert rows[0].verdict == verdict


@pytest.mark.parametrize(
    "family,model,verdict", [("linear", "ols", "consistent"), ("probit", "probit", "inconsistent")]
)
def test_only_ols_cells_leave_b_pop_unscored(monkeypatch, family, model, verdict):
    monkeypatch.setattr(experiment, "run_replication", off_b_pop_report)
    rows = run(small_config([small_cell(family, model, "both")], replications=1))
    assert rows[0].verdict == verdict


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


def test_table_bytes_of_a_consistent_a_forest_and_an_error_row():
    # Every csv and markdown cell goes through one rule: strings as they are,
    # numbers to 6 significant digits, NaN as nan and a missing limit empty.
    rows = [
        experiment.ResultRow(
            "linear", "ols", "x1_only", 5, 1.5e-17, 1.0012345678, -0.99876543, -1.99999999,
            2.5e-18, 0.0123456, 0.0123, 0.017, 1.0, -1.0, -2.0, "consistent",
        ),
        experiment.ResultRow(
            "linear", "forest", "both", 5, -0.0001234567, 0.5, -0.5, -1.0,
            1e-5, 0.02, 0.03, 0.04, verdict="",
        ),
        experiment.ResultRow(
            "probit", "probit", "both", 5, analytic_b_g0=0.0, analytic_b_g1=0.0,
            analytic_tau=0.0, verdict="error", error="replication 0 (seed 1): separation",
        ),
    ]
    assert render(rows, "markdown") == (
        "| DGP | Model | Features | b_pop | b_group0 | b_group1 | tau |\n"
        "|---|---|---|---|---|---|---|\n"
        "| linear | ols | x1_only | 1.5e-17 | 1.00123 | -0.998765 | -2 |\n"
        "| linear | forest | both | -0.000123457 | 0.5 | -0.5 | -1 |\n"
        "| probit | probit | both | nan | nan | nan | nan |\n"
    )
    assert render(rows, "csv") == CSV_HEADER + "\n" + (
        "linear,ols,x1_only,1.5e-17,1.00123,-0.998765,-2,2.5e-18,0.0123456,0.0123,0.017,"
        "1,-1,-2,consistent\n"
        "linear,forest,both,-0.000123457,0.5,-0.5,-1,1e-05,0.02,0.03,0.04,,,,\n"
        "probit,probit,both,nan,nan,nan,nan,nan,nan,nan,nan,0,0,0,error\n"
    )


def test_json_round_trip():
    rows = run(small_config([small_cell(n=300)]))
    payload = json.loads(render(rows, "json"))
    assert payload["rows"][0] == rows[0].to_dict()
    assert payload["rows"][0]["b_g0"] == rows[0].b_g0  # full precision survives


def test_json_writes_non_finite_statistics_as_null():
    # beta1 = 40 separates the labels, so the cell is an error row with NaN
    # statistics; bare NaN is not JSON, and a strict parser must read null.
    spec = DgpSpec(family="probit", beta=(0.0, 40.0, 0.0), mixture=TABLE_MIXTURE, n_per_group=50)
    cell = ExperimentCell(dgp=spec, model="probit", features="both")
    rows = run(small_config([cell], replications=1))
    assert rows[0].verdict == "error"

    def refuse(token):
        raise AssertionError("%s is not JSON" % token)

    row = json.loads(render(rows, "json"), parse_constant=refuse)["rows"][0]
    assert [row[name] for name in ("b_pop", "b_g0", "tau", "se_tau")] == [None] * 4
    assert row["error"] == rows[0].error


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
    assert config.z_threshold == 4.0  # an absent optional key takes the dataclass default


@pytest.mark.parametrize(
    "level,key",
    [("top-level", "cells"), ("cell", "model"), ("dgp", "family"), ("mixture", "groups"),
     ("group", "covariance")],
)
def test_parse_config_names_a_missing_key(level, key):
    obj = json.loads(json.dumps(config_json()))
    del at_level(obj, level)[key]
    with pytest.raises(ConfigError, match="^missing %s key '%s'$" % (level, key)):
        parse_config(obj)


def test_parse_config_refuses_a_cell_its_closed_form_cannot_cover():
    # Var(X1) = 1e-13 in both groups is a valid covariance that every fit
    # survives, but the cell's population fit needs Var(X1) > 1e-12: the
    # cell is refused when it is built, before any replication runs.
    cov = [[1e-13, 0.0], [0.0, 1.0]]
    groups = [{"mean": [1, 1], "covariance": cov}, {"mean": [1, 3], "covariance": cov}]
    obj = with_mixture(groups=groups)
    with pytest.raises(BiaslabError, match="Var\\(X1\\)"):
        parse_config(obj)


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


def with_mixture(n_per_group=200, **mixture):
    obj = with_cell(n_per_group)
    obj["cells"][0]["dgp"]["mixture"] = {**MIXTURE_JSON, **mixture}
    return obj


def with_covariance(covariance):
    return with_mixture(groups=[{"mean": [0, 0], "covariance": covariance}] * 2)


# Numbers given as strings or booleans. Each is refused, and a string is
# never iterated: "12" is not the mean (1, 2).
NON_NUMERIC_MIXTURES = {
    "string-weight-number": {**MIXTURE_JSON, "weight_protected": "0.5"},
    "string-and-bool-mean": {
        "groups": [{"mean": ["1", True], "covariance": [[1, 0], [0, 1]]}] * 2
    },
    "string-mean-and-covariance": {
        "groups": [{"mean": "12", "covariance": ["10", "01"]}] * 2
    },
}


@pytest.mark.parametrize(
    "obj",
    [
        config_json(seed="abc"),
        config_json(seed=2**64),
        config_json(seed=-1),
        config_json(replications=2.5),
        config_json(replications=True),
        config_json(z_threshold="x"),
        config_json(z_threshold=-1),
        config_json(z_threshold=math.inf),
        with_cell(n_per_group=True),
        with_cell(replications=1.5),
        with_cell(n_per_group=3, model="forest"),
        with_cell(n_per_group=2**70),
        with_cell(dgp={**config_json()["cells"][0]["dgp"], "beta": ["-2", True, "1e0"]}),
        *(with_mixture(**mixture) for mixture in NON_NUMERIC_MIXTURES.values()),
    ],
    ids=[
        "string-seed",
        "seed-past-64-bits",
        "negative-seed",
        "fractional-replications",
        "bool-replications",
        "string-z",
        "negative-z",
        "infinite-z",
        "bool-n-per-group",
        "fractional-cell-replications",
        "forest-below-min-leaf",
        "huge-n-per-group",
        "string-and-bool-beta",
        *NON_NUMERIC_MIXTURES,
    ],
)
def test_cli_refuses_malformed_values_at_parse_time(tmp_path, capsys, obj):
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_one_row_minimum_refuses_a_forest_cell_at_parse_time_and_its_fit(tmp_path, capsys):
    # A cell's 2 * n_per_group rows are what its forest trains on.
    message = "a forest needs at least 2*MIN_LEAF = 10 rows, got 8"
    assert main(["run", "--config", write_config(tmp_path, with_cell(4, model="forest"))]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    with pytest.raises(ConfigError) as refused:
        fit_forest(generate(small_cell(n=4).dgp, 1), "both", seed=0)
    assert str(refused.value) == message
    assert small_cell(model="forest", n=5).model == "forest"


@pytest.mark.parametrize("seed", [2**64 + 3, -(2**64) + 3, -1])
def test_cli_refuses_seed_flags_outside_64_bits(tmp_path, capsys, seed):
    # derive_seed reads seeds modulo 2**64, so each of these would rerun seed 3
    # (or 2**64 - 1) under another name.
    config = write_config(tmp_path, config_json())
    for argv in (["run", "--config", config], ["table1"]):
        assert main(argv + ["--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed must lie in [0, 18446744073709551615]")
        assert captured.out == ""


@pytest.mark.parametrize(
    "value", [None, 5, "ab", {"a": 1}], ids=["null", "number", "string", "object"]
)
@pytest.mark.parametrize(
    "name,level", [("cells", "top-level"), ("groups", "mixture"), ("covariance", "group")]
)
def test_cli_refuses_a_non_list_where_a_list_goes(tmp_path, capsys, name, level, value):
    # A string or an object is not iterated: "ab" is not two cells.
    obj = json.loads(json.dumps(config_json()))
    at_level(obj, level)[name] = value
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s must be a list, got %r\n" % (name, value)
    assert captured.out == ""


def test_cli_checks_out_before_the_grid_runs(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("the grid ran before --out was checked")

    monkeypatch.setattr(cli, "run", no_run)
    out = str(tmp_path / "missing" / "rows.csv")
    for argv in (["run", "--config", write_config(tmp_path, config_json())], ["table1"]):
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write %r" % out)


def test_run_and_table1_share_their_grid_flags():
    parser = cli._build_parser()
    run_args = parser.parse_args(["run", "--config", "c.json"])
    table1_args = parser.parse_args(["table1"])
    for args in (run_args, table1_args):
        assert (args.seed, args.replications, args.out) == (None, None, None)
    assert (run_args.fmt, table1_args.fmt) == ("csv", "markdown")


def test_table1_overrides_its_config_with_the_flags(capsys, monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "run", lambda config: configs.append(config) or [])
    assert main(["table1", "--seed", "7", "--replications", "3"]) == 0
    assert main(["table1"]) == 0
    assert capsys.readouterr().out == render([], "markdown") * 2
    assert configs == [
        dataclasses.replace(table1_config(), base_seed=7, replications=3),
        table1_config(),
    ]
    assert (configs[1].base_seed, configs[1].replications) == (20240914, 30)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
def test_run_reports_an_out_that_cannot_be_written(tmp_path, capsys):
    # /dev/full opens, then every write to it fails with ENOSPC.
    config = write_config(tmp_path, config_json())
    assert main(["run", "--config", config, "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write '/dev/full': ")
    assert "Traceback" not in err


@needs_dev_full
def test_table1_reports_an_out_that_cannot_be_written(capsys, monkeypatch):
    rows = run(small_config([small_cell(n=50)], replications=2))
    monkeypatch.setattr(cli, "run", lambda config: rows)  # no ten-cell grid
    assert main(["table1", "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write '/dev/full': ")
    assert "Traceback" not in err


@needs_dev_full
def test_a_stdout_that_cannot_be_written_exits_2(tmp_path):
    # A short report sits in stdout's buffer until the command flushes it.
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    for command in (
        ["run", "--config", write_config(tmp_path, config_json())],
        ["analytic", "--family", "linear", "--beta=-2,1,1", "--mixture", str(mix)],
    ):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "biaslab", *command],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            )
        assert proc.returncode == 2, (command[0], proc.stderr)
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert "Traceback" not in proc.stderr


def test_cli_runs_the_extreme_64_bit_seeds(tmp_path, capsys):
    config = write_config(tmp_path, config_json())
    for seed in (0, 2**64 - 1):
        assert main(["run", "--config", config, "--seed", str(seed)]) in (0, 1)  # not refused
        assert capsys.readouterr().out.startswith(CSV_HEADER)


@pytest.mark.parametrize(
    "obj,cause",
    [
        (with_covariance([[0.0, 1e-6], [1e-6, 1.0]]), "degenerate X1"),
        (with_covariance([[-5e-11, 0.0], [0.0, 1.0]]), "Var(X1) is negative"),
        (with_mixture(500, weight_protected=0.0004), "group sizes 1000 and 0"),
        (with_mixture(500, weight_protected=0.001), "group sizes 999 and 1"),
    ],
    ids=["degenerate-x1", "negative-variance", "empty-group", "one-row-group"],
)
def test_cli_refuses_configs_whose_replications_all_fail(tmp_path, capsys, obj, cause):
    # Each would parse and then fail in every replication, so parsing refuses it.
    assert main(["run", "--config", write_config(tmp_path, obj)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and cause in captured.err
    assert captured.out == ""


MISSPELT = {
    "top-level": "z_treshold",
    "cell": "replicatons",
    "dgp": "n_per_groups",
    "mixture": "weight_protect",
    "group": "covarience",
}


def at_level(obj, level):
    """The JSON object of a config that a refusal message calls level."""
    return {
        "top-level": obj,
        "cell": obj["cells"][0],
        "dgp": obj["cells"][0]["dgp"],
        "mixture": obj["cells"][0]["dgp"]["mixture"],
        "group": obj["cells"][0]["dgp"]["mixture"]["groups"][1],
    }[level]


def misspelt(level):
    obj = json.loads(json.dumps(config_json()))  # a deep copy: MIXTURE_JSON stays as it is
    at_level(obj, level)[MISSPELT[level]] = 0.5
    return obj


@pytest.mark.parametrize("level", list(MISSPELT))
def test_cli_run_refuses_unknown_keys(tmp_path, capsys, level):
    assert main(["run", "--config", write_config(tmp_path, misspelt(level))]) == 2
    assert "unknown %s key %r" % (level, MISSPELT[level]) in capsys.readouterr().err


@pytest.mark.parametrize("level", ["mixture", "group"])
def test_cli_analytic_refuses_unknown_keys(tmp_path, capsys, level):
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(misspelt(level)["cells"][0]["dgp"]["mixture"]))
    code = main(["analytic", "--family", "linear", "--beta=-2,1,1", "--mixture", str(mix)])
    assert code == 2
    assert "unknown %s key %r" % (level, MISSPELT[level]) in capsys.readouterr().err


@pytest.mark.parametrize(
    "mixture,field",
    [
        ({"groups": [{"mean": ["a", 1.0], "covariance": [[1, 0], [0, 1]]}] * 2}, "mean"),
        ({**MIXTURE_JSON, "weight_protected": "half"}, "weight_protected"),
        *zip(NON_NUMERIC_MIXTURES.values(), ["weight_protected", "mean", "mean"]),
    ],
    ids=["string-mean", "string-weight", *NON_NUMERIC_MIXTURES],
)
def test_cli_analytic_refuses_non_numeric_mixtures(tmp_path, capsys, mixture, field):
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(mixture))
    code = main(["analytic", "--family", "linear", "--beta=-2,1,1", "--mixture", str(mix)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: %s must be " % field)


def test_cli_analytic_linear(tmp_path, capsys):
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    assert main(["analytic", "--family", "linear", "--beta=-2,1,1", "--mixture", str(mix)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["b_group0"] == pytest.approx(1.0, abs=1e-12)
    assert payload["tau"] == pytest.approx(-2.0, abs=1e-12)
    assert payload["bias_vanishes"] is False


def test_cli_analytic_prints_indented_json_and_one_newline(tmp_path, capsys):
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    assert main(["analytic", "--family", "linear", "--beta=-2,1,1", "--mixture", str(mix)]) == 0
    assert capsys.readouterr().out == (
        '{\n  "family": "linear",\n  "b_pop": 0.0,\n  "b_group0": 1.0,\n  "b_group1": -1.0,\n'
        '  "tau": -2.0,\n  "bias_vanishes": false\n}\n'
    )
    assert main(["analytic", "--family", "probit", "--beta=-2,1,1", "--mixture", str(mix)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert list(payload) == ["family", "b_pop", "b_group0", "b_group1", "tau"]
    assert out == json.dumps(payload, indent=2) + "\n"


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


def test_probit_closed_form_survives_a_huge_omitted_coefficient(tmp_path, capsys):
    # beta2 = 1e200 squares past the float range. The closed form's group
    # errors are then their beta2 -> inf limit Phi(mu2 / s2) - Phi(mu2a / s2),
    # with pooled mu2 = 2 and s2 = 1, and neither command prints a traceback.
    limit = (ndtr(2.0) - ndtr(1.0), ndtr(2.0) - ndtr(3.0))
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    code = main(["analytic", "--family", "probit", "--beta=0,1,1e200", "--mixture", str(mix)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["b_group0"], payload["b_group1"]) == pytest.approx(limit, abs=1e-9)
    # run compares with the fit's own limit. As beta2 -> inf the risk given
    # X1 = x in group a is Phi(m_a(x) / sqrt(v_a)): here Phi(1) and Phi(3)
    # whatever x. Both groups share X1's law, so the limit fit is the pooled
    # mean risk, and group a's error is that mean less Phi(mu2a).
    pooled = (ndtr(1.0) + ndtr(3.0)) / 2.0
    fit_limit = (pooled - ndtr(1.0), pooled - ndtr(3.0))
    obj = with_cell(dgp={**config_json()["cells"][0]["dgp"], "family": "probit",
                         "beta": [0.0, 1.0, 1e200]}, model="probit")
    assert main(["run", "--config", write_config(tmp_path, obj), "--format", "json"]) in (0, 1)
    captured = capsys.readouterr()
    row = json.loads(captured.out)["rows"][0]
    assert (row["analytic_b_g0"], row["analytic_b_g1"]) == pytest.approx(fit_limit, abs=1e-12)
    assert row["verdict"] in ("consistent", "inconsistent")
    assert captured.err == ""


def test_cli_analytic_refuses_a_non_finite_closed_form(tmp_path, capsys):
    # beta2 = 1e308 overflows the linear group errors; json would print NaN
    # and Infinity, which are not JSON, so the command refuses instead.
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    code = main(["analytic", "--family", "linear", "--beta=0,1,1e308", "--mixture", str(mix)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: closed form is not finite: b_pop, b_group0")


def test_cli_bad_beta(tmp_path, capsys):
    mix = tmp_path / "mixture.json"
    mix.write_text(json.dumps(MIXTURE_JSON))
    assert main(["analytic", "--family", "linear", "--beta=a,b,c", "--mixture", str(mix)]) == 2
    capsys.readouterr()
    # A wrong length or a non-finite entry is refused by the config's rule, before the
    # closed form runs.
    assert main(["analytic", "--family", "probit", "--beta=1,2", "--mixture", str(mix)]) == 2
    assert capsys.readouterr().err == "error: family 'probit' needs 3 coefficients, got 2\n"
    for beta in ("--beta=nan,1,1", "--beta=-2,1,inf"):
        assert main(["analytic", "--family", "linear", beta, "--mixture", str(mix)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: beta entries must be finite\n")


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


def test_scipy_special_loads_on_the_first_probit_or_logit_call(tmp_path):
    # The first read of _special's names loads only scipy's compiled ufunc
    # module and leaves scipy unimported; a later import of the package sets
    # its _special_ufuncs attribute and hands out the same objects.
    dgp = {"family": "linear", "beta": [-2.0, 1.0, 1.0], "mixture": MIXTURE_JSON, "n_per_group": 50}
    cells = [{"dgp": dgp, "model": model, "features": "both"} for model in ("ols", "forest")]
    config, mixture = tmp_path / "config.json", tmp_path / "mixture.json"
    config.write_text(json.dumps({"cells": cells}))
    mixture.write_text(json.dumps(MIXTURE_JSON))
    out = fresh_python(f"""
import json, sys
import biaslab
from biaslab import _special, cli, experiment
loaded = lambda: [m in sys.modules for m in ("scipy.special", "scipy.special._special_ufuncs")]
experiment.load_config({str(config)!r})
code = cli.main(["analytic", "--family", "linear", "--beta=-2,1,1", "--mixture", {str(mixture)!r}])
before = loaded()
spec = biaslab.DgpSpec("probit", experiment.TABLE_BETA, experiment.TABLE_MIXTURE, 200)
biaslab.fit_probit(biaslab.generate(spec, 1), "both")
after = loaded()
scipy_loaded = "scipy" in sys.modules
import scipy.special
attribute = hasattr(scipy.special, "_special_ufuncs")
same = [getattr(_special, n) is getattr(scipy.special, n) for n in ("ndtr", "log_ndtr", "expit")]
print(json.dumps({{"code": code, "before": before, "after": after, "scipy": scipy_loaded,
                  "attribute": attribute, "same": same}}))
""")
    assert json.loads(out.splitlines()[-1]) == {
        "code": 0, "before": [False, False], "after": [False, False], "scipy": False,
        "attribute": True, "same": [True, True, True],
    }
    importers = [
        path.name for path in sorted((ROOT / "src" / "biaslab").glob("*.py"))
        if "scipy" in "".join(re.findall(r"^\s*(?:from|import) .*$", path.read_text(), re.M))
    ]
    assert importers == ["_special.py"]


@pytest.mark.parametrize("first", [
    'biaslab.load_config("benchmarks/configs/parametric.json")',
    'cli.main(["analytic", "--family", "probit", "--beta=-2,1,1", "--mixture", MIXTURE])',
])
def test_probit_start_up_leaves_scipy_special_unloaded_and_scipy_usable(tmp_path, first):
    # The two start-up paths that read the probit functions first: parsing
    # the benchmark's parametric config and the probit closed form. Neither
    # imports the scipy.special package, and scipy works as usual after it.
    mixture = tmp_path / "mixture.json"
    mixture.write_text(json.dumps(MIXTURE_JSON))
    out = fresh_python(f"""
import json, sys
import biaslab
from biaslab import cli
MIXTURE = {str(mixture)!r}
{first}
unloaded = "scipy.special" not in sys.modules
import scipy.special, scipy.stats
values = [scipy.special.erf(0.5), scipy.special.logsumexp([1, 2]), scipy.stats.norm.cdf(1.0)]
print(json.dumps({{"unloaded": unloaded, "values": [float(v) for v in values]}}))
""")
    got = json.loads(out.splitlines()[-1])
    assert got["unloaded"]
    assert got["values"] == pytest.approx(
        [math.erf(0.5), 2.0 + math.log1p(math.exp(-1.0)), 0.5 * math.erfc(-1.0 / math.sqrt(2.0))],
        rel=1e-15,
    )


def test_special_falls_back_to_scipy_special_without_the_extension_file():
    # Older scipy keeps ndtr elsewhere; a missing extension file must give
    # scipy.special's own objects and the same fit to the last bit.
    code = """
import json, sys
import numpy as np
import biaslab
from biaslab import _special, experiment
{override}
spec = biaslab.DgpSpec("probit", experiment.TABLE_BETA, experiment.TABLE_MIXTURE, 200)
coef = np.array(biaslab.fit_probit(biaslab.generate(spec, 1), "both").coefficients)
package = "scipy.special" in sys.modules
import scipy.special
same = [getattr(_special, n) is getattr(scipy.special, n) for n in ("ndtr", "log_ndtr", "expit")]
print(json.dumps({{"coef": coef.tobytes().hex(), "package": package, "same": same}}))
"""
    fast, fallback = (
        json.loads(fresh_python(code.format(override=override)).splitlines()[-1])
        for override in ("", '_special._EXTENSION = "scipy.special._no_such_module"')
    )
    assert fast["package"] is False and fallback["package"] is True
    assert fallback["same"] == [True, True, True]
    assert fallback["coef"] == fast["coef"]


# --- fuzzed configs ---


def _paths(node, path=()):
    """The path of every value in a JSON tree, the root and containers included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    st.floats(min_value=0.0, max_value=10.0, exclude_min=True).filter(lambda v: v != int(v)),
)


@st.composite
def fuzzed_configs(draw):
    """A small valid two-cell config with one value, at any level, replaced."""
    # n_per_group and replications come from small ranges, and no drawn value
    # is a large positive integer: a large count allocates real memory or
    # runs for minutes.
    obj = config_json(replications=draw(st.integers(1, 3)))
    obj["cells"][0]["dgp"]["n_per_group"] = draw(st.integers(5, 60))
    probit = {**obj["cells"][0]["dgp"], "family": "probit", "beta": [0.0, 1.0, 1.0]}
    obj["cells"].append({"dgp": probit, "model": "probit", "features": "x1_only"})
    path = draw(st.sampled_from(list(_paths(obj))))
    return _replaced(obj, path, draw(JSON_VALUES))


@settings(max_examples=150, deadline=None)
@given(obj=fuzzed_configs())
def test_cli_run_reports_or_refuses_any_json_shaped_config(obj):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(obj))
        # An overflow in numpy warns on stderr, as the command line shows it,
        # instead of raising as this suite's RuntimeWarning filter would.
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--config", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    else:
        assert len(out.getvalue().splitlines()) == 1 + len(obj["cells"])


# --- package surface ---


def test_public_names_resolve_sorted_and_unique():
    names = list(biaslab.__all__)
    assert [name for name in names if not hasattr(biaslab, name)] == []
    assert names == sorted(set(names))
