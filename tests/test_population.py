"""The reference of every parametric cell: the population limit of its own fit.

``experiment.analytic_for_cell`` fits each cell's model to its whole
population by quadrature (``estimators._population_errors``). These tests
hold it to the independent limits in conftest, to the closed forms where
they are exact, and to two properties of the limit itself.
"""

from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from biaslab.analytic_linear import LinearDgpCoefficients, omitted_group_errors
from biaslab.analytic_probit import ProbitDgpCoefficients, omitted_group_errors_probit
from biaslab.dgp import DgpSpec
from biaslab.exceptions import BiaslabError
from biaslab.experiment import (
    TABLE_BETA,
    TABLE_BETA_POLY,
    TABLE_MIXTURE,
    ExperimentCell,
    load_config,
    parse_config,
    table1_config,
)
from biaslab.moments import GroupGaussianSpec, MixtureSpec

from conftest import (
    coefficients,
    independent_mixture,
    logit_short_fit_limit,
    mixtures,
    population_ols_limit,
    probit_short_fit_limit,
)

SWEEP_CONFIG = Path(__file__).resolve().parent.parent / "benchmarks" / "configs" / "sweep.json"
STATISTICS = ("b_pop", "b_group0", "b_group1", "tau")


def cell(family, model, features, beta, mixture):
    return ExperimentCell(DgpSpec(family, beta, mixture, 1_000), model, features)


def assert_close(got, want, tol):
    for name in STATISTICS:
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=tol), name


def conftest_limit(c):
    """The conftest reference for a cell, computed without the library's fits."""
    beta, mixture = c.dgp.beta, c.dgp.mixture
    if c.model == "ols":
        return population_ols_limit(beta, mixture, c.features)[1]
    if c.model == "probit":
        return probit_short_fit_limit(beta, mixture)[1]
    return logit_short_fit_limit(beta, mixture)[1]


@pytest.mark.parametrize("mixture", [TABLE_MIXTURE, independent_mixture()], ids=["table", "indep"])
@pytest.mark.parametrize(
    "family,model,features",
    [
        ("linear", "ols", "x1_only"),
        ("polynomial", "ols", "both"),
        ("polynomial", "ols", "x1_only"),
        ("logit", "logit", "x1_only"),
    ],
)
def test_reference_agrees_with_the_conftest_limits(mixture, family, model, features):
    beta = TABLE_BETA_POLY if family == "polynomial" else TABLE_BETA
    c = cell(family, model, features, beta, mixture)
    assert_close(c.analytic, conftest_limit(c), 1e-10)


def test_reference_agrees_with_the_conftest_limits_on_every_sweep_cell():
    cells = load_config(SWEEP_CONFIG).cells
    assert len(cells) == 60
    for c in cells:
        assert_close(c.analytic, conftest_limit(c), 1e-10)


def test_table1_references():
    refs = {(c.dgp.family, c.model, c.features): c.analytic for c in table1_config().cells}
    assert refs[("linear", "forest", "both")] is refs[("linear", "forest", "x1_only")] is None
    expected = {
        ("probit", "probit", "x1_only"): (0.00158, 0.21226, -0.20909, -0.42135),
        ("logit", "logit", "x1_only"): (0.0, 0.17227, -0.17227, -0.34454),
        ("polynomial", "ols", "x1_only"): (0.0, 4.5, -4.5, -9.0),
        ("polynomial", "ols", "both"): (0.0, 0.0, 0.0, 0.0),
    }
    for key, values in expected.items():
        got = [getattr(refs[key], name) for name in STATISTICS]
        assert got == pytest.approx(values, abs=5e-6), key


def test_probit_b_pop_is_not_zero():
    # Probit's score weights each row's residual by the Mills ratios, so
    # unlike logit's its intercept equation does not zero the mean error.
    c = cell("probit", "probit", "x1_only", TABLE_BETA, TABLE_MIXTURE)
    _, limit = probit_short_fit_limit(TABLE_BETA, TABLE_MIXTURE)
    assert c.analytic.b_pop == pytest.approx(limit.b_pop, abs=1e-10)
    assert c.analytic.b_pop == pytest.approx(0.00158, abs=5e-6)


@settings(max_examples=60, deadline=None)
@given(mixture=mixtures(), beta=st.tuples(coefficients, coefficients, coefficients))
def test_short_logit_has_zero_population_error_and_mirrored_groups_at_equal_weights(mixture, beta):
    # The logit score's intercept equation is E[S(g'd) - Y] = 0: the limit's
    # b_pop is exactly 0, so at weight 0.5 b_g0 = -b_g1 (claim 3 for logit).
    pred = cell("logit", "logit", "x1_only", beta, mixture).analytic
    assert abs(pred.b_pop) <= 1e-12
    equal = MixtureSpec(groups=mixture.groups, weight_protected=0.5)
    pred = cell("logit", "logit", "x1_only", beta, equal).analytic
    assert abs(pred.b_group0 + pred.b_group1) <= 2e-12


@settings(max_examples=60, deadline=None)
@given(mixture=mixtures(), beta=st.tuples(coefficients, coefficients, coefficients))
def test_linear_closed_form_is_the_short_ols_limit(mixture, beta):
    pred = cell("linear", "ols", "x1_only", beta, mixture).analytic
    closed = omitted_group_errors(LinearDgpCoefficients(*beta), mixture)
    scale = 1.0 + max(abs(closed.b_group0), abs(closed.b_group1))
    assert_close(pred, closed, 1e-10 * scale)


def test_probit_closed_form_tau_is_the_limit_and_its_levels_share_one_shift():
    mixture = independent_mixture()
    pred = cell("probit", "probit", "x1_only", TABLE_BETA, mixture).analytic
    closed = omitted_group_errors_probit(ProbitDgpCoefficients(*TABLE_BETA), mixture)
    assert closed.tau == pytest.approx(pred.tau, abs=1e-12)
    shift = closed.b_group0 - pred.b_group0
    assert closed.b_group1 - pred.b_group1 == pytest.approx(shift, abs=1e-12)
    assert shift == pytest.approx(0.030, abs=5e-4)


def test_a_degenerate_x1_is_refused_at_parse_time_in_a_probit_cell_too():
    # The probit closed form never checked Var(X1); the population fit does.
    cov = [[1e-13, 0.0], [0.0, 1.0]]
    mixture = {"groups": [{"mean": [1, 1], "covariance": cov}, {"mean": [1, 3], "covariance": cov}]}
    dgp = {"family": "probit", "beta": [-2.0, 1.0, 1.0], "mixture": mixture, "n_per_group": 50}
    obj = {"cells": [{"dgp": dgp, "model": "probit", "features": "x1_only"}]}
    with pytest.raises(BiaslabError, match="Var\\(X1\\)"):
        parse_config(obj)


def test_collinear_features_are_refused_not_fitted():
    # X2 = X1 + 2 in both groups: no fit on both features exists, and the
    # cell is refused when it is built.
    cov = ((1.0, 1.0), (1.0, 1.0))
    groups = (
        GroupGaussianSpec(mean=(0.0, 2.0), covariance=cov),
        GroupGaussianSpec(mean=(1.0, 3.0), covariance=cov),
    )
    mixture = MixtureSpec(groups=groups)
    assert cell("polynomial", "ols", "x1_only", TABLE_BETA_POLY, mixture).analytic is not None
    with pytest.raises(BiaslabError, match="population covariance"):
        cell("polynomial", "ols", "both", TABLE_BETA_POLY, mixture)
