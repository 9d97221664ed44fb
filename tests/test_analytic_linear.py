"""Short-model coefficients and group errors for linear outcomes."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

import hypothesis.strategies as st
from biaslab.analytic_linear import (
    GroupErrorPrediction,
    bias_vanishes_condition,
    omitted_coefficients,
    omitted_group_errors,
    worst_case_check,
)
from biaslab.exceptions import DegenerateVarianceError
from biaslab.experiment import TABLE_BETA, TABLE_MIXTURE
from biaslab.moments import group_moments, pooled_moments

from conftest import coefficients, make_mixture, mixtures, population_ols_limit

BETA = (-2.0, 1.0, 1.0)
REFERENCE = make_mixture(
    (1.0, 1.0),
    (1.0, 3.0),
    cov0=((1.0, 0.5), (0.5, 1.0)),
    cov1=((1.0, -0.5), (-0.5, 1.0)),
)


def test_short_coefficients_with_uncorrelated_features():
    # Zero pooled covariance: gamma1 = beta1, gamma0 = beta0 + beta2 * E[X2].
    m = pooled_moments(make_mixture((1.0, 1.0), (1.0, 3.0)))
    gamma = omitted_coefficients(BETA, m)
    assert gamma[0] == pytest.approx(0.0, abs=1e-12)
    assert gamma[1] == pytest.approx(1.0, abs=1e-12)


def test_short_coefficients_with_between_group_correlation():
    # Groups at (0,0) and (2,2): pooled Var(X1)=2, Cov(X1,X2)=1, so the
    # omitted coefficient is folded in at ratio 1/2.
    m = pooled_moments(make_mixture((0.0, 0.0), (2.0, 2.0)))
    gamma = omitted_coefficients((1.0, 1.0, 2.0), m)
    assert gamma == (2.0, 2.0)


def test_reference_group_errors():
    pred = omitted_group_errors(BETA, REFERENCE)
    assert pred.b_group0 == pytest.approx(1.0, abs=1e-12)
    assert pred.b_group1 == pytest.approx(-1.0, abs=1e-12)
    assert pred.tau == pytest.approx(-2.0, abs=1e-12)
    assert abs(pred.b_pop) <= 1e-12
    assert worst_case_check(pred, REFERENCE)
    assert not bias_vanishes_condition(BETA, REFERENCE)


def test_degenerate_x1_variance_raises():
    flat = make_mixture(
        (1.0, 1.0),
        (1.0, 3.0),
        cov0=((0.0, 0.0), (0.0, 1.0)),
        cov1=((0.0, 0.0), (0.0, 1.0)),
    )
    with pytest.raises(DegenerateVarianceError):
        omitted_group_errors(BETA, flat)
    with pytest.raises(DegenerateVarianceError):
        bias_vanishes_condition(BETA, flat)


@pytest.mark.parametrize("beta", [(-2.0, 1.0), (-2.0, 1.0, 1.0, 1.0)])
def test_a_beta_of_other_than_three_entries_is_refused(beta):
    with pytest.raises(ValueError, match="values to unpack"):
        omitted_coefficients(beta, pooled_moments(REFERENCE))
    with pytest.raises(ValueError, match="values to unpack"):
        omitted_group_errors(beta, REFERENCE)
    with pytest.raises(ValueError, match="values to unpack"):
        bias_vanishes_condition(beta, REFERENCE)


@given(mixtures(), coefficients, coefficients, coefficients)
@settings(max_examples=200)
def test_group_errors_match_direct_plug_in(spec, b0, b1, b2):
    # Independent derivation: b_a = E[gamma0 + gamma1 X1 - Y | A=a].
    beta = (b0, b1, b2)
    pred = omitted_group_errors(beta, spec)
    gamma = omitted_coefficients(beta, pooled_moments(spec))
    for a, b_a in ((0, pred.b_group0), (1, pred.b_group1)):
        g = group_moments(spec, a)
        direct = gamma[0] + gamma[1] * g.e_x1 - (b0 + b1 * g.e_x1 + b2 * g.e_x2)
        assert b_a == pytest.approx(direct, abs=1e-8 * (1.0 + abs(direct)))
    assert pred.tau == pred.b_group1 - pred.b_group0


@given(mixtures(), coefficients, coefficients, coefficients)
@settings(max_examples=200)
def test_population_error_vanishes(spec, b0, b1, b2):
    pred = omitted_group_errors((b0, b1, b2), spec)
    scale = 1.0 + abs(pred.b_group0) + abs(pred.b_group1)
    assert abs(pred.b_pop) <= 1e-8 * scale


@given(mixtures(), coefficients, coefficients, st.floats(-4.0, 4.0), st.floats(0.25, 4.0))
@settings(max_examples=100)
def test_group_errors_are_linear_in_the_omitted_coefficient(spec, b0, b1, b2, c):
    base = omitted_group_errors((0.0, 0.0, b2), spec)
    shifted = omitted_group_errors((b0, b1, b2), spec)
    # beta0 and beta1 cancel out of the errors entirely.
    assert shifted.b_group0 == pytest.approx(base.b_group0, abs=1e-9 * (1 + abs(base.b_group0)))
    assert shifted.b_group1 == pytest.approx(base.b_group1, abs=1e-9 * (1 + abs(base.b_group1)))
    scaled = omitted_group_errors((b0, b1, c * b2), spec)
    assert scaled.tau == pytest.approx(c * shifted.tau, abs=1e-9 * (1 + abs(c * shifted.tau)))


def test_vanishing_condition_by_construction():
    # Group means differ by (2, 1); within-group covariance 0.5 makes the
    # pooled ratio Cov/Var = 1/2, so the moment condition holds exactly.
    tuned = make_mixture(
        (0.0, 0.0),
        (2.0, 1.0),
        cov0=((1.0, 0.5), (0.5, 1.0)),
        cov1=((1.0, 0.5), (0.5, 1.0)),
    )
    beta = (1.0, -1.0, 3.0)
    assert bias_vanishes_condition(beta, tuned)
    assert omitted_group_errors(beta, tuned).tau == pytest.approx(0.0, abs=1e-10)

    detuned = make_mixture((0.0, 0.0), (2.0, 1.0))
    assert not bias_vanishes_condition(beta, detuned)
    assert abs(omitted_group_errors(beta, detuned).tau) > 0.1


def test_vanishing_condition_trivial_when_nothing_is_omitted():
    assert bias_vanishes_condition((3.0, -1.0, 0.0), REFERENCE)


@given(mixtures(), coefficients, coefficients, coefficients)
@settings(max_examples=200)
def test_vanishing_condition_agrees_with_tau(spec, b0, b1, b2):
    assume(abs(b2) > 1e-3)
    beta = (b0, b1, b2)
    pred = omitted_group_errors(beta, spec)
    if bias_vanishes_condition(beta, spec):
        assert abs(pred.tau) <= abs(b2) * 1e-9 + 1e-12
    if abs(pred.tau) >= abs(b2) * 1e-8:
        assert not bias_vanishes_condition(beta, spec)


def test_worst_case_check_is_a_strict_predicate():
    equal = make_mixture((0.0, 0.0), (0.0, 2.0))
    mirrored = omitted_group_errors((0.0, 0.0, 1.0), equal)
    assert worst_case_check(mirrored, equal)
    skewed = make_mixture((0.0, 0.0), (0.0, 2.0), weight=0.25)
    assert not worst_case_check(omitted_group_errors((0.0, 0.0, 1.0), skewed), skewed)
    assert not worst_case_check(GroupErrorPrediction(0.0, 1.0, -1.0, -1.5), equal)


def test_closed_form_matches_simulated_least_squares():
    # Independent route: sample the mixture with numpy's default generator,
    # fit the short model with lstsq, and audit group mean errors.
    rng = np.random.default_rng(1234)
    n = 200_000
    for _ in range(8):
        means = rng.uniform(-2.0, 2.0, size=4)
        weight = rng.uniform(0.1, 0.9)
        covs = []
        for _g in range(2):
            v1, v2 = rng.uniform(0.3, 2.5, size=2)
            rho = rng.uniform(-0.8, 0.8)
            c = rho * math.sqrt(v1 * v2)
            covs.append(((v1, c), (c, v2)))
        spec = make_mixture(means[:2], means[2:], cov0=covs[0], cov1=covs[1], weight=weight)
        b0, b1, b2 = rng.uniform(-2.0, 2.0, size=3)
        pred = omitted_group_errors((b0, b1, b2), spec)

        protected = rng.random(n) < weight
        draws = np.empty((n, 2))
        for a in (0, 1):
            rows = protected == a
            g = spec.groups[a]
            draws[rows] = rng.multivariate_normal(g.mean_array(), np.array(g.covariance), rows.sum())
        x1, x2 = draws[:, 0], draws[:, 1]
        y = b0 + b1 * x1 + b2 * x2 + rng.standard_normal(n)
        design = np.column_stack([np.ones(n), x1])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        e = design @ coef - y

        assert abs(e.mean()) <= 1e-8  # intercept forces zero in-sample mean
        for a, target in ((0, pred.b_group0), (1, pred.b_group1)):
            ea = e[protected == a]
            tol = 6.0 * ea.std(ddof=1) / math.sqrt(ea.shape[0]) + 0.002
            assert ea.mean() == pytest.approx(target, abs=tol)


def test_population_limit_reproduces_the_reference_group_errors():
    _, limit = population_ols_limit(TABLE_BETA, TABLE_MIXTURE, "x1_only")
    pred = omitted_group_errors(TABLE_BETA, TABLE_MIXTURE)
    got = (limit.b_group0, limit.b_group1, limit.tau)
    assert got == pytest.approx((pred.b_group0, pred.b_group1, pred.tau), abs=1e-12)
    assert got == pytest.approx((1.0, -1.0, -2.0), abs=1e-12)
    coef_both, both = population_ols_limit(TABLE_BETA, TABLE_MIXTURE, "both")
    assert coef_both == pytest.approx(TABLE_BETA, abs=1e-12)
    assert (both.b_group0, both.b_group1) == pytest.approx((0.0, 0.0), abs=1e-12)


@given(mixtures(), coefficients, coefficients, coefficients)
@settings(max_examples=100)
def test_population_limit_matches_the_closed_form(spec, b0, b1, b2):
    pred = omitted_group_errors((b0, b1, b2), spec)
    _, limit = population_ols_limit((b0, b1, b2), spec, "x1_only")
    for got, want in ((limit.b_group0, pred.b_group0), (limit.b_group1, pred.b_group1)):
        assert got == pytest.approx(want, abs=1e-8 * (1.0 + abs(want)))

