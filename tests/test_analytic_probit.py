"""Probit closed forms: normal CDF, Gaussian expectation identity, group errors."""

import math

import numpy as np
import pytest

from biaslab.analytic_probit import (
    gaussian_cdf_expectation,
    omitted_coefficients_probit,
    omitted_group_errors_probit,
    std_normal_cdf,
)
from biaslab.exceptions import AssumptionViolationError

from conftest import independent_mixture, make_mixture, probit_short_fit_limit

# Reference CDF values computed with 40-digit arithmetic and rounded once.
PHI_REFERENCE = (
    (0.0, 0.5),
    (1e-9, 0.50000000039894228),
    (0.1, 0.53982783727702898),
    (-0.1, 0.46017216272297102),
    (0.5, 0.6914624612740131),
    (-0.5, 0.3085375387259869),
    (0.5774, 0.71816536289637305),
    (1.0, 0.84134474606854295),
    (-1.0, 0.15865525393145705),
    (1.1547, 0.8758933502321218),
    (1.5, 0.93319279873114193),
    (-1.5, 0.066807201268858066),
    (2.0, 0.97724986805182079),
    (-2.0, 0.022750131948179207),
    (3.0, 0.99865010196836991),
    (-3.0, 0.0013498980316300945),
    (4.5, 0.99999660232687527),
    (-4.5, 3.3976731247300604e-6),
    (6.0, 0.99999999901341235),
    (-6.0, 9.8658764503769814e-10),
    (8.0, 0.99999999999999938),
    (-8.0, 6.2209605742717841e-16),
    (-37.5, 4.6053530095819548e-308),
)

BETA = (-2.0, 1.0, 1.0)


def test_normal_cdf_against_high_precision_references():
    for x, expected in PHI_REFERENCE:
        assert abs(std_normal_cdf(x) - expected) <= 1e-12
    # Far-left tail underflows smoothly instead of going negative.
    assert std_normal_cdf(-40.0) >= 0.0


def test_normal_cdf_symmetry_and_monotonicity():
    grid = np.linspace(-10.0, 10.0, 10_001)
    values = std_normal_cdf(grid)
    assert np.all(np.abs(values + std_normal_cdf(-grid) - 1.0) <= 1e-14)
    assert np.all(np.diff(values) >= 0.0)


def test_gaussian_cdf_expectation_reference_value():
    # E[Phi(-1 + X)] with X ~ N(2, 2) is Phi(1/sqrt(3)).
    assert gaussian_cdf_expectation(-1.0, 1.0, 2.0, math.sqrt(2.0)) == pytest.approx(
        0.71814856917461349, abs=1e-12
    )


def test_gaussian_cdf_expectation_degenerate_sigma():
    assert gaussian_cdf_expectation(0.3, -1.2, 0.7, 0.0) == std_normal_cdf(0.3 - 1.2 * 0.7)
    with pytest.raises(ValueError):
        gaussian_cdf_expectation(0.0, 1.0, 0.0, -1.0)


def test_gaussian_cdf_expectation_matches_quadrature():
    # 64-node Gauss-Hermite: E[f(X)] = sum w_i f(mu + sqrt(2) sigma t_i) / sqrt(pi).
    # The rule itself needs |b| sigma <~ 3 to deliver 1e-6; the closed form
    # has no such restriction.
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    rng = np.random.default_rng(99)
    for _ in range(100):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-2.4, 2.4)
        mu = rng.uniform(-2.0, 2.0)
        sigma = rng.uniform(0.1, 1.2)
        quad = float(
            np.sum(weights * std_normal_cdf(a + b * (mu + math.sqrt(2.0) * sigma * nodes)))
            / math.sqrt(math.pi)
        )
        assert gaussian_cdf_expectation(a, b, mu, sigma) == pytest.approx(quad, abs=1e-6)


def test_short_coefficients_attenuate():
    gamma = omitted_coefficients_probit(BETA, mu2=2.0, sigma2=1.0)
    assert gamma[0] == pytest.approx(0.0, abs=1e-12)
    assert gamma[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    untouched = omitted_coefficients_probit(
        (-2.0, 1.0, 0.0), mu2=5.0, sigma2=1.0
    )
    assert untouched == (-2.0, 1.0)
    with pytest.raises(ValueError):
        omitted_coefficients_probit(BETA, mu2=0.0, sigma2=0.0)


@pytest.mark.parametrize("beta", [(-2.0, 1.0), (-2.0, 1.0, 1.0, 1.0)])
def test_a_beta_of_other_than_three_entries_is_refused(beta):
    with pytest.raises(ValueError, match="values to unpack"):
        omitted_coefficients_probit(beta, mu2=0.0, sigma2=1.0)
    with pytest.raises(ValueError, match="values to unpack"):
        omitted_group_errors_probit(beta, independent_mixture())


def test_public_helpers_take_the_large_coefficient_limit():
    # b * sigma = 1e200 squares past the float range. As b grows,
    # E[Phi(b X)] for X ~ N(1, 1) tends to Phi(1), and the short probit's
    # (gamma0, gamma1) tends to (mu2 / sigma2, 0) = (2, 0).
    phi_one = dict(PHI_REFERENCE)[1.0]
    assert gaussian_cdf_expectation(0.0, 1e200, 1.0, 1.0) == pytest.approx(phi_one, abs=1e-9)
    gamma = omitted_coefficients_probit((0.0, 1.0, 1e200), 2.0, 1.0)
    assert gamma == pytest.approx((2.0, 0.0), abs=1e-9)


def test_reference_group_errors():
    pred = omitted_group_errors_probit(BETA, independent_mixture())
    assert pred.b_group0 == pytest.approx(0.21814856917461349, abs=1e-12)
    assert pred.b_group1 == pytest.approx(-0.15774489133042472, abs=1e-12)
    assert pred.tau == pytest.approx(-0.37589346050503821, abs=1e-12)
    assert pred.tau == pred.b_group1 - pred.b_group0


def test_assumption_violations_are_named():
    correlated = make_mixture(
        (1.0, 1.0),
        (1.0, 3.0),
        cov0=((1.0, 0.5), (0.5, 1.0)),
        cov1=((1.0, -0.5), (-0.5, 1.0)),
    )
    with pytest.raises(AssumptionViolationError, match="covariance"):
        omitted_group_errors_probit(BETA, correlated)
    unequal = make_mixture(
        (1.0, 1.0),
        (1.0, 3.0),
        cov1=((1.0, 0.0), (0.0, 2.0)),
    )
    with pytest.raises(AssumptionViolationError, match="Var"):
        omitted_group_errors_probit(BETA, unequal)


def test_group_errors_have_opposite_signs():
    # The pooled X2 mean lies strictly between the group means, so the short
    # model over-predicts one group and under-predicts the other.
    rng = np.random.default_rng(7)
    trials = 0
    while trials < 100:
        mu2 = rng.uniform(-2.0, 2.0, size=2)
        if abs(mu2[1] - mu2[0]) < 0.05:
            continue
        var1 = rng.uniform(0.3, 2.0, size=2)
        var2 = rng.uniform(0.3, 2.0)
        beta = rng.uniform(-2.0, 2.0, size=3)
        if abs(beta[2]) < 0.1:
            continue
        spec = make_mixture(
            (rng.uniform(-2.0, 2.0), mu2[0]),
            (rng.uniform(-2.0, 2.0), mu2[1]),
            cov0=((var1[0], 0.0), (0.0, var2)),
            cov1=((var1[1], 0.0), (0.0, var2)),
            weight=rng.uniform(0.1, 0.9),
        )
        pred = omitted_group_errors_probit(beta, spec)
        assert pred.b_group0 * pred.b_group1 < 0.0
        trials += 1


def test_var_x2_rounding_below_zero_counts_as_zero():
    # cholesky accepts Var(X2) down to -1e-10 and the simulator clips it to
    # 0; the closed form takes the same variance instead of sqrt's domain error.
    dust = ((1.0, 0.0), (0.0, -5e-11))
    zero = ((1.0, 0.0), (0.0, 0.0))
    beta = (-2.0, 1.0, 1.0)
    clipped = omitted_group_errors_probit(beta, make_mixture((1, 1), (1, 3), dust, dust))
    assert clipped == omitted_group_errors_probit(beta, make_mixture((1, 1), (1, 3), zero, zero))


def test_group_errors_vanish_when_nothing_differs():
    same = make_mixture((0.0, 1.0), (2.0, 1.0))
    pred = omitted_group_errors_probit(BETA, same)
    assert pred.b_group0 == 0.0
    assert pred.b_group1 == 0.0


def test_swapping_groups_swaps_errors():
    spec = make_mixture((0.5, 0.0), (-0.5, 2.0), weight=0.3)
    swapped = make_mixture((-0.5, 2.0), (0.5, 0.0), weight=0.7)
    pred = omitted_group_errors_probit(BETA, spec)
    flipped = omitted_group_errors_probit(BETA, swapped)
    assert pred.b_group0 == flipped.b_group1
    assert pred.b_group1 == flipped.b_group0
    assert pred.tau == pytest.approx(-flipped.tau, abs=1e-16)


def test_population_limit_reproduces_the_exact_attenuation():
    # Both groups standard normal: X2 is Gaussian in the population too, so
    # the closed form is exact and the limit fit must match it.
    gamma, limit = probit_short_fit_limit((-2.0, 1.0, 1.0), make_mixture((0.0, 0.0), (0.0, 0.0)))
    exact = omitted_coefficients_probit(BETA, mu2=0.0, sigma2=1.0)
    assert gamma[0] == pytest.approx(exact[0], abs=1e-8)
    assert gamma[1] == pytest.approx(exact[1], abs=1e-8)
    for value in (limit.b_pop, limit.b_group0, limit.b_group1, limit.tau):
        assert abs(value) <= 1e-8


def test_closed_form_tau_matches_the_population_limit_when_x1_is_shared():
    # With X1's law common to both groups, the short model's mean score is
    # the same in each group and cancels from tau, which is then exact even
    # though the closed form's levels are not.
    rng = np.random.default_rng(11)
    for _ in range(10):
        m1, v1, v2 = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        cov = ((v1, 0.0), (0.0, v2))
        spec = make_mixture(
            (m1, rng.uniform(-2.0, 2.0)),
            (m1, rng.uniform(-2.0, 2.0)),
            cov0=cov,
            cov1=cov,
            weight=rng.uniform(0.1, 0.9),
        )
        beta = rng.uniform(-1.5, 1.5, size=3)
        _, limit = probit_short_fit_limit(tuple(beta), spec)
        pred = omitted_group_errors_probit(beta, spec)
        assert pred.tau == pytest.approx(limit.tau, abs=1e-12)
