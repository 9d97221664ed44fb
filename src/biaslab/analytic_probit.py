"""Closed forms for probit risk models under correct and omitted-variable fits.

The probit outcome is a risk probability Y = Phi(b0 + b1*X1 + b2*X2). With
X2 independent of X1 and Gaussian, omitting X2 attenuates the remaining
coefficients by 1/sqrt(1 + b2^2 s2^2), and the group mean errors follow
from the Gaussian identity

    E[Phi(a + b*X)] = Phi((a + b*mu) / sqrt(1 + b^2 sigma^2)),  X ~ N(mu, sigma^2).

Unlike the linear closed forms these are not distribution-free: they assume
within-group independence of X1 and X2 and a common Var(X2) across groups,
and plug the pooled mean of X2 into a formula derived for Gaussian X2. When
the groups' X2 means differ, the pooled X2 is a mixture, and the short
probit's population limit (estimators._population_errors) sits a common
0.030 below both group levels on group means (1, 1) and (1, 3) with
identity covariances and beta = (-2, 1, 1): errors (+0.188, -0.188) against
the formula's (+0.218, -0.158). tau is exact whenever both groups share
X1's law, as the short model's mean score then cancels from b_1 - b_0.

Error sign convention: e = Yhat - Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot, sqrt

from scipy.special import ndtr

from .analytic_linear import GroupErrorPrediction
from .exceptions import AssumptionViolationError, ConfigError
from .moments import MixtureSpec, group_moments, pooled_moments

# Tolerance for "zero" within-group covariance and equal group variances.
_ASSUMPTION_TOL = 1e-10


@dataclass(frozen=True)
class ProbitDgpCoefficients:
    """Coefficients of the latent index; risk is Phi(b0 + b1*X1 + b2*X2)."""

    beta0: float
    beta1: float
    beta2: float


@dataclass(frozen=True)
class ProbitShortCoefficients:
    """Population probit coefficients of the fit that omits X2."""

    gamma0: float
    gamma1: float


def std_normal_cdf(x):
    """Standard normal CDF Phi.

    Backed by an erfc-based rational approximation accurate to well under
    1e-12 absolute everywhere; accepts scalars or arrays.
    """
    return ndtr(x)


def gaussian_cdf_expectation(a: float, b: float, mu: float, sigma: float) -> float:
    """E[Phi(a + b*X)] for X ~ N(mu, sigma^2), in closed form.

    Equals Phi((a + b*mu) / sqrt(1 + b^2 sigma^2)), the root taken as
    hypot(1, b*sigma), which never squares; at sigma = 0, Phi(a + b*mu).
    """
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative, got %r" % (sigma,))
    return float(ndtr((a + b * mu) / hypot(1.0, b * sigma)))


def omitted_coefficients_probit(
    beta: ProbitDgpCoefficients, mu2: float, sigma2: float
) -> ProbitShortCoefficients:
    """Population probit coefficients of the short model (X2 omitted).

        gamma0 = (beta0 + beta2*mu2) / sqrt(1 + beta2^2 sigma2^2)
        gamma1 = beta1 / sqrt(1 + beta2^2 sigma2^2)

    Valid when X2 is independent of X1 and Gaussian(mu2, sigma2^2) in the
    population; enforcing that is the caller's responsibility here (the
    group-error entry point checks it). The root is hypot(1, beta2*sigma2),
    which never squares, so it does not overflow where b^2 sigma^2 would.
    """
    if not sigma2 > 0:
        raise ConfigError("sigma2 must be positive, got %r" % (sigma2,))
    denom = hypot(1.0, beta.beta2 * sigma2)
    return ProbitShortCoefficients(
        gamma0=(beta.beta0 + beta.beta2 * mu2) / denom,
        gamma1=beta.beta1 / denom,
    )


def _check_assumptions(spec: MixtureSpec) -> float:
    """Validate the independence/equal-variance assumptions; return sigma2^2."""
    g0 = group_moments(spec, 0)
    g1 = group_moments(spec, 1)
    for a, g in ((0, g0), (1, g1)):
        if abs(g.cov_x1x2) > _ASSUMPTION_TOL:
            raise AssumptionViolationError(
                "within-group covariance of (X1, X2) must be zero; "
                "group %d has Cov = %r" % (a, g.cov_x1x2)
            )
    if abs(g0.var_x2 - g1.var_x2) > _ASSUMPTION_TOL:
        raise AssumptionViolationError(
            "Var(X2) must be equal across groups; got %r and %r"
            % (g0.var_x2, g1.var_x2)
        )
    return max(g0.var_x2, 0.0)  # dust below 0 is clipped, as in cholesky


def omitted_group_errors_probit(
    beta: ProbitDgpCoefficients, spec: MixtureSpec
) -> GroupErrorPrediction:
    """Group mean errors of the short probit model, e = Yhat - Y.

    For group a with X1 mean/variance (mu1a, s1a^2), X2 group mean mu2a,
    pooled X2 mean mu2 and common X2 variance s2^2:

        D_a = sqrt(1 + beta1^2 s1a^2 + beta2^2 s2^2)
        b_a = Phi((beta0 + beta1*mu1a + beta2*mu2) / D_a)
              - Phi((beta0 + beta1*mu1a + beta2*mu2a) / D_a)

    b_pop is reported as the weighted group combination. When the groups'
    X2 means differ, both group levels are shifted from the short probit's
    population limit by a common amount (see the module docstring); tau is
    exact when both groups share X1's law.

    Raises
    ------
    AssumptionViolationError
        If either group has nonzero Cov(X1, X2) or the groups' X2
        variances differ (tolerance 1e-10), naming the failed assumption.
    """
    var2 = _check_assumptions(spec)
    mu2_pooled = pooled_moments(spec).e_x2

    def one_group(a: int) -> float:
        g = group_moments(spec, a)
        d = hypot(1.0, beta.beta1 * sqrt(g.var_x1), beta.beta2 * sqrt(var2))
        base = beta.beta0 + beta.beta1 * g.e_x1
        short = float(ndtr((base + beta.beta2 * mu2_pooled) / d))
        true = float(ndtr((base + beta.beta2 * g.e_x2) / d))
        return short - true

    return GroupErrorPrediction.of_groups(one_group(0), one_group(1), spec)
