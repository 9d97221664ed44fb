"""Closed forms for linear regression under correct and omitted-variable fits.

The population least-squares fit of Y = b0 + b1*X1 + b2*X2 + eps recovers
the coefficients exactly, so the prediction error has mean zero in every
group. Dropping X2 ("the short model") shifts the coefficients by a
function of the feature moments and produces group-dependent mean errors.
All formulas here take moments, not samples: they hold for any feature
distribution with finite second moments, Gaussian or not. The probit
counterparts in :mod:`biaslab.analytic_probit` do not share this property.

Sign convention throughout: the prediction error is e = Yhat - Y, never
the negation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .exceptions import DegenerateVarianceError
from .moments import MixtureSpec, MomentSummary, group_moments, pooled_moments

_VAR_TOL = 1e-12
_VANISH_TOL = 1e-10


@dataclass(frozen=True)
class GroupErrorPrediction:
    """Mean prediction errors by group and the bias between them.

    ``tau = b_group1 - b_group0`` always. The closed forms build theirs with
    :meth:`of_groups`; ``audit.ErrorReport`` adds standard errors and row counts.
    """

    b_pop: float
    b_group0: float
    b_group1: float
    tau: float

    @classmethod
    def of_groups(cls, b0: float, b1: float, spec: MixtureSpec) -> GroupErrorPrediction:
        """The record of group errors b0, b1 with b_pop weighted by spec.weights."""
        p0, p1 = spec.weights
        return cls(b_pop=p0 * b0 + p1 * b1, b_group0=b0, b_group1=b1, tau=b1 - b0)


def omitted_coefficients(beta: Sequence[float], m: MomentSummary) -> tuple[float, float]:
    """Population coefficients (gamma0, gamma1) of the short model (X2 omitted).

    beta is (beta0, beta1, beta2) of the true outcome
    Y = beta0 + beta1*X1 + beta2*X2 + eps. gamma1 absorbs the part of X2
    predictable from X1; gamma0 absorbs the rest of the mean shift:

        gamma1 = beta1 + beta2 * Cov(X1, X2) / Var(X1)
        gamma0 = beta0 + beta2 * (E[X1^2] E[X2] - E[X1] E[X1 X2]) / Var(X1)

    Raises
    ------
    DegenerateVarianceError
        If Var(X1) <= 1e-12; the formulas are undefined and a silent
        pseudo-inverse fallback would mask misuse.
    """
    b0, b1, b2 = beta
    if m.var_x1 <= _VAR_TOL:
        raise DegenerateVarianceError(
            "Var(X1) = %r is too small for the short-model formulas" % m.var_x1
        )
    gamma0 = b0 + b2 * (m.e_x1_sq * m.e_x2 - m.e_x1 * m.e_x1x2) / m.var_x1
    gamma1 = b1 + b2 * m.cov_x1x2 / m.var_x1
    return gamma0, gamma1


def omitted_group_errors(beta: Sequence[float], spec: MixtureSpec) -> GroupErrorPrediction:
    """Group mean errors of the short model, e = Yhat - Y.

    For group a:

        b_a = (gamma0 - beta0)
              + beta2 * [Cov(X1,X2)/Var(X1)] * E[X1|A=a]
              - beta2 * E[X2|A=a]

    with pooled moments inside the bracket. The weighted combination
    b_pop = Pr(A=1) b_1 + Pr(A=0) b_0 cancels to zero algebraically; it is
    returned as computed (floating dust included) rather than forced.
    """
    b0, _, b2 = beta
    pooled = pooled_moments(spec)
    shift = omitted_coefficients(beta, pooled)[0] - b0
    slope = b2 * pooled.cov_x1x2 / pooled.var_x1

    def one_group(a: int) -> float:
        g = group_moments(spec, a)
        return shift + slope * g.e_x1 - b2 * g.e_x2

    return GroupErrorPrediction.of_groups(one_group(0), one_group(1), spec)


def bias_vanishes_condition(beta: Sequence[float], spec: MixtureSpec) -> bool:
    """Whether the short model's bias tau is zero for this population.

    True iff

        Cov(X1,X2)/Var(X1) * [E(X1|A=1) - E(X1|A=0)] = E(X2|A=1) - E(X2|A=0)

    within 1e-10, or beta2 == 0 (nothing omitted matters, so tau vanishes
    regardless of the moment condition). tau from :func:`omitted_group_errors`
    is beta2 * (left side - right side), so this agrees with
    |tau| <= 1e-10 * |beta2|, not with |tau| <= 1e-10.
    """
    _, _, b2 = beta
    if b2 == 0.0:
        return True
    pooled = pooled_moments(spec)
    if pooled.var_x1 <= _VAR_TOL:
        raise DegenerateVarianceError(
            "Var(X1) = %r is too small for the vanishing condition" % pooled.var_x1
        )
    g0 = group_moments(spec, 0)
    g1 = group_moments(spec, 1)
    lhs = pooled.cov_x1x2 / pooled.var_x1 * (g1.e_x1 - g0.e_x1)
    rhs = g1.e_x2 - g0.e_x2
    return abs(lhs - rhs) <= _VANISH_TOL


def worst_case_check(prediction: GroupErrorPrediction, spec: MixtureSpec) -> bool:
    """Whether the equal-weights worst case holds: b_1 = -b_0 and |tau| = 2|b_1|.

    With equal group sizes and zero population error the group errors are
    forced to be mirror images, so the bias reaches twice the protected
    group's error. Returns the check's truth value (within 1e-12) for any
    weights; it generally fails when weights differ unless everything is
    zero.
    """
    mirror = abs(prediction.b_group1 + prediction.b_group0) <= 1e-12
    doubled = abs(abs(prediction.tau) - 2.0 * abs(prediction.b_group1)) <= 1e-12
    return mirror and doubled
