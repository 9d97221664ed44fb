"""Shared builders, hypothesis strategies and population-limit references for the tests."""

import math

import hypothesis.strategies as st
import numpy as np
from scipy.special import log_ndtr, ndtr

from biaslab.analytic_linear import GroupErrorPrediction
from biaslab.moments import GroupGaussianSpec, MixtureSpec

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


def make_mixture(mean0, mean1, cov0=IDENTITY, cov1=IDENTITY, weight=0.5):
    return MixtureSpec(
        groups=(
            GroupGaussianSpec(mean=tuple(mean0), covariance=cov0),
            GroupGaussianSpec(mean=tuple(mean1), covariance=cov1),
        ),
        weight_protected=weight,
    )


def independent_mixture():
    """Identity within-group covariances, group X2 means 1 and 3."""
    return make_mixture((1.0, 1.0), (1.0, 3.0))


@st.composite
def mixtures(draw):
    """Random well-conditioned two-group mixtures."""

    def group():
        m1 = draw(st.floats(-5.0, 5.0))
        m2 = draw(st.floats(-5.0, 5.0))
        v1 = draw(st.floats(0.1, 4.0))
        v2 = draw(st.floats(0.1, 4.0))
        rho = draw(st.floats(-0.9, 0.9))
        c = rho * math.sqrt(v1 * v2)
        return GroupGaussianSpec(mean=(m1, m2), covariance=((v1, c), (c, v2)))

    weight = draw(st.floats(0.05, 0.95))
    return MixtureSpec(groups=(group(), group()), weight_protected=weight)


coefficients = st.floats(-5.0, 5.0)


def _group_errors(b0, b1, spec):
    p0, p1 = spec.weights
    return GroupErrorPrediction(
        b_pop=p0 * b0 + p1 * b1, b_group0=b0, b_group1=b1, tau=b1 - b0
    )


def population_ols_limit(beta, spec, features):
    """Population least-squares fit of a linear or quadratic outcome.

    ``beta`` is (b0, b1, b2), or (b0, ..., b5) with b3, b4, b5 on X1^2,
    X2^2 and X1*X2 as in ``DgpSpec``; ``features`` is "both" or "x1_only".
    The normal equations integrate polynomials of degree at most 3 in
    (X1, X2) over each Gaussian group, so a tensor Gauss-Hermite rule with
    20 nodes per axis, mapped through the group's Cholesky factor, gives
    them exactly up to rounding.
    Returns the coefficients on the design columns and the group errors
    e = Yhat - Y of the limit fit. Uses only numpy and the mixture's
    parameters.
    """
    b = np.array(tuple(beta) + (0.0,) * (6 - len(beta)))
    t, w = np.polynomial.hermite.hermgauss(20)
    t, w = math.sqrt(2.0) * t, np.outer(w, w).ravel() / math.pi
    nodes = np.vstack([np.repeat(t, t.size), np.tile(t, t.size)])
    cols = [0, 1] if features == "x1_only" else [0, 1, 2]
    gram, cross, group_means = 0.0, 0.0, []
    for p, g in zip(spec.weights, spec.groups):
        x1, x2 = g.mean_array()[:, None] + np.linalg.cholesky(np.array(g.covariance)) @ nodes
        ones = np.ones_like(x1)
        y = b @ np.vstack([ones, x1, x2, x1 * x1, x2 * x2, x1 * x2])
        design = np.column_stack([ones, x1, x2])[:, cols]
        gram = gram + p * (design.T * w) @ design
        cross = cross + p * (design.T * w) @ y
        group_means.append((w @ design, w @ y))
    coef = np.linalg.solve(gram, cross)
    errors = [float(d @ coef - m) for d, m in group_means]
    return coef, _group_errors(errors[0], errors[1], spec)


def probit_short_fit_limit(beta, spec):
    """Population limit of the probit fit of the risk on (1, X1), X2 omitted.

    ``beta`` is (b0, b1, b2) of the risk Phi(b0 + b1*X1 + b2*X2). Within
    group a, X2 given X1 = x is Gaussian with mean m_a(x) and variance v_a,
    so the risk given X1 has the exact form

        r_a(x) = Phi((b0 + b1*x + b2*m_a(x)) / sqrt(1 + b2^2 v_a)).

    The population log-likelihood
    sum_a p_a E_a[r log Phi(g'd) + (1 - r) log(1 - Phi(g'd))], d = (1, X1),
    is taken over each group's X1 by 80-node Gauss-Hermite quadrature and
    maximised by Newton's method with the exact Hessian (the objective is
    concave).
    Returns gamma and the group errors e = Phi(g0 + g1*X1) - Y of the limit
    fit. Uses neither the library's fits nor its closed forms.
    """
    b0, b1, b2 = beta
    t, w = np.polynomial.hermite.hermgauss(80)
    t, w = math.sqrt(2.0) * t, w / math.sqrt(math.pi)
    xs, risks, weights = [], [], []
    for p, g in zip(spec.weights, spec.groups):
        (m1, m2), ((s11, s12), (_, s22)) = g.mean, g.covariance
        x = m1 + math.sqrt(s11) * t
        cond_mean = m2 + s12 / s11 * (x - m1)
        cond_var = s22 - s12 * s12 / s11
        xs.append(x)
        risks.append(ndtr((b0 + b1 * x + b2 * cond_mean) / math.sqrt(1.0 + b2 * b2 * cond_var)))
        weights.append(p * w)
    x, r, wt = np.concatenate(xs), np.concatenate(risks), np.concatenate(weights)
    design = np.column_stack([np.ones_like(x), x])

    gamma = np.zeros(2)
    for _ in range(100):
        eta = design @ gamma
        log_pdf = -0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi)
        lam1 = np.exp(log_pdf - log_ndtr(eta))
        lam0 = np.exp(log_pdf - log_ndtr(-eta))
        grad = design.T @ (wt * (r * lam1 - (1.0 - r) * lam0))
        curv = r * lam1 * (lam1 + eta) + (1.0 - r) * lam0 * (lam0 - eta)
        step = np.linalg.solve(design.T @ (design * (wt * curv)[:, None]), grad)
        gamma = gamma + step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        raise RuntimeError("population probit Newton did not converge")

    gaps = np.split(ndtr(design @ gamma) - r, 2)
    return gamma, _group_errors(float(w @ gaps[0]), float(w @ gaps[1]), spec)


def logit_short_fit_limit(beta, spec):
    """Population limit of the logit fit of the logit risk on (1, X1), X2 omitted.

    ``beta`` is (b0, b1, b2) of the risk S(b0 + b1*X1 + b2*X2). Within group
    a, X2 given X1 = x is Gaussian with mean m_a(x) and variance v_a; the risk
    given X1 has no closed form, so it is taken by 60-node Gauss-Hermite
    quadrature over that conditional law, inside 60-node quadrature over
    each group's X1. The concave population log-likelihood is maximised by
    Newton's method with the exact Hessian. S(u) is 0.5 * (1 + tanh(u / 2)),
    which never overflows.
    Returns gamma and the group errors e = S(g0 + g1*X1) - Y of the limit
    fit. Uses only numpy, neither the library's fits nor its quadrature.
    """
    b0, b1, b2 = beta
    t, w = np.polynomial.hermite.hermgauss(60)
    t, w = math.sqrt(2.0) * t, w / math.sqrt(math.pi)

    def logistic(u):
        return 0.5 * (1.0 + np.tanh(0.5 * u))

    xs, risks, weights = [], [], []
    for p, g in zip(spec.weights, spec.groups):
        (m1, m2), ((s11, s12), (_, s22)) = g.mean, g.covariance
        x = m1 + math.sqrt(s11) * t
        cond_mean = m2 + s12 / s11 * (x - m1)
        cond_sd = math.sqrt(max(s22 - s12 * s12 / s11, 0.0))
        x2 = cond_mean[:, None] + cond_sd * t[None, :]
        xs.append(x)
        risks.append(logistic(b0 + b1 * x[:, None] + b2 * x2) @ w)
        weights.append(p * w)
    x, r, wt = np.concatenate(xs), np.concatenate(risks), np.concatenate(weights)
    design = np.column_stack([np.ones_like(x), x])

    gamma = np.zeros(2)
    for _ in range(100):
        prob = logistic(design @ gamma)
        grad = design.T @ (wt * (r - prob))
        hess = design.T @ (design * (wt * prob * (1.0 - prob))[:, None])
        step = np.linalg.solve(hess, grad)
        gamma = gamma + step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        raise RuntimeError("population logit Newton did not converge")

    gaps = np.split(logistic(design @ gamma) - r, 2)
    return gamma, _group_errors(float(w @ gaps[0]), float(w @ gaps[1]), spec)
