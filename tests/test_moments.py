"""Exact moment bookkeeping for two-group Gaussian feature mixtures."""

import numpy as np
import pytest
from hypothesis import given, settings

from biaslab.exceptions import ConfigError, InvalidCovarianceError
from biaslab.moments import GroupGaussianSpec, MixtureSpec, group_moments, pooled_moments

from conftest import make_mixture, mixtures

REFERENCE = make_mixture(
    (1.0, 1.0),
    (1.0, 3.0),
    cov0=((1.0, 0.5), (0.5, 1.0)),
    cov1=((1.0, -0.5), (-0.5, 1.0)),
)


def test_group_moments_read_off_the_group_parameters():
    g0 = group_moments(REFERENCE, 0)
    assert g0.e_x1 == 1.0
    assert g0.e_x2 == 1.0
    assert g0.var_x1 == 1.0
    assert g0.var_x2 == 1.0
    assert g0.cov_x1x2 == 0.5
    assert g0.e_x1_sq == 2.0
    assert g0.e_x1x2 == 1.5
    g1 = group_moments(REFERENCE, 1)
    assert g1.e_x2 == 3.0
    assert g1.e_x2_sq == 10.0
    assert g1.cov_x1x2 == -0.5


def test_pooled_moments_of_the_reference_mixture():
    # Every entry below is exactly representable, so exact equality is fair.
    m = pooled_moments(REFERENCE)
    assert m.e_x1 == 1.0
    assert m.e_x2 == 2.0
    assert m.e_x1_sq == 2.0
    assert m.e_x2_sq == 6.0
    assert m.e_x1x2 == 2.0
    assert m.var_x1 == 1.0
    assert m.var_x2 == 2.0
    assert m.cov_x1x2 == 0.0


def test_bad_group_label_rejected():
    with pytest.raises(ValueError):
        group_moments(REFERENCE, 2)


@pytest.mark.parametrize("weight,which", [(0.0, 0), (1.0, 1)])
def test_degenerate_weight_collapses_to_one_component(weight, which):
    spec = make_mixture((0.5, -1.0), (2.0, 1.5), weight=weight)
    pooled = pooled_moments(spec)
    component = group_moments(spec, which)
    assert pooled == component


@given(mixtures())
@settings(max_examples=200)
def test_law_of_total_variance_and_covariance(spec):
    pooled = pooled_moments(spec)
    g0 = group_moments(spec, 0)
    g1 = group_moments(spec, 1)
    p0, p1 = spec.weights
    d1 = g1.e_x1 - g0.e_x1
    d2 = g1.e_x2 - g0.e_x2
    assert pooled.var_x1 == pytest.approx(
        p0 * g0.var_x1 + p1 * g1.var_x1 + p0 * p1 * d1 * d1, abs=1e-9
    )
    assert pooled.var_x2 == pytest.approx(
        p0 * g0.var_x2 + p1 * g1.var_x2 + p0 * p1 * d2 * d2, abs=1e-9
    )
    assert pooled.cov_x1x2 == pytest.approx(
        p0 * g0.cov_x1x2 + p1 * g1.cov_x1x2 + p0 * p1 * d1 * d2, abs=1e-9
    )


@given(mixtures())
@settings(max_examples=100)
def test_pooled_means_are_weighted_component_means(spec):
    pooled = pooled_moments(spec)
    g0 = group_moments(spec, 0)
    g1 = group_moments(spec, 1)
    p0, p1 = spec.weights
    assert pooled.e_x1 == pytest.approx(p0 * g0.e_x1 + p1 * g1.e_x1, abs=1e-12)
    assert pooled.e_x2 == pytest.approx(p0 * g0.e_x2 + p1 * g1.e_x2, abs=1e-12)


@pytest.mark.parametrize(
    "covariance",
    [
        ((1.0, 2.0), (2.0, 1.0)),  # indefinite
        ((1.0, 0.3), (0.4, 1.0)),  # asymmetric
        ((float("nan"), 0.0), (0.0, 1.0)),
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),  # wrong shape
        # Both passed an eigenvalue test with tolerance -1e-10 and then had
        # no Cholesky factor to draw features with.
        ((0.0, 1e-6), (1e-6, 1.0)),  # degenerate X1 with nonzero covariance
        ((-5e-11, 0.0), (0.0, 1.0)),  # negative Var(X1)
    ],
)
def test_invalid_covariances_rejected(covariance):
    with pytest.raises(InvalidCovarianceError):
        GroupGaussianSpec(mean=(0.0, 0.0), covariance=covariance)


@given(mixtures())
@settings(max_examples=100)
def test_cholesky_factor_reproduces_the_covariance(spec):
    for g in spec.groups:
        chol = g.cholesky()
        assert chol[0, 1] == 0.0
        assert np.allclose(chol @ chol.T, np.array(g.covariance), rtol=0.0, atol=1e-12)


def test_invalid_weight_rejected():
    g = GroupGaussianSpec(mean=(0.0, 0.0), covariance=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ConfigError, match="weight_protected") as raised:
        MixtureSpec(groups=(g, g), weight_protected=1.5)
    assert not isinstance(raised.value, InvalidCovarianceError)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda g: MixtureSpec(groups=(g,)), "groups"),
        (lambda g: MixtureSpec(groups=(g, g, g)), "groups"),
        (lambda g: GroupGaussianSpec(mean=(0.0,), covariance=g.covariance), "mean"),
        (lambda g: GroupGaussianSpec(mean=(0.0, 0.0, 0.0), covariance=g.covariance), "mean"),
    ],
    ids=["one_group", "three_groups", "mean_of_one", "mean_of_three"],
)
def test_non_covariance_faults_name_their_field(build, field):
    g = GroupGaussianSpec(mean=(0.0, 0.0), covariance=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ConfigError, match=field) as raised:
        build(g)
    assert not isinstance(raised.value, InvalidCovarianceError)


def test_pooled_moments_match_direct_sampling():
    spec = make_mixture(
        (0.5, -1.0),
        (2.0, 1.5),
        cov0=((1.5, 0.6), (0.6, 0.8)),
        cov1=((0.7, -0.3), (-0.3, 2.0)),
        weight=0.35,
    )
    rng = np.random.default_rng(20240914)
    n = 200_000
    protected = rng.random(n) < spec.weight_protected
    draws = np.empty((n, 2))
    for a in (0, 1):
        rows = protected == a
        g = spec.groups[a]
        draws[rows] = rng.multivariate_normal(g.mean_array(), np.array(g.covariance), rows.sum())
    x1, x2 = draws[:, 0], draws[:, 1]

    m = pooled_moments(spec)
    assert m.e_x1 == pytest.approx(x1.mean(), abs=0.02)
    assert m.e_x2 == pytest.approx(x2.mean(), abs=0.02)
    assert m.var_x1 == pytest.approx(x1.var(), abs=0.04)
    assert m.var_x2 == pytest.approx(x2.var(), abs=0.04)
    assert m.cov_x1x2 == pytest.approx(np.cov(x1, x2)[0, 1], abs=0.04)

    g1 = group_moments(spec, 1)
    assert g1.e_x1 == pytest.approx(x1[protected].mean(), abs=0.02)
    assert g1.cov_x1x2 == pytest.approx(np.cov(x1[protected], x2[protected])[0, 1], abs=0.04)
