"""Seeded data generation: determinism, group sizes, moments, risks."""

import math

import numpy as np
import pytest

from biaslab.dgp import DgpSpec, derive_seed, generate
from biaslab.moments import group_moments

from conftest import independent_mixture, make_mixture

LINEAR_BETA = (-2.0, 1.0, 1.0)
REFERENCE = make_mixture(
    (1.0, 1.0),
    (1.0, 3.0),
    cov0=((1.0, 0.5), (0.5, 1.0)),
    cov1=((1.0, -0.5), (-0.5, 1.0)),
)


def spec_for(family, beta=LINEAR_BETA, mixture=REFERENCE, n=1000):
    return DgpSpec(family=family, beta=beta, mixture=mixture, n_per_group=n)


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(42, "cell", 3) == derive_seed(42, "cell", 3)
    assert derive_seed(42, "cell", 3) != derive_seed(42, "cell", 4)
    assert derive_seed(42, "cell", 3) != derive_seed(43, "cell", 3)
    assert derive_seed(42, 3) != derive_seed(42, "3")  # repr keeps types apart
    assert 0 <= derive_seed(2**63, "x") < 2**64


def test_generation_is_deterministic():
    spec = spec_for("linear")
    first = generate(spec, seed=11)
    again = generate(spec, seed=11)
    for name in ("x1", "x2", "a", "y"):
        assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
    other = generate(spec, seed=12)
    assert not np.array_equal(first.y, other.y)


def test_group_labels_are_block_ordered():
    ds = generate(spec_for("linear", n=50), seed=1)
    assert ds.n == 100
    assert np.array_equal(ds.a[:50], np.zeros(50, dtype=np.int64))
    assert np.array_equal(ds.a[50:], np.ones(50, dtype=np.int64))


def test_group_sizes_follow_the_protected_weight():
    mixture = make_mixture((0.0, 1.0), (0.5, 2.0), weight=0.1)
    ds = generate(spec_for("probit", mixture=mixture, n=500), seed=4)
    assert ds.n == 1000 and ds.z.shape == (1000,)
    assert np.array_equal(ds.a, np.repeat([0, 1], (900, 100)))


@pytest.mark.parametrize(
    "weight,n,sizes", [(0.0004, 500, (1000, 0)), (1.0, 5, (0, 10)), (0.001, 500, (999, 1))]
)
def test_a_group_without_rows_is_refused(weight, n, sizes):
    # The same group_sizes that generate draws with decide the refusal. A
    # group needs two rows, since one row gives a standard error of 0.
    mixture = make_mixture((0.0, 1.0), (0.5, 2.0), weight=weight)
    with pytest.raises(ValueError, match="group sizes %d and %d" % sizes):
        spec_for("linear", mixture=mixture, n=n)
    smallest = spec_for("linear", mixture=make_mixture((0, 1), (0, 1), weight=0.002), n=500)
    assert smallest.group_sizes == (998, 2)
    assert np.array_equal(generate(smallest, seed=2).a, np.repeat([0, 1], (998, 2)))


def test_feature_moments_match_the_mixture():
    ds = generate(spec_for("linear", n=100_000), seed=5)
    for a in (0, 1):
        g = group_moments(REFERENCE, a)
        rows = ds.a == a
        x1, x2 = ds.x1[rows], ds.x2[rows]
        # 4 standard errors at n=1e5 per group.
        assert x1.mean() == pytest.approx(g.e_x1, abs=4.0 * math.sqrt(g.var_x1 / 1e5))
        assert x2.mean() == pytest.approx(g.e_x2, abs=4.0 * math.sqrt(g.var_x2 / 1e5))
        assert x1.var(ddof=1) == pytest.approx(g.var_x1, abs=0.03)
        assert np.cov(x1, x2)[0, 1] == pytest.approx(g.cov_x1x2, abs=0.03)


def test_linear_noise_is_standard_and_exogenous():
    ds = generate(spec_for("linear", n=100_000), seed=17)
    noise = ds.y - (LINEAR_BETA[0] + LINEAR_BETA[1] * ds.x1 + LINEAR_BETA[2] * ds.x2)
    assert noise.mean() == pytest.approx(0.0, abs=0.01)
    assert noise.var(ddof=1) == pytest.approx(1.0, abs=0.02)
    assert np.corrcoef(noise, ds.x1)[0, 1] == pytest.approx(0.0, abs=0.01)
    assert np.corrcoef(noise, ds.x2)[0, 1] == pytest.approx(0.0, abs=0.01)


def test_outcome_means():
    linear = generate(spec_for("linear", n=200_000), seed=3)
    assert linear.y.mean() == pytest.approx(1.0, abs=0.02)  # -2 + E[X1] + E[X2]

    poly = generate(
        spec_for("polynomial", beta=(-2.0, 1.0, 1.0, 1.0, 1.0, -1.0), n=200_000), seed=3
    )
    # Group 0: -2 + 1 + 1 + E[X1^2] + E[X2^2] - E[X1 X2] = 2.5.
    assert poly.y[poly.a == 0].mean() == pytest.approx(2.5, abs=0.05)


def test_classification_outputs_risk_and_draw():
    spec = spec_for("probit", n=200_000)
    ds = generate(spec, seed=21)
    from scipy.special import ndtr

    assert np.array_equal(ds.y, ndtr(-2.0 + ds.x1 + ds.x2))
    assert np.all((0.0 < ds.y) & (ds.y < 1.0))
    assert set(np.unique(ds.z)) <= {0, 1}
    # Calibration: within each risk decile the label rate tracks the risk.
    deciles = np.quantile(ds.y, np.linspace(0.0, 1.0, 11))
    for lo, hi in zip(deciles[:-1], deciles[1:]):
        rows = (ds.y >= lo) & (ds.y < hi)
        if rows.sum() < 1000:
            continue
        assert ds.z[rows].mean() == pytest.approx(ds.y[rows].mean(), abs=0.02)


def test_flat_probit_risk_is_one_half():
    ds = generate(spec_for("probit", beta=(0.0, 0.0, 0.0), n=20_000), seed=2)
    assert np.all(ds.y == 0.5)
    assert ds.z.mean() == pytest.approx(0.5, abs=0.02)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for("quadratic")
    with pytest.raises(ValueError):
        spec_for("linear", beta=(1.0, 2.0))
    with pytest.raises(ValueError):
        spec_for("polynomial", beta=LINEAR_BETA)
    for n in (0, True, 2.5, "10", 10_000_001):
        with pytest.raises(ValueError):
            spec_for("linear", n=n)
    with pytest.raises(ValueError):
        spec_for("linear", beta=(float("inf"), 0.0, 0.0))


def test_independent_mixture_has_uncorrelated_features():
    ds = generate(spec_for("probit", mixture=independent_mixture(), n=100_000), seed=31)
    for a in (0, 1):
        rows = ds.a == a
        assert np.cov(ds.x1[rows], ds.x2[rows])[0, 1] == pytest.approx(0.0, abs=0.02)
