"""From-scratch fits: least squares, probit/logit Newton MLE, CART forest."""

import math

import numpy as np
import pytest

from biaslab.dgp import DgpSpec, generate
from biaslab.estimators import (
    ForestParams,
    _grow_tree,
    _LogitLink,
    _ProbitLink,
    fit_forest,
    fit_logit,
    fit_ols,
    fit_probit,
    predict,
    tree_predictions,
)
from biaslab.exceptions import RankDeficiencyError, SeparationError

from conftest import independent_mixture, make_mixture

REFERENCE = make_mixture(
    (1.0, 1.0),
    (1.0, 3.0),
    cov0=((1.0, 0.5), (0.5, 1.0)),
    cov1=((1.0, -0.5), (-0.5, 1.0)),
)


def dataset(family, beta, n, seed, mixture=REFERENCE):
    return generate(DgpSpec(family=family, beta=beta, mixture=mixture, n_per_group=n), seed)


def toy(x1, z):
    x1 = np.asarray(x1, dtype=float)
    z = np.asarray(z, dtype=np.int64)
    from biaslab.dgp import Dataset

    return Dataset(x1=x1, x2=np.zeros_like(x1), a=np.zeros_like(z), y=z.astype(float), z=z)


# --- least squares ---


def test_ols_noiseless_recovery():
    x1 = np.linspace(-2.0, 2.0, 50)
    x2 = np.sin(x1)
    from biaslab.dgp import Dataset

    ds = Dataset(x1=x1, x2=x2, a=np.zeros(50, dtype=np.int64), y=1.0 + 2.0 * x1 - 3.0 * x2)
    model = fit_ols(ds, "both")
    assert model.coefficients == pytest.approx((1.0, 2.0, -3.0), abs=1e-10)
    short = fit_ols(Dataset(x1=x1, x2=x2, a=ds.a, y=3.0 + 2.0 * x1), "x1_only")
    assert short.coefficients == pytest.approx((3.0, 2.0), abs=1e-10)


def test_ols_recovers_the_linear_dgp():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=50_000, seed=4)
    model = fit_ols(ds, "both")
    assert model.coefficients == pytest.approx((-2.0, 1.0, 1.0), abs=0.03)


def test_ols_residuals_are_orthogonal_to_the_design():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=2_000, seed=5)
    model = fit_ols(ds, "both")
    resid = predict(model, ds.x1, ds.x2) - ds.y
    n = ds.n
    assert abs(resid.mean()) <= 1e-8
    assert abs(resid @ ds.x1) / n <= 1e-8
    assert abs(resid @ ds.x2) / n <= 1e-8


def test_ols_rejects_collinear_designs():
    from biaslab.dgp import Dataset

    x1 = np.linspace(0.0, 1.0, 30)
    ds = Dataset(x1=x1, x2=2.0 * x1, a=np.zeros(30, dtype=np.int64), y=x1.copy())
    with pytest.raises(RankDeficiencyError):
        fit_ols(ds, "both")


def test_ols_rejects_fewer_rows_than_columns():
    # One row per group with both features: a 2x3 design has no unique fit.
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=1, seed=3)
    with pytest.raises(RankDeficiencyError, match="2 rows for 3 columns"):
        fit_ols(ds, "both")
    assert len(fit_ols(ds, "x1_only").coefficients) == 2


def test_ols_error_shrinks_with_sample_size():
    errors = []
    for n in (1_000, 10_000, 100_000):
        per_seed = []
        for seed in range(11):
            ds = dataset("linear", (-2.0, 1.0, 1.0), n=n // 2, seed=100 + seed)
            coef = np.asarray(fit_ols(ds, "both").coefficients)
            per_seed.append(float(np.max(np.abs(coef - np.array([-2.0, 1.0, 1.0])))))
        errors.append(float(np.median(per_seed)))
    assert errors[0] > errors[1] > errors[2]


# --- probit / logit MLE ---


def test_probit_recovers_its_coefficients():
    ds = dataset("probit", (-2.0, 1.0, 1.0), n=50_000, seed=8, mixture=independent_mixture())
    model = fit_probit(ds, "both")
    assert model.coefficients == pytest.approx((-2.0, 1.0, 1.0), abs=0.05)
    assert model.diagnostics.grad_max <= 1e-6


def test_logit_recovers_its_coefficients():
    ds = dataset("logit", (-1.0, 0.8, 0.5), n=50_000, seed=9, mixture=independent_mixture())
    model = fit_logit(ds, "both")
    assert model.coefficients == pytest.approx((-1.0, 0.8, 0.5), abs=0.08)


def test_short_probit_attenuates_toward_the_closed_form():
    # X1, X2 independent standard normal: dropping X2 shrinks both remaining
    # coefficients by 1/sqrt(1 + beta2^2).
    standard = make_mixture((0.0, 0.0), (0.0, 0.0))
    ds = dataset("probit", (-2.0, 1.0, 1.0), n=50_000, seed=10, mixture=standard)
    model = fit_probit(ds, "x1_only")
    root2 = math.sqrt(2.0)
    assert model.coefficients == pytest.approx((-2.0 / root2, 1.0 / root2), abs=0.05)


def test_flat_logit_stays_near_zero():
    ds = dataset("logit", (0.0, 0.0, 0.0), n=10_000, seed=11)
    model = fit_logit(ds, "both")
    assert np.max(np.abs(model.coefficients)) <= 0.05


def test_single_class_raises_separation():
    with pytest.raises(SeparationError):
        fit_probit(toy([0.1, 0.2, 0.3, 0.4], [1, 1, 1, 1]), "x1_only")


def test_separable_logit_raises_separation():
    ds = toy([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], [0, 0, 0, 1, 1, 1])
    with pytest.raises(SeparationError):
        fit_logit(ds, "x1_only")


def test_separable_probit_raises_separation():
    # Probit tails flatten the gradient quickly, so the guard needs points
    # with a wide spread of |x1| before the index passes the threshold.
    ds = toy([-5.0, -0.05, 0.05, 5.0], [0, 0, 1, 1])
    with pytest.raises(SeparationError):
        fit_probit(ds, "x1_only")


@pytest.mark.parametrize("link", [_ProbitLink, _LogitLink])
def test_analytic_gradient_matches_finite_differences(link):
    rng = np.random.default_rng(13)
    x = np.column_stack([np.ones(300), rng.standard_normal(300), rng.standard_normal(300)])
    z = (rng.random(300) < 0.5).astype(float)
    for coef in ([0.0, 0.0, 0.0], [0.4, -0.3, 0.7], [-1.0, 0.5, 0.2]):
        coef = np.asarray(coef)
        u, _ = link.grad_weights(x @ coef, z)
        grad = x.T @ u
        h = 1e-5
        for j in range(3):
            bump = np.zeros(3)
            bump[j] = h
            fd = (link.loglik(x @ (coef + bump), z) - link.loglik(x @ (coef - bump), z)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("family,fit", [("probit", fit_probit), ("logit", fit_logit)])
def test_log_likelihood_increases_monotonically(family, fit):
    for seed in range(10):
        ds = dataset(family, (-1.0, 0.7, 0.4), n=2_000, seed=200 + seed)
        diagnostics = fit(ds, "both").diagnostics
        assert len(diagnostics.log_likelihood) == diagnostics.iterations + 1
        assert diagnostics.grad_max <= 1e-6
        trace = np.asarray(diagnostics.log_likelihood)
        # Monotone up to the rounding floor of an n-term sum, which is the
        # optimizer's own step-acceptance slack.
        floor = -1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= floor)


def test_probit_probabilities_are_probabilities():
    ds = dataset("probit", (-2.0, 1.0, 1.0), n=2_000, seed=14)
    scores = predict(fit_probit(ds, "both"), ds.x1, ds.x2)
    assert np.all((scores > 0.0) & (scores < 1.0))


# --- forest ---


def test_forest_fits_a_constant():
    from biaslab.dgp import Dataset

    rng = np.random.default_rng(15)
    x1 = rng.standard_normal(100)
    ds = Dataset(x1=x1, x2=rng.standard_normal(100), a=np.zeros(100, dtype=np.int64), y=np.full(100, 3.25))
    model = fit_forest(ds, "both", ForestParams(n_trees=10), seed=0)
    assert np.all(predict(model, x1, ds.x2) == 3.25)


def test_forest_learns_a_step_function():
    from biaslab.dgp import Dataset

    rng = np.random.default_rng(16)
    x1 = np.concatenate([rng.uniform(-2.0, -0.5, 400), rng.uniform(0.5, 2.0, 400)])
    y = (x1 > 0.0).astype(float)
    ds = Dataset(x1=x1, x2=np.zeros_like(x1), a=np.zeros(800, dtype=np.int64), y=y)
    model = fit_forest(ds, "x1_only", ForestParams(n_trees=25), seed=1)
    probe = np.array([-1.5, -0.8, 0.8, 1.5])
    assert predict(model, probe) == pytest.approx([0.0, 0.0, 1.0, 1.0], abs=0.02)


def test_forest_is_deterministic_in_the_seed():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=300, seed=17)
    probe = np.linspace(-1.0, 3.0, 64)
    params = ForestParams(n_trees=12)
    one = predict(fit_forest(ds, "x1_only", params, seed=5), probe)
    two = predict(fit_forest(ds, "x1_only", params, seed=5), probe)
    assert one.tobytes() == two.tobytes()
    other = predict(fit_forest(ds, "x1_only", params, seed=6), probe)
    assert not np.array_equal(one, other)


def test_forest_score_is_the_mean_over_trees():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=200, seed=18)
    model = fit_forest(ds, "both", ForestParams(n_trees=7), seed=2)
    per_tree = tree_predictions(model, ds.x1, ds.x2)
    assert per_tree.shape == (7, ds.n)
    assert np.array_equal(predict(model, ds.x1, ds.x2), per_tree.mean(axis=0))


def test_forest_tree_structure_invariants():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=400, seed=19)
    params = ForestParams(n_trees=5, max_depth=4)
    model = fit_forest(ds, "both", params, seed=3)
    for tree in model.forest:
        internal = tree.feature >= 0
        assert np.all(tree.left[internal] >= 0)
        assert np.all(tree.right[internal] >= 0)
        assert np.all(tree.left[~internal] == -1)
        assert np.all(np.isfinite(tree.value))
        # a binary tree of depth d has at most 2^(d+1) - 1 nodes
        assert tree.feature.shape[0] <= 2 ** (params.max_depth + 1) - 1


def test_forest_requires_enough_rows():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=2, seed=20)
    with pytest.raises(ValueError):
        fit_forest(ds, "both", ForestParams(min_leaf=5), seed=0)


def test_forest_without_x2_shows_opposite_group_errors():
    # The same mechanism the closed form predicts for the short linear
    # model shows up in the nonparametric fit.
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=2_000, seed=21)
    model = fit_forest(ds, "x1_only", ForestParams(n_trees=30), seed=4)
    e = predict(model, ds.x1) - ds.y
    b0 = e[ds.a == 0].mean()
    b1 = e[ds.a == 1].mean()
    assert b0 * b1 < 0.0
    assert abs(b1 - b0) > 0.5


def reference_tree(xmat, y, params):
    """Per-feature CART grower (Breiman et al., 1984), one Python loop per feature.

    Splits minimise the children's summed squared deviations; ties go to the
    first feature, then the smallest left child. The threshold is the
    midpoint of the neighbouring values, or the lower one where the midpoint
    rounds up, and the rows are partitioned by comparing with it.
    """
    nodes = [[-1, 0.0, -1, -1, 0.0]]
    stack = [(0, np.arange(y.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        yr = y[rows]
        m = rows.shape[0]
        nodes[node][4] = float(yr.mean())
        if depth >= params.max_depth or m < 2 * params.min_leaf or yr.min() == yr.max():
            continue
        best = None
        for f in range(xmat.shape[1]):
            xf = xmat[rows, f]
            order = np.argsort(xf, kind="stable")
            xs, ys = xf[order], yr[order]
            csum, csum2 = np.cumsum(ys), np.cumsum(ys * ys)
            sizes = np.arange(params.min_leaf, m - params.min_leaf + 1)
            sizes = sizes[xs[sizes - 1] < xs[sizes]]
            if sizes.shape[0] == 0:
                continue
            ls, ls2 = csum[sizes - 1], csum2[sizes - 1]
            rs, rs2 = csum[-1] - ls, csum2[-1] - ls2
            cost = (ls2 - ls * ls / sizes) + (rs2 - rs * rs / (m - sizes))
            pick = int(np.argmin(cost))
            if best is None or cost[pick] < best[0]:
                i = int(sizes[pick])
                thr = 0.5 * (xs[i - 1] + xs[i])
                if not thr < xs[i]:
                    thr = xs[i - 1]
                best = (cost[pick], f, float(thr), rows[order])
        if best is None:
            continue
        _, f, thr, sorted_rows = best
        go_left = xmat[sorted_rows, f] <= thr
        nodes[node][:4] = f, thr, len(nodes), len(nodes) + 1
        stack.append((len(nodes), sorted_rows[go_left], depth + 1))
        stack.append((len(nodes) + 1, sorted_rows[~go_left], depth + 1))
        nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
    return [np.array(column) for column in zip(*nodes)]


@pytest.mark.parametrize("seed,x_kind", enumerate(["continuous", "integer", "rounded"]))
def test_grower_matches_the_per_feature_reference(seed, x_kind):
    rng = np.random.default_rng(seed)
    for case in range(20):
        n = int(rng.integers(10, 120))
        xmat = rng.standard_normal((n, 1 + case % 2)) * 2.0
        if x_kind == "integer":
            xmat = np.round(xmat)
        elif x_kind == "rounded":
            xmat = np.round(xmat, 1)
        y = xmat.sum(axis=1) + rng.standard_normal(n)
        if case % 4 >= 2:
            y = np.round(y)
        params = ForestParams(min_leaf=int(rng.integers(1, 8)), max_depth=int(rng.integers(1, 9)))
        tree = _grow_tree(xmat, y, params)
        want = reference_tree(xmat, y, params)
        for name, expected in zip(("feature", "threshold", "left", "right", "value"), want):
            assert np.array_equal(getattr(tree, name), expected), (case, name)


def test_split_applies_the_scored_partition_between_adjacent_floats():
    # The midpoint of a and b rounds to b; a threshold of b would send the
    # five b rows left as well and leave a left child of mean 5.
    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert 0.5 * (a + b) == b
    xmat = np.array([a] * 5 + [b] * 5 + [2.0] * 5)[:, None]
    y = np.array([0.0] * 5 + [10.0] * 10)
    tree = _grow_tree(xmat, y, ForestParams(max_depth=1, min_leaf=5))
    assert tree.feature[0] == 0
    assert a <= tree.threshold[0] < b
    assert tree.value[tree.left[0]] == 0.0
    assert tree.value[tree.right[0]] == 10.0
