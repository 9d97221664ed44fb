"""From-scratch fits: least squares, probit/logit Newton MLE, CART forest."""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr

from biaslab import estimators
from biaslab.dgp import DgpSpec, derive_seed, generate
from biaslab.estimators import (
    MAX_DEPTH,
    MIN_LEAF,
    N_TREES,
    _grow_tree,
    _LogitLink,
    _ProbitLink,
    _tree_predict,
    fit_forest,
    fit_logit,
    fit_ols,
    fit_probit,
    predict,
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
    # A spec refuses groups of one row, so the two rows come from a larger draw.
    from biaslab.dgp import Dataset

    full = dataset("linear", (-2.0, 1.0, 1.0), n=2, seed=3)
    ds = Dataset(*(column[[0, 2]] for column in (full.x1, full.x2, full.a, full.y)))
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


class TwoSidedProbit:
    """Probit terms evaluated for both labels on every row, then selected."""

    @staticmethod
    def loglik(eta, z):
        return float(np.sum(np.where(z == 1, log_ndtr(eta), log_ndtr(-eta))))

    @staticmethod
    def grad_weights(eta, z):
        lam_pos = estimators._mills(eta)
        lam_neg = estimators._mills(-eta)
        u = np.where(z == 1, lam_pos, -lam_neg)
        w = np.where(z == 1, lam_pos * (lam_pos + eta), lam_neg * (lam_neg - eta))
        return u, w


class TwoSidedLogit:
    """Logit log-likelihood evaluated for both labels on every row, then selected."""

    @staticmethod
    def loglik(eta, z):
        return float(-np.sum(np.where(z == 1, np.logaddexp(0.0, -eta), np.logaddexp(0.0, eta))))

    grad_weights = staticmethod(_LogitLink.grad_weights)


@pytest.mark.parametrize(
    "link,reference", [(_ProbitLink, TwoSidedProbit), (_LogitLink, TwoSidedLogit)]
)
def test_one_sided_links_equal_the_two_sided_formulas(link, reference):
    rng = np.random.default_rng(17)
    # Both labels at every index, |eta| on both sides of the Mills-ratio cutoff at 8.
    grid = np.concatenate([np.linspace(-40.0, 40.0, 161), 3.0 * rng.standard_normal(400)])
    eta = np.concatenate([grid, grid])
    z = np.concatenate([np.zeros_like(grid), np.ones_like(grid)])
    assert link.loglik(eta, z) == reference.loglik(eta, z)
    for got, want in zip(link.grad_weights(eta, z), reference.grad_weights(eta, z)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "family,fit,reference",
    [("probit", fit_probit, TwoSidedProbit), ("logit", fit_logit, TwoSidedLogit)],
)
def test_newton_with_two_sided_links_gives_the_same_fits(family, fit, reference):
    for seed in range(4):
        ds = dataset(family, (-1.0, 0.7, 0.4), n=2_000, seed=300 + seed)
        for features in estimators.FEATURE_SETS:
            model = fit(ds, features)
            x = estimators._design(ds.x1, ds.x2, features)
            coef, diagnostics = estimators._newton_mle(x, ds.z.astype(float), reference)
            assert model.coefficients == tuple(coef)
            assert model.diagnostics == diagnostics
    ds = toy([-5.0, -0.05, 0.05, 5.0], [0, 0, 1, 1])
    x = estimators._design(ds.x1, None, "x1_only")
    with pytest.raises(SeparationError) as want:
        estimators._newton_mle(x, ds.z.astype(float), reference)
    with pytest.raises(SeparationError) as got:
        fit(ds, "x1_only")
    assert str(got.value) == str(want.value)


def test_a_refused_full_step_is_halved():
    ds = dataset("logit", (-1.0, 0.7, 0.4), n=2_000, seed=300)
    x = estimators._design(ds.x1, ds.x2, "both")
    z = ds.z.astype(float)
    calls = []

    class RefuseFirstStep:
        grad_weights = staticmethod(_LogitLink.grad_weights)

        @staticmethod
        def loglik(eta, z):
            calls.append(None)
            return -math.inf if len(calls) == 2 else _LogitLink.loglik(eta, z)

    coef, diagnostics = estimators._newton_mle(x, z, RefuseFirstStep)
    u, w = _LogitLink.grad_weights(np.zeros(z.shape[0]), z)
    step = np.linalg.solve(x.T @ (x * w[:, None]), x.T @ u)
    assert diagnostics.log_likelihood[1] == _LogitLink.loglik(x @ (0.5 * step), z)
    assert coef == pytest.approx(fit_logit(ds, "both").coefficients, abs=1e-6)


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
    model = fit_forest(ds, "both", seed=0)
    assert np.all(predict(model, x1, ds.x2) == 3.25)


def test_forest_learns_a_step_function():
    from biaslab.dgp import Dataset

    rng = np.random.default_rng(16)
    x1 = np.concatenate([rng.uniform(-2.0, -0.5, 400), rng.uniform(0.5, 2.0, 400)])
    y = (x1 > 0.0).astype(float)
    ds = Dataset(x1=x1, x2=np.zeros_like(x1), a=np.zeros(800, dtype=np.int64), y=y)
    model = fit_forest(ds, "x1_only", seed=1)
    probe = np.array([-1.5, -0.8, 0.8, 1.5])
    assert predict(model, probe) == pytest.approx([0.0, 0.0, 1.0, 1.0], abs=0.02)


def test_forest_is_deterministic_in_the_seed():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=300, seed=17)
    probe = np.linspace(-1.0, 3.0, 64)
    one = predict(fit_forest(ds, "x1_only", seed=5), probe)
    two = predict(fit_forest(ds, "x1_only", seed=5), probe)
    assert one.tobytes() == two.tobytes()
    other = predict(fit_forest(ds, "x1_only", seed=6), probe)
    assert not np.array_equal(one, other)


def test_forest_score_is_the_mean_over_trees():
    # The running sum in tree order equals numpy's axis-0 mean of the
    # stacked tree scores byte for byte whenever there are two or more rows.
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=200, seed=18)
    model = fit_forest(ds, "both", seed=2)
    for rows in (2, 3, ds.n):
        x1, x2 = ds.x1[:rows], ds.x2[:rows]
        per_tree = np.vstack([_tree_predict(t, np.column_stack([x1, x2])) for t in model.forest])
        assert predict(model, x1, x2).tobytes() == per_tree.mean(axis=0).tobytes(), rows


def test_forest_tree_structure_invariants():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=400, seed=19)
    model = fit_forest(ds, "both", seed=3)
    for tree in model.forest:
        internal = tree.feature >= 0
        assert np.all(tree.left[internal] >= 0)
        assert np.all(tree.right[internal] >= 0)
        assert np.all(tree.left[~internal] == -1)
        assert np.all(np.isfinite(tree.value))
        # a binary tree of depth d has at most 2^(d+1) - 1 nodes
        assert tree.feature.shape[0] <= 2 ** (MAX_DEPTH + 1) - 1


def test_forest_requires_enough_rows():
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=2, seed=20)
    with pytest.raises(ValueError):
        fit_forest(ds, "both", seed=0)


def test_forest_without_x2_shows_opposite_group_errors():
    # The same mechanism the closed form predicts for the short linear
    # model shows up in the nonparametric fit.
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=2_000, seed=21)
    model = fit_forest(ds, "x1_only", seed=4)
    e = predict(model, ds.x1) - ds.y
    b0 = e[ds.a == 0].mean()
    b1 = e[ds.a == 1].mean()
    assert b0 * b1 < 0.0
    assert abs(b1 - b0) > 0.5


@pytest.mark.parametrize("features", ["both", "x1_only"])
def test_pooled_forest_equals_trees_grown_one_by_one(features):
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=150, seed=22)
    model = fit_forest(ds, features, seed=9)
    x = np.column_stack([ds.x1, ds.x2] if features == "both" else [ds.x1])
    assert len(model.forest) == N_TREES
    for t, tree in enumerate(model.forest):
        rng = np.random.Generator(np.random.Philox(key=derive_seed(9, "tree", t)))
        boot = rng.integers(0, ds.n, size=ds.n)
        want = _grow_tree(x[boot], ds.y[boot], MAX_DEPTH, MIN_LEAF)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(tree, name), getattr(want, name)), (t, name)


def test_forest_is_the_same_for_any_worker_count(monkeypatch):
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=150, seed=24)
    pools = []

    class RecordingPool(estimators.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(estimators, "ProcessPoolExecutor", RecordingPool)
    runs = []
    for cores in (1, 3):
        monkeypatch.setattr(estimators.os, "sched_getaffinity", lambda pid, k=cores: set(range(k)))
        model = fit_forest(ds, "both", seed=11)
        trees = [tuple(a.tobytes() for a in vars(tree).values()) for tree in model.forest]
        runs.append((trees, predict(model, ds.x1, ds.x2).tobytes()))
    assert pools == [1, 1, 3, 3]
    assert runs[0] == runs[1]


def reference_tree(xmat, y, max_depth, min_leaf):
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
        if depth >= max_depth or m < 2 * min_leaf or yr.min() == yr.max():
            continue
        best = None
        for f in range(xmat.shape[1]):
            xf = xmat[rows, f]
            order = np.argsort(xf, kind="stable")
            xs, ys = xf[order], yr[order]
            csum, csum2 = np.cumsum(ys), np.cumsum(ys * ys)
            sizes = np.arange(min_leaf, m - min_leaf + 1)
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
        min_leaf, max_depth = int(rng.integers(1, 8)), int(rng.integers(1, 9))
        tree = _grow_tree(xmat, y, max_depth, min_leaf)
        want = reference_tree(xmat, y, max_depth, min_leaf)
        for name, expected in zip(("feature", "threshold", "left", "right", "value"), want):
            assert np.array_equal(getattr(tree, name), expected), (case, name)


def test_split_applies_the_scored_partition_between_adjacent_floats():
    # The midpoint of a and b rounds to b; a threshold of b would send the
    # five b rows left as well and leave a left child of mean 5.
    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert 0.5 * (a + b) == b
    xmat = np.array([a] * 5 + [b] * 5 + [2.0] * 5)[:, None]
    y = np.array([0.0] * 5 + [10.0] * 10)
    tree = _grow_tree(xmat, y, max_depth=1, min_leaf=5)
    assert tree.feature[0] == 0
    assert a <= tree.threshold[0] < b
    assert tree.value[tree.left[0]] == 0.0
    assert tree.value[tree.right[0]] == 10.0
