"""From-scratch fits: least squares, probit/logit Newton MLE, CART forest."""

import concurrent.futures
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, log_ndtr, ndtr

from biaslab import _special, audit, estimators
from biaslab.audit import error_report
from biaslab.dgp import Dataset, DgpSpec, derive_seed, generate
from biaslab.estimators import (
    MAX_DEPTH,
    FEATURE_SETS,
    MIN_LEAF,
    N_TREES,
    _grow_tree,
    _LogitLink,
    _presort,
    _ProbitLink,
    _tree_predict,
    fit_forest,
    fit_logit,
    fit_ols,
    fit_probit,
    predict,
)
from biaslab.exceptions import BiaslabError, ConfigError, RankDeficiencyError, SeparationError
from biaslab.experiment import TABLE_BETA, TABLE_MIXTURE, ExperimentCell

from conftest import fresh_python, independent_mixture, make_mixture

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


def test_fits_and_predictions_do_not_depend_on_the_blas_thread_count():
    # At 200,000 rows OpenBLAS split x.T @ x's sums over rows between two
    # threads, and the last bits of ols coefficients moved with the count.
    # 24,690 rows end in a block of 114 rows, which is not a multiple of 8.
    code = """
import hashlib
import numpy as np
from biaslab.dgp import DgpSpec, generate
from biaslab.estimators import fit_logit, fit_ols, fit_probit, predict
from biaslab.experiment import TABLE_BETA, TABLE_MIXTURE
for n in (100_000, 12_345):
    for family, fit in (("linear", fit_ols), ("probit", fit_probit), ("logit", fit_logit)):
        data = generate(DgpSpec(family, TABLE_BETA, TABLE_MIXTURE, n), 7)
        for features in ("both", "x1_only"):
            model = fit(data, features)
            print(np.array(model.coefficients).tobytes().hex())
            print(hashlib.sha256(predict(model, data.x1, data.x2).tobytes()).hexdigest())
"""
    one, two = (fresh_python(code, OPENBLAS_NUM_THREADS=str(t)) for t in (1, 2))
    assert one == two
    assert len(one.split()) == 24


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


def rank_designs():
    """Intercept/x1/x2 designs of 2 blocks + 17 rows: x1 shifted, x2 = x1 + collinearity * noise."""
    rng = np.random.default_rng(0)
    n = 2 * audit._BLOCK + 17
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    for shift in (0.0, 1e3, 1e5):
        for collinearity in (1e-6, 1e-7, 1e-8, 1e-9, 3e-10, 1e-10, 3e-11, 1e-11):
            x1 = shift + u
            yield x1, x1 + collinearity * v


def test_block_r_factors_give_the_full_design_singular_value_ratio():
    # The rank rule reads the ratio from the blocks' stacked R factors; a
    # full-design SVD is the reference. Both are within about eps of the
    # truth in absolute terms, not relative ones. Below a ratio of 1e-12
    # both are rounding, and only the verdict is compared.
    near_rule = set()
    for x1, x2 in rank_designs():
        full = np.linalg.svd(np.column_stack([np.ones_like(x1), x1, x2]), compute_uv=False)
        want = full[-1] / full[0]
        blocks = estimators._singular_values(estimators._ProductBlocks((x1, x2)))
        got = blocks[-1] / blocks[0]
        if want >= 1e-12:
            assert abs(got - want) <= np.finfo(float).eps / 4
        data = Dataset(x1=x1, x2=x2, a=np.zeros(x1.shape[0], dtype=np.int64), y=x1 - x2)
        if want <= 1e-10:
            with pytest.raises(RankDeficiencyError, match="rank deficient"):
                fit_ols(data, "both")
        else:
            assert len(fit_ols(data, "both").coefficients) == 3
        if 1e-11 < want < 1e-9:
            near_rule.add(want > 1e-10)
    assert near_rule == {False, True}  # a design on each side of the rule


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


@pytest.mark.parametrize("fit", [fit_probit, fit_logit])
@pytest.mark.parametrize(
    "labels,rows,error,match",
    [
        ((0.25, 0.75), None, ConfigError, "z labels must be 0 or 1"),
        ((0, 2), None, ConfigError, "z labels must be 0 or 1"),
        ((-1, 1), None, ConfigError, "z labels must be 0 or 1"),
        ((0, 1), 0, SeparationError, "all outcomes are the same class"),
    ],
    ids=["quarters", "zero-two", "minus-one-one", "no-rows"],
)
def test_binary_fits_take_only_0_1_labels(fit, labels, rows, error, match):
    # Other labels fit another likelihood (0.25/0.75 gives twice the 0/1
    # coefficients) or none (0/2 and -1/1 never converge).
    ds = dataset("probit", (-1.0, 0.7, 0.4), n=500, seed=5)
    z = np.asarray(labels)[ds.z]
    with pytest.raises(error, match=match):
        fit(Dataset(*(c[:rows] for c in (ds.x1, ds.x2, ds.a, ds.y, z))), "both")


@pytest.mark.parametrize("fit", [fit_probit, fit_logit])
def test_bool_labels_give_the_int_labels_fit(fit):
    # generate stores a and z as uint8; the fits, predict and the audit read
    # int64, uint8 and bool 0/1 labels to the same bits. 12,000 rows make two blocks.
    ds = dataset("probit", (-1.0, 0.7, 0.4), n=6_000, seed=5)
    runs = []
    for dtype in (np.int64, np.uint8, bool):
        data = Dataset(ds.x1, ds.x2, ds.a.astype(dtype), ds.y, ds.z.astype(dtype))
        model = fit(data, "both")
        scores = predict(model, data.x1, data.x2)
        runs.append((model, scores.tobytes(), error_report(scores, data.y, data.a)))
    assert runs[0] == runs[1] == runs[2]


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


@pytest.mark.parametrize("fit", [fit_probit, fit_logit])
@pytest.mark.parametrize("features", FEATURE_SETS)
def test_a_separable_sample_is_refused_from_either_start(fit, features):
    # z = 1 exactly where x1 > 0; the cell's start is no nearer a finite MLE.
    spec = DgpSpec("probit", TABLE_BETA, REFERENCE, 500)
    ds = generate(spec, 9)
    separable = Dataset(ds.x1, ds.x2, ds.a, ds.y, (ds.x1 > 0).astype(np.int64))
    for start in (None, ExperimentCell(spec, "probit", features).start):
        with pytest.raises(SeparationError, match="data appear separable"):
            fit(separable, features, start=start)


MLE_CASES = [("probit", fit_probit, _ProbitLink), ("logit", fit_logit, _LogitLink)]


@pytest.mark.parametrize("family,fit,link", MLE_CASES, ids=["probit", "logit"])
@pytest.mark.parametrize("features", FEATURE_SETS)
@pytest.mark.parametrize("n", [500, 100_000])
def test_a_fit_started_at_the_population_limit_stops_at_the_same_mle(family, fit, link,
                                                                      features, n):
    # Both log-likelihoods are strictly concave, and each fit stops with a
    # gradient max-norm g <= 1e-6, so it is within ||J^-1||_inf * g of the
    # MLE (J the information there) and the two fits within twice that.
    spec = DgpSpec(family, TABLE_BETA, REFERENCE, n)
    start = ExperimentCell(spec, family, features).start
    for seed in (3, 4, 5):
        ds = generate(spec, seed)
        zero, started = fit(ds, features), fit(ds, features, start=start)
        columns = (ds.x1, ds.x2) if features == "both" else (ds.x1,)
        x = np.column_stack([np.ones_like(ds.x1), *columns])
        _, curvature = link.grad_weights(x @ np.asarray(zero.coefficients), ds.z)
        j_inv = np.abs(np.linalg.inv(x.T @ (x * curvature[:, None]))).sum(axis=1).max()
        bound = 2.0 * j_inv * 1e-6 + 1e-12 * max(1.0, np.max(np.abs(zero.coefficients)))
        gap = np.abs(np.subtract(started.coefficients, zero.coefficients))
        assert np.max(gap) <= bound, (seed, gap, bound)
        assert started.diagnostics.grad_max <= 1e-6
        assert started.diagnostics.iterations <= zero.diagnostics.iterations


@pytest.mark.parametrize("fit", [fit_probit, fit_logit])
def test_the_default_start_is_zero_and_a_start_has_one_entry_per_coefficient(fit):
    ds = dataset("probit", (-1.0, 0.7, 0.4), n=500, seed=5)
    assert fit(ds, "both") == fit(ds, "both", start=(0.0, 0.0, 0.0))
    with pytest.raises(ConfigError, match="start needs 2 coefficients"):
        fit(ds, "x1_only", start=TABLE_BETA)


@pytest.mark.parametrize("fit", [fit_ols, fit_probit, fit_logit, fit_forest])
@pytest.mark.parametrize("rows", [399, 401])
def test_an_outcome_of_another_length_is_refused(fit, rows):
    # One row more was cut silently, one row fewer ended in numpy's bare errors.
    ds = dataset("probit", (-1.0, 0.7, 0.4), n=200, seed=5)
    y, z = np.resize(ds.y, rows), np.resize(ds.z, rows)
    with pytest.raises(ConfigError, match=r"one entry per row: got shape \(%d,\)" % rows):
        fit(Dataset(ds.x1, ds.x2, ds.a, y, z), "both")


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


class TwoSidedProbit(estimators._BernoulliLink):
    """Probit terms evaluated for both labels on every row, then selected."""

    @staticmethod
    def terms(eta, z):
        def at(s):
            ll = log_ndtr(s)
            lam = np.exp(-0.5 * s * s - 0.5 * math.log(2.0 * math.pi) - ll)
            return ll, lam, lam * (lam + s)

        return tuple(np.where(z == 1, pos, neg) for pos, neg in zip(at(eta), at(-eta)))


class TwoSidedLogit(estimators._BernoulliLink):
    """Logit terms evaluated for both labels on every row, then selected."""

    @staticmethod
    def terms(eta, z):
        def at(s):
            e = np.exp(-np.abs(s))
            slope = np.where(s >= 0.0, e, 1.0) / (1.0 + e)
            return np.minimum(s, 0.0) - np.log1p(e), slope, e / (1.0 + e) / (1.0 + e)

        return tuple(np.where(z == 1, pos, neg) for pos, neg in zip(at(eta), at(-eta)))


@pytest.mark.parametrize(
    "link,reference", [(_ProbitLink, TwoSidedProbit), (_LogitLink, TwoSidedLogit)]
)
def test_one_sided_links_equal_the_two_sided_formulas(link, reference):
    rng = np.random.default_rng(17)
    # Both labels at every index, |eta| on both sides of 8.
    grid = np.concatenate([np.linspace(-40.0, 40.0, 161), 3.0 * rng.standard_normal(400)])
    eta = np.concatenate([grid, grid])
    z = np.concatenate([np.zeros_like(grid), np.ones_like(grid)])
    assert link.loglik(eta, z) == reference.loglik(eta, z)
    for got, want in zip(link.grad_weights(eta, z), reference.grad_weights(eta, z)):
        assert np.array_equal(got, want)
    for got, want in zip(link.terms(eta, z), reference.terms(eta, z)):
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
            columns = estimators._columns(ds.x1, ds.x2, features)
            coef, diagnostics = estimators._newton_mle(columns, ds.z.astype(float), reference)
            assert model.coefficients == tuple(coef)
            assert model.diagnostics == diagnostics
    ds = toy([-5.0, -0.05, 0.05, 5.0], [0, 0, 1, 1])
    columns = estimators._columns(ds.x1, None, "x1_only")
    with pytest.raises(SeparationError) as want:
        estimators._newton_mle(columns, ds.z.astype(float), reference)
    with pytest.raises(SeparationError) as got:
        fit(ds, "x1_only")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fit", [fit_probit, fit_logit])
def test_the_separation_guard_reads_every_block(fit, monkeypatch):
    # One row per block: the rows that pass the index limit are in the last blocks.
    ds = toy([-0.05, 0.05, -5.0, 5.0], [0, 1, 0, 1])
    with pytest.raises(SeparationError) as want:
        fit(ds, "x1_only")
    monkeypatch.setattr(audit, "_BLOCK", 1)
    with pytest.raises(SeparationError) as got:
        fit(ds, "x1_only")
    assert str(got.value) == str(want.value)


def test_a_refused_full_step_is_halved():
    ds = dataset("logit", (-1.0, 0.7, 0.4), n=2_000, seed=300)
    columns = estimators._columns(ds.x1, ds.x2, "both")
    z = ds.z.astype(float)
    calls = []

    class RefuseFirstStep:
        @staticmethod
        def terms(eta, z):
            calls.append(None)
            ll, slope, curvature = _LogitLink.terms(eta, z)
            return (np.full_like(ll, -math.inf) if len(calls) == 2 else ll), slope, curvature

    coef, diagnostics = estimators._newton_mle(columns, z, RefuseFirstStep)
    ((_, rows),) = estimators._ProductBlocks(columns)  # 4,000 rows: one block
    u, w = _LogitLink.grad_weights(np.zeros(z.shape[0]), z)
    step = np.linalg.solve((rows @ w)[estimators._product_index(3)], rows[:3] @ u)
    assert diagnostics.log_likelihood[1] == _LogitLink.loglik((0.5 * step) @ rows[:3], z)
    assert coef == pytest.approx(fit_logit(ds, "both").coefficients, abs=1e-6)


def signed_grid():
    """Index values on [-40, 40] and random draws, with both labels, and their signed index."""
    rng = np.random.default_rng(19)
    grid = np.concatenate([np.linspace(-40.0, 40.0, 801), 4.0 * rng.standard_normal(2_000)])
    eta = np.concatenate([grid, grid])
    z = np.concatenate([np.zeros_like(grid), np.ones_like(grid)])
    return eta, z, np.where(z == 1, eta, -eta)


def within_ulps(got, want, ulps):
    return np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))


def test_probit_terms_match_independent_formulas():
    eta, z, s = signed_grid()
    ll, lam, curvature = _ProbitLink.terms(eta, z)
    assert np.array_equal(ll, log_ndtr(s))
    inner = np.abs(s) <= 8.0
    mills = np.exp(-0.5 * s[inner] ** 2) / math.sqrt(2.0 * math.pi) / ndtr(s[inner])
    assert np.all(np.abs(lam[inner] - mills) <= 1e-13 * mills)
    assert np.all(np.isfinite(lam))
    assert np.array_equal(curvature, lam * (lam + s))


def test_logit_terms_match_independent_formulas():
    eta, z, s = signed_grid()
    ll, slope, curvature = _LogitLink.terms(eta, z)
    assert within_ulps(ll, -np.logaddexp(0.0, -s), 4)
    assert within_ulps(slope, expit(-s), 4)
    assert within_ulps(curvature, expit(s) * expit(-s), 4)


@pytest.mark.parametrize("k", [2, 3])
def test_product_row_information_equals_the_weighted_cross_product(k, monkeypatch):
    monkeypatch.setattr(audit, "_BLOCK", 1_024)  # five blocks, the last one short
    rng = np.random.default_rng(23)
    n = 5_000
    x = np.column_stack([np.ones(n)] + [m + rng.standard_normal(n) for m in (1.0, 3.0)[: k - 1]])
    w = rng.random(n) * 0.25
    blocks = [(block, rows.copy()) for block, rows in estimators._ProductBlocks(tuple(x.T[1:]))]
    rows = np.hstack([block_rows for _, block_rows in blocks])
    information = estimators._fsum([block_rows @ w[block] for block, block_rows in blocks])
    assert np.array_equal(rows[:k], x.T)
    np.testing.assert_allclose(
        information[estimators._product_index(k)], x.T @ (x * w[:, None]), rtol=1e-13, atol=0.0
    )


@pytest.mark.parametrize("link", [_ProbitLink, _LogitLink])
def test_row_weights_act_as_row_counts(link):
    ds = dataset("probit", (-1.0, 0.7, 0.4), n=1_000, seed=43)
    columns = estimators._columns(ds.x1, ds.x2, "both")
    z = ds.z.astype(float)
    counts = np.random.default_rng(47).integers(1, 4, size=z.shape[0])
    weighted, _ = estimators._newton_mle(columns, z, link, counts.astype(float))
    repeated_columns = tuple(np.repeat(c, counts) for c in columns)
    repeated, _ = estimators._newton_mle(repeated_columns, np.repeat(z, counts), link)
    np.testing.assert_allclose(weighted, repeated, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("family,fit", [("probit", fit_probit), ("logit", fit_logit)])
def test_mle_fit_peaks_at_twelve_and_a_half_row_arrays(family, fit):
    ds = dataset(family, (-1.0, 0.7, 0.4), n=10_000, seed=41)
    n = ds.x1.shape[0]
    fit(ds, "both")  # first-call set-up is not the fit's working memory
    tracemalloc.start()
    try:
        fit(ds, "both")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5 * 8 * n


@pytest.mark.parametrize(
    "family,fit", [("linear", fit_ols), ("probit", fit_probit), ("logit", fit_logit)]
)
@pytest.mark.parametrize("features", estimators.FEATURE_SETS)
def test_blocked_fits_match_one_block_over_all_rows(family, fit, features, monkeypatch):
    # 2 blocks + 17 rows: two full blocks and a short one, against one block.
    n = 2 * audit._BLOCK + 17
    full = dataset(family, (-1.0, 0.7, 0.4), n=n // 2 + 1, seed=61)
    ds = Dataset(*(c if c is None else c[:n] for c in (full.x1, full.x2, full.a, full.y, full.z)))
    model = fit(ds, features)
    scores = predict(model, ds.x1, ds.x2)
    report = error_report(scores, ds.y, ds.a)
    monkeypatch.setattr(audit, "_BLOCK", n)
    one_block = fit(ds, features)
    np.testing.assert_allclose(model.coefficients, one_block.coefficients, rtol=1e-12, atol=0.0)
    # Relative to the largest score: an ols score can sit at 0.
    gap = np.abs(scores - predict(one_block, ds.x1, ds.x2))
    assert np.max(gap) <= 1e-12 * np.max(np.abs(scores))
    assert error_report(scores, ds.y, ds.a) == report


def test_a_replication_holds_its_dataset_and_little_more():
    # Each pass streams the rows through fixed blocks, so a probit/both
    # replication at 100,000 rows per group peaks near its own data (5 row
    # arrays) and predictions (1 more); 17 MiB more when the fit kept
    # n-sized temporaries.
    spec = DgpSpec(family="probit", beta=TABLE_BETA, mixture=TABLE_MIXTURE, n_per_group=100_000)
    _special.ndtr, _special.log_ndtr  # load the ufuncs before tracing
    tracemalloc.start()
    try:
        ds = generate(spec, 3)
        model = fit_probit(ds, "both")
        error_report(predict(model, ds.x1, ds.x2), ds.y, ds.a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(column.nbytes for column in (ds.x1, ds.x2, ds.a, ds.y, ds.z))
    assert peak <= own + 6 * 2**20


@pytest.mark.parametrize("fit", [fit_ols, fit_probit])
def test_feature_columns_of_different_lengths_are_refused(fit):
    ds = dataset("probit", (-1.0, 0.7, 0.4), n=500, seed=5)
    model = fit(ds, "both")
    with pytest.raises(ConfigError, match="same shape"):
        predict(model, ds.x1, ds.x2[:-1])
    with pytest.raises(ConfigError, match="same shape"):
        fit(Dataset(ds.x1, ds.x2[1:], ds.a, ds.y, ds.z), "both")


def test_feature_columns_that_are_not_1d_are_refused():
    # A (400, 2) x1 would grow x1_only forest trees on two features.
    ds = dataset("linear", (-1.0, 0.7, 0.4), n=200, seed=5)
    wide = np.column_stack([ds.x1, ds.x2])
    data = Dataset(wide, ds.x2, ds.a, ds.y)
    model = fit_ols(ds, "x1_only")
    calls = (lambda: fit_forest(data, "x1_only"), lambda: fit_ols(data, "x1_only"),
             lambda: predict(model, wide))
    for call in calls:
        with pytest.raises(ConfigError, match=r"1-d, got x1 of shape \(400, 2\)"):
            call()


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
        nodes = np.arange(tree.feature.shape[0])
        left, right = tree.children[0::2], tree.children[1::2]
        leaf = tree.threshold == np.inf
        # a leaf is its own two children; an internal node splits a real
        # feature at a finite threshold and points to later nodes
        assert np.all(left[leaf] == nodes[leaf]) and np.all(right[leaf] == nodes[leaf])
        assert np.all(np.isfinite(tree.threshold[~leaf]))
        assert np.all((tree.feature >= 0) & (tree.feature < 2))
        assert np.all(left[~leaf] > nodes[~leaf]) and np.all(right[~leaf] > nodes[~leaf])
        assert np.all(np.isfinite(tree.value))
        # a binary tree of depth d has at most 2^(d+1) - 1 nodes, so at
        # depth 8 its ids fit two bytes; at most two features fit one
        assert tree.feature.shape[0] <= 2 ** (MAX_DEPTH + 1) - 1
        assert (tree.feature.dtype, tree.children.dtype) == (np.uint8, np.uint16)
        assert tree.threshold.dtype == tree.value.dtype == np.float64


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
    order = _presort(x)
    assert len(model.forest) == N_TREES
    for t, tree in enumerate(model.forest):
        rng = np.random.Generator(np.random.Philox(key=derive_seed(9, "tree", t)))
        counts = np.bincount(rng.integers(0, ds.n, size=ds.n), minlength=ds.n)
        assert_same_tree(tree, _grow_tree(x, order, ds.y, counts, MAX_DEPTH, MIN_LEAF), t)


def out_of_bag_reference(model, x, seed):
    """Each row's out-of-bag score, rebuilt row by row in tree order.

    Tree t's bootstrap is re-drawn from derive_seed(seed, "tree", t); each
    row it left out adds that tree's score, and the sum is divided by the
    number of such trees.
    """
    n = x.shape[0]
    sums, trees = [0.0] * n, [0] * n
    for t, tree in enumerate(model.forest):
        rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "tree", t)))
        drawn = set(rng.integers(0, n, size=n).tolist())
        scores = _tree_predict(tree, x)
        for j in range(n):
            if j not in drawn:
                sums[j] += float(scores[j])
                trees[j] += 1
    return np.array([total / count for total, count in zip(sums, trees)])


@pytest.mark.parametrize("features", ["both", "x1_only"])
def test_forest_fitted_is_each_rows_out_of_bag_mean(features):
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=150, seed=23)
    model = fit_forest(ds, features, seed=10)
    x = np.column_stack([ds.x1, ds.x2] if features == "both" else [ds.x1])
    assert model.fitted.tobytes() == out_of_bag_reference(model, x, 10).tobytes()
    # predict averages every tree, so on the training rows it scores in sample
    assert not np.array_equal(model.fitted, predict(model, ds.x1, ds.x2))


def test_a_row_that_no_tree_leaves_out_is_refused(monkeypatch):
    from biaslab import experiment

    monkeypatch.setattr(estimators, "N_TREES", 1)
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=60, seed=25)
    with pytest.raises(BiaslabError, match="no out-of-bag score"):
        fit_forest(ds, "x1_only", seed=12)
    spec = DgpSpec(family="linear", beta=(-2.0, 1.0, 1.0), mixture=REFERENCE, n_per_group=60)
    cell = experiment.ExperimentCell(dgp=spec, model="forest", features="x1_only")
    row = experiment.run_cell(cell, 0, experiment.ExperimentConfig(cells=(cell,), replications=2))
    assert row.verdict == "error"
    assert "BiaslabError" in row.error and "no out-of-bag score" in row.error
    assert math.isnan(row.tau)


def record_pools(monkeypatch):
    """Replace the pool class with one that logs each pool's worker count."""
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    # fit_forest imports the pool class from concurrent.futures on each call.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def test_forest_is_the_same_for_any_worker_count(monkeypatch):
    ds = dataset("linear", (-2.0, 1.0, 1.0), n=150, seed=24)
    pools = record_pools(monkeypatch)
    runs = []
    for cores in (1, 3):
        monkeypatch.setattr(estimators.os, "sched_getaffinity", lambda pid, k=cores: set(range(k)))
        model = fit_forest(ds, "both", seed=11)
        trees = [tuple(a.tobytes() for a in vars(tree).values()) for tree in model.forest]
        runs.append((trees, model.fitted.tobytes(), predict(model, ds.x1, ds.x2).tobytes()))
    # predict scores serially: the fit's pool is the only one
    assert pools == [1, 3]
    assert runs[0] == runs[1]


def test_the_pool_modules_load_on_the_first_forest_fit():
    # Parsing the parametric and sweep configs fits no forest, so the process
    # pool's modules stay unloaded until a forest fit imports them.
    out = fresh_python("""
import json, sys
import biaslab
from biaslab.experiment import TABLE_MIXTURE
for name in ("parametric", "sweep"):
    biaslab.load_config("benchmarks/configs/%s.json" % name)
pool = ("multiprocessing", "concurrent.futures.process")
before = [m in sys.modules for m in pool]
spec = biaslab.DgpSpec("linear", (-2.0, 1.0, 1.0), TABLE_MIXTURE, 60)
model = biaslab.fit_forest(biaslab.generate(spec, 1), "both", seed=3)
after = [m in sys.modules for m in pool]
print(json.dumps({"before": before, "after": after, "fitted": model.fitted.tobytes().hex()}))
""")
    spec = DgpSpec("linear", (-2.0, 1.0, 1.0), TABLE_MIXTURE, 60)
    fitted = fit_forest(generate(spec, 1), "both", seed=3).fitted.tobytes().hex()
    got = json.loads(out.splitlines()[-1])
    assert got == {"before": [False, False], "after": [True, True], "fitted": fitted}


def test_a_forest_replication_opens_one_pool_and_audits_the_fitted_scores(monkeypatch):
    from biaslab import experiment
    from biaslab.audit import error_report

    pools = record_pools(monkeypatch)
    spec = DgpSpec(family="linear", beta=(-2.0, 1.0, 1.0), mixture=REFERENCE, n_per_group=60)
    cell = experiment.ExperimentCell(dgp=spec, model="forest", features="x1_only")
    report = experiment.run_replication(cell, seed=7)
    assert len(pools) == 1
    ds = generate(spec, 7)
    seed = derive_seed(7, "forest")
    model = fit_forest(ds, "x1_only", seed=seed)
    assert report == error_report(out_of_bag_reference(model, ds.x1[:, None], seed), ds.y, ds.a)


def stored_form(feature, threshold, left, right, value, max_depth):
    """The Tree of a tree whose leaves are marked feature == left == right == -1.

    Features are stored as uint8 and node ids in the narrowest unsigned type
    that holds the 2**(max_depth + 1) - 1 nodes of a tree ``max_depth`` deep.
    """
    leaf = feature < 0
    nodes = np.arange(feature.shape[0])
    node_ids = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                    if np.iinfo(t).max >= 2 ** (max_depth + 1) - 2)
    children = np.column_stack([np.where(leaf, nodes, left), np.where(leaf, nodes, right)])
    return estimators.Tree(
        feature=np.where(leaf, 0, feature).astype(np.uint8),
        threshold=np.where(leaf, np.inf, threshold),
        children=children.ravel().astype(node_ids),
        value=value,
    )


def assert_same_tree(got, want, *context):
    for name in ("feature", "threshold", "children", "value"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (*context, name)


def reference_tree(xmat, y, max_depth, min_leaf):
    """Per-feature CART grower (Breiman et al., 1984), one Python loop per feature.

    Splits minimise the children's summed squared deviations, scored as
    -(ls^2/k + rs^2/(m-k)) (the node's constant sum of squares left out);
    ties go to the first feature, then the smallest left child. The
    threshold is the midpoint of the neighbouring values, or the lower one
    where the midpoint rounds up, and the rows are partitioned by comparing
    with it. Each feature's rows at a node are sorted by value, then by row
    index. Returns the feature, threshold, left, right and value arrays,
    with -1 as a leaf's feature and children.
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
            order = np.lexsort((rows, xf))
            xs, ys = xf[order], yr[order]
            csum = np.cumsum(ys)
            sizes = np.arange(min_leaf, m - min_leaf + 1)
            sizes = sizes[xs[sizes - 1] < xs[sizes]]
            if sizes.shape[0] == 0:
                continue
            ls = csum[sizes - 1]
            rs = csum[-1] - ls
            cost = -(ls * ls / sizes + rs * rs / (m - sizes))
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


X_KINDS = ["continuous", "integer", "rounded", "duplicated", "mixed"]


def grower_cases(seed, x_kind):
    """Yield 20 random (xmat, y, counts, max_depth, min_leaf) grower inputs of one kind.

    The sample is counts[j] copies of training row j. "duplicated" takes
    the counts of a bootstrap, so it ties only identical rows; the other
    kinds take one copy of each row. "continuous" has no ties. With two
    features the ties of "integer", "rounded" and "mixed" (integer feature
    0, continuous feature 1) join rows that differ in the other feature.
    """
    rng = np.random.default_rng(seed)
    for case in range(20):
        n = int(rng.integers(10, 120))
        xmat = rng.standard_normal((n, 1 + case % 2)) * 2.0
        if x_kind == "integer":
            xmat = np.round(xmat)
        elif x_kind == "rounded":
            xmat = np.round(xmat, 1)
        elif x_kind == "mixed":
            xmat[:, 0] = np.round(xmat[:, 0])
        y = xmat.sum(axis=1) + rng.standard_normal(n)
        if case % 4 >= 2:
            y = np.round(y)
        counts = np.ones(n, dtype=np.int64)
        if x_kind == "duplicated":
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        min_leaf, max_depth = int(rng.integers(1, 8)), int(rng.integers(1, 9))
        yield xmat, y, counts, max_depth, min_leaf


@pytest.mark.parametrize("seed,x_kind", enumerate(X_KINDS))
def test_grower_matches_the_per_feature_reference(seed, x_kind):
    # The reference grows on the sample written out in training-row order,
    # so the tied kinds pin the tie order: by value, then by training-row
    # index, at every node.
    for case, (xmat, y, counts, max_depth, min_leaf) in enumerate(grower_cases(seed, x_kind)):
        tree = _grow_tree(xmat, _presort(xmat), y, counts, max_depth, min_leaf)
        sample = np.repeat(np.arange(y.shape[0]), counts)
        want = reference_tree(xmat[sample], y[sample], max_depth, min_leaf)
        assert_same_tree(tree, stored_form(*want, max_depth), case)


def reference_predict(reference, xmat):
    """Row-compacting traversal: each level moves only the rows not yet at a leaf.

    ``reference`` holds ``reference_tree``'s arrays, whose leaves have feature -1.
    """
    feature, threshold, left, right, value = reference
    idx = np.zeros(xmat.shape[0], dtype=np.int64)
    while True:
        rows = np.nonzero(feature[idx] >= 0)[0]
        if rows.shape[0] == 0:
            return value[idx]
        nodes = idx[rows]
        xv = xmat[rows, feature[nodes]]
        go_left = xv <= threshold[nodes]
        idx[rows] = np.where(go_left, left[nodes], right[nodes])


@pytest.mark.parametrize("seed,x_kind", enumerate(X_KINDS))
def test_traversal_matches_the_compacting_reference(seed, x_kind):
    # Probe rows: the training rows, fresh draws, and rows whose features
    # are NaN (goes right) or +-inf, alone and next to a finite value.
    rng = np.random.default_rng(100 + seed)
    for xmat, y, counts, max_depth, min_leaf in grower_cases(seed, x_kind):
        tree = _grow_tree(xmat, _presort(xmat), y, counts, max_depth, min_leaf)
        sample = np.repeat(np.arange(y.shape[0]), counts)
        reference = reference_tree(xmat[sample], y[sample], max_depth, min_leaf)
        d = xmat.shape[1]
        special = np.array([np.nan, np.inf, -np.inf, 0.0])
        odd = np.array(np.meshgrid(*[special] * d)).reshape(d, -1).T
        probe = np.vstack([xmat, 2.0 * rng.standard_normal((50, d)), odd])
        for rows in (probe, probe[:1], probe[:0]):
            got = _tree_predict(tree, rows)
            assert got.tobytes() == reference_predict(reference, rows).tobytes()


def test_traversal_walks_a_chain_deeper_than_max_depth():
    # Node k splits feature k % 2 at k and sends its right child one level
    # down, so a row with both features at v lands in leaf ceil(v) of the chain.
    depth = 3 * MAX_DEPTH
    nodes = []  # feature, threshold, left, right, value
    for k in range(depth):
        # internal node 2k: left leaf 2k+1, right child 2k+2
        nodes += [[k % 2, float(k), 2 * k + 1, 2 * k + 2, 0.0], [-1, 0.0, -1, -1, float(k)]]
    nodes.append([-1, 0.0, -1, -1, float(depth)])
    reference = [np.array(column) for column in zip(*nodes)]
    v = np.concatenate([np.arange(-1.0, depth + 2.0, 0.5), [np.nan, np.inf, -np.inf]])
    xmat = np.column_stack([v, v])
    got = _tree_predict(stored_form(*reference, depth), xmat)
    assert got.tobytes() == reference_predict(reference, xmat).tobytes()
    finite = np.isfinite(v)
    assert np.array_equal(got[finite], np.clip(np.ceil(v[finite]), 0.0, depth))
    assert list(got[~finite]) == [depth, depth, 0.0]


def test_split_applies_the_scored_partition_between_adjacent_floats():
    # The midpoint of a and b rounds to b; a threshold of b would send the
    # five b rows left as well and leave a left child of mean 5.
    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert 0.5 * (a + b) == b
    xmat = np.array([a] * 5 + [b] * 5 + [2.0] * 5)[:, None]
    y = np.array([0.0] * 5 + [10.0] * 10)
    tree = _grow_tree(xmat, _presort(xmat), y, np.ones(15, dtype=np.int64), 1, 5)
    assert tree.feature[0] == 0
    assert a <= tree.threshold[0] < b
    assert tree.value[tree.children[0]] == 0.0
    assert tree.value[tree.children[1]] == 10.0
