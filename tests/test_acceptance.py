"""End-to-end acceptance checks.

Each test prints exactly one line, ``ACCEPTANCE <n> PASS|FAIL: <measured
values>``, before asserting, so the battery's outcome is readable from the
run log even when a check fails. The shared fixture runs the non-forest
reference cells once (30 replications, 10,000 rows per group) and is reused
by every criterion that reads aggregated rows.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from biaslab.analytic_linear import (
    omitted_group_errors,
    worst_case_check,
)
from biaslab.analytic_probit import (
    gaussian_cdf_expectation,
    omitted_coefficients_probit,
    omitted_group_errors_probit,
    std_normal_cdf,
)
from biaslab.audit import error_report
from biaslab.dgp import DgpSpec, derive_seed, generate
from biaslab.estimators import _LogitLink, _ProbitLink, fit_logit, fit_probit
from biaslab.experiment import (
    DEFAULT_SEED,
    ExperimentCell,
    ExperimentConfig,
    TABLE_BETA,
    TABLE_BETA_POLY,
    TABLE_MIXTURE,
    aggregate,
    run,
)
from biaslab.moments import GroupGaussianSpec, MixtureSpec

from conftest import (
    independent_mixture,
    make_mixture,
    population_ols_limit,
    probit_short_fit_limit,
)
from test_analytic_probit import PHI_REFERENCE

N_PER_GROUP = 10_000
REPLICATIONS = 30


def finish(number, summary, failures):
    status = "FAIL" if failures else "PASS"
    print("\nACCEPTANCE %d %s: %s" % (number, status, summary))
    assert not failures, "; ".join(failures)


def check(failures, ok, label):
    if not ok:
        failures.append(label)


@pytest.fixture(scope="module")
def table_rows():
    """Aggregated rows for the eight closed-form-relevant reference cells."""

    def dgp(family):
        beta = TABLE_BETA_POLY if family == "polynomial" else TABLE_BETA
        return DgpSpec(family=family, beta=beta, mixture=TABLE_MIXTURE, n_per_group=N_PER_GROUP)

    cells = []
    for family, model in (
        ("linear", "ols"),
        ("logit", "logit"),
        ("probit", "probit"),
        ("polynomial", "ols"),
    ):
        for features in ("both", "x1_only"):
            cells.append(ExperimentCell(dgp=dgp(family), model=model, features=features))
    config = ExperimentConfig(
        cells=tuple(cells), replications=REPLICATIONS, base_seed=DEFAULT_SEED
    )
    rows = run(config, keep_reports=True)
    return {(r.dgp, r.model, r.features): r for r in rows}


def test_01_correct_specification_has_no_bias(table_rows):
    failures = []
    worst = 0.0
    for key in (("linear", "ols", "both"), ("probit", "probit", "both"), ("logit", "logit", "both")):
        row = table_rows[key]
        for stat, se in (
            (row.b_pop, row.se_pop),
            (row.b_g0, row.se_g0),
            (row.b_g1, row.se_g1),
            (row.tau, row.se_tau),
        ):
            ratio = abs(stat) / se if se > 0 else (0.0 if stat == 0.0 else math.inf)
            worst = max(worst, ratio)
            check(failures, ratio <= 4.0, "%s stat %.2e exceeds 4 SE (%.2e)" % (key[0], stat, se))
    finish(1, "correct-spec |stat|/SE worst ratio %.2f (limit 4)" % worst, failures)


def test_02_linear_omitted_variable_closed_form(table_rows):
    failures = []
    pred = omitted_group_errors(TABLE_BETA, TABLE_MIXTURE)
    check(failures, abs(pred.b_group0 - 1.0) <= 1e-12, "analytic b_g0 != +1")
    check(failures, abs(pred.b_group1 + 1.0) <= 1e-12, "analytic b_g1 != -1")
    check(failures, abs(pred.tau + 2.0) <= 1e-12, "analytic tau != -2")

    row = table_rows[("linear", "ols", "x1_only")]
    check(failures, abs(abs(row.b_g0) - 1.01) <= 0.05, "|b_g0| %.4f outside 1.01+-0.05" % abs(row.b_g0))
    check(failures, abs(abs(row.b_g1) - 1.01) <= 0.05, "|b_g1| %.4f outside 1.01+-0.05" % abs(row.b_g1))
    check(failures, abs(abs(row.tau) - 2.02) <= 0.10, "|tau| %.4f outside 2.02+-0.10" % abs(row.tau))
    # Signs follow the analytic values under e = prediction - truth (group 0
    # is over-predicted); published magnitudes for this row carry the
    # opposite orientation, so only |.| is compared against them.
    check(failures, row.b_g0 > 0 and row.b_g1 < 0 and row.tau < 0, "empirical signs disagree with the closed form")
    finish(
        2,
        "analytic (%+.3f, %+.3f, %+.3f); empirical (%+.4f, %+.4f, %+.4f)"
        % (pred.b_group0, pred.b_group1, pred.tau, row.b_g0, row.b_g1, row.tau),
        failures,
    )


def test_03_total_probability_and_worst_case(table_rows):
    failures = []
    worst_rel = 0.0
    n_reports = 0
    for row in table_rows.values():
        for rep in row.reports:
            recombined = (
                rep.n_group0 * rep.b_group0 + rep.n_group1 * rep.b_group1
            ) / rep.n_pop
            scale = max(
                (rep.n_group0 * abs(rep.b_group0) + rep.n_group1 * abs(rep.b_group1))
                / rep.n_pop,
                1e-30,
            )
            rel = abs(recombined - rep.b_pop) / scale
            worst_rel = max(worst_rel, rel)
            n_reports += 1
    check(failures, worst_rel <= 1e-9, "recombination error %.2e exceeds 1e-9" % worst_rel)

    pred = omitted_group_errors(TABLE_BETA, TABLE_MIXTURE)
    check(failures, abs(pred.b_group0 + pred.b_group1) <= 1e-12, "analytic mirror fails")
    check(failures, worst_case_check(pred, TABLE_MIXTURE), "analytic worst case fails")
    row = table_rows[("linear", "ols", "x1_only")]
    mirror_gap = abs(row.b_g0 + row.b_g1)
    combined = math.hypot(row.se_g0, row.se_g1)
    check(failures, mirror_gap <= 2.0 * combined, "empirical |b_g0 + b_g1| %.2e > 2 combined SEs %.2e" % (mirror_gap, combined))
    finish(
        3,
        "recombination max rel err %.2e over %d reports; empirical mirror gap %.2e (2 SE = %.2e)"
        % (worst_rel, n_reports, mirror_gap, 2.0 * combined),
        failures,
    )


def test_04_short_probit_coefficient_recovery():
    failures = []
    standard = make_mixture((0.0, 0.0), (0.0, 0.0))
    spec = DgpSpec(family="probit", beta=(-2.0, 1.0, 1.0), mixture=standard, n_per_group=100_000)
    model = fit_probit(generate(spec, seed=derive_seed(DEFAULT_SEED, "short-probit")), "x1_only")
    gamma = omitted_coefficients_probit((-2.0, 1.0, 1.0), mu2=0.0, sigma2=1.0)
    targets = (-2.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    check(failures, abs(gamma[0] - targets[0]) <= 1e-12, "closed form gamma0 off")
    check(failures, abs(gamma[1] - targets[1]) <= 1e-12, "closed form gamma1 off")
    for got, want, name in zip(model.coefficients, targets, ("gamma0", "gamma1")):
        check(failures, abs(got - want) <= 0.03, "%s fit %.4f not within 0.03 of %.4f" % (name, got, want))
    finish(
        4,
        "fitted (%.4f, %.4f) vs (-2, 1, 1)/sqrt(2) targets (%.4f, %.4f) at n=2e5"
        % (model.coefficients[0], model.coefficients[1], *targets),
        failures,
    )


def test_05_probit_group_errors_vs_simulation():
    failures = []
    beta = (-2.0, 1.0, 1.0)
    mixture = independent_mixture()
    pred = omitted_group_errors_probit(beta, mixture)
    for got, want, name in (
        (pred.b_group0, 0.21814856917461349, "b_g0"),
        (pred.b_group1, -0.15774489133042472, "b_g1"),
        (pred.tau, -0.37589346050503821, "tau"),
    ):
        check(failures, abs(got - want) <= 1e-12, "analytic %s %.17g != %.17g" % (name, got, want))
        check(failures, abs(got - round(want, 4)) <= 5e-5, "analytic %s differs from 4-decimal reference" % name)

    spec = DgpSpec(family="probit", beta=(-2.0, 1.0, 1.0), mixture=mixture, n_per_group=200_000)
    dataset = generate(spec, seed=derive_seed(DEFAULT_SEED, "probit-mc"))
    model = fit_probit(dataset, "x1_only")
    from biaslab.estimators import predict

    report = error_report(predict(model, dataset.x1), dataset.y, dataset.a)
    # The closed form plugs the within-group Var(X2) = 1 into its
    # attenuation denominator and is derived for Gaussian X2, but the short
    # model is fitted on the pooled population, where X2 is a two-bump
    # mixture with variance 2. The exact population limit of that fit comes
    # from quadrature over X1 within each group, using
    #
    #     E[Phi(b0 + b1 x + b2 X2) | X1 = x, A = a]
    #         = Phi((b0 + b1 x + b2 mu2a) / sqrt(1 + b2^2 s2a^2)),
    #
    # and a maximised population log-likelihood: gamma = (-0.0034, 0.5671),
    # group errors (+0.1880, -0.1879). The simulated levels are held to the
    # limit, not to the pins. tau is exact in the closed form because both
    # groups share X1's law: E[Phi(g0 + g1 X1) | A = a] is then the same for
    # both groups and cancels from b_1 - b_0, which leaves
    # E[Y | A=0] - E[Y | A=1]. The closed form's levels therefore carry a
    # common shift from the limit's, 0.030 here, as analytic_probit's
    # docstrings state. The run compares such a cell with the population
    # limit, not with the closed form; the shift is asserted so that any
    # change to the closed form shows up here.
    _, limit = probit_short_fit_limit(spec.beta, mixture)
    check(
        failures,
        abs(pred.tau - limit.tau) <= 1e-12,
        "analytic tau %.17g != population-limit tau %.17g" % (pred.tau, limit.tau),
    )
    shift0 = pred.b_group0 - limit.b_group0
    shift1 = pred.b_group1 - limit.b_group1
    check(failures, abs(shift0 - shift1) <= 1e-12, "analytic level shifts %.17g and %.17g differ" % (shift0, shift1))
    check(failures, abs(shift0 - 0.030) <= 5e-4, "analytic level shift %.4f is not 0.030" % shift0)
    gaps = (
        abs(report.b_group0 - limit.b_group0),
        abs(report.b_group1 - limit.b_group1),
        abs(report.tau - pred.tau),
    )
    for gap, name, target in zip(gaps, ("b_g0", "b_g1", "tau"), ("population limit", "population limit", "closed form")):
        check(failures, gap <= 0.02, "MC %s gap %.4f to the %s exceeds 0.02" % (name, gap, target))

    rng = np.random.default_rng(derive_seed(DEFAULT_SEED, "probit-signs"))
    opposite = 0
    trials = 0
    while trials < 100:
        mu2 = rng.uniform(-2.0, 2.0, size=2)
        b = rng.uniform(-2.0, 2.0, size=3)
        if abs(mu2[1] - mu2[0]) < 0.05 or abs(b[2]) < 0.1:
            continue
        var2 = rng.uniform(0.3, 2.0)
        cov = ((rng.uniform(0.3, 2.0), 0.0), (0.0, var2))
        cov_b = ((rng.uniform(0.3, 2.0), 0.0), (0.0, var2))
        spec_r = make_mixture(
            (rng.uniform(-2.0, 2.0), mu2[0]),
            (rng.uniform(-2.0, 2.0), mu2[1]),
            cov0=cov,
            cov1=cov_b,
            weight=rng.uniform(0.1, 0.9),
        )
        p = omitted_group_errors_probit(b, spec_r)
        opposite += p.b_group0 * p.b_group1 <= 0.0
        trials += 1
    check(failures, opposite == 100, "opposite signs in %d/100 random configs" % opposite)
    finish(
        5,
        "analytic (%+.4f, %+.4f, %+.4f); population limit (%+.4f, %+.4f); level shift %.4f; "
        "MC gaps (b_g0, b_g1 to the limit; tau to the closed form) (%.4f, %.4f, %.4f) at n=4e5; "
        "opposite signs %d/100"
        % (pred.b_group0, pred.b_group1, pred.tau, limit.b_group0, limit.b_group1, shift0, *gaps, opposite),
        failures,
    )


def test_06_reference_table_magnitudes(table_rows):
    failures = []
    logit_tau = abs(table_rows[("logit", "logit", "x1_only")].tau)
    probit_tau = abs(table_rows[("probit", "probit", "x1_only")].tau)
    poly_both = table_rows[("polynomial", "ols", "both")]
    poly_x1_tau = abs(table_rows[("polynomial", "ols", "x1_only")].tau)

    check(failures, abs(logit_tau - 0.358) <= 0.05, "logit |tau| %.4f outside 0.358+-0.05" % logit_tau)
    check(failures, abs(probit_tau - 0.449) <= 0.05, "probit |tau| %.4f outside 0.449+-0.05" % probit_tau)
    # The polynomial targets are the published magnitudes, and the
    # configuration the fixture builds, TABLE_BETA_POLY on TABLE_MIXTURE,
    # cannot produce them: its exact population least-squares fit has group
    # errors 0 for both features and tau = -9 for X1 only (derived and
    # checked in test_polynomial_rows_match_the_population_limit). The
    # repository does not hold the paper's polynomial specification, so it
    # cannot say whether TABLE_BETA_POLY or these targets are off. The
    # checks stay as stated and fail until that specification is here.
    check(failures, abs(abs(poly_both.b_g0) - 0.376) <= 0.04, "poly/both |b_g0| %.4f outside 0.376+-0.04" % abs(poly_both.b_g0))
    check(failures, abs(abs(poly_both.b_g1) - 0.376) <= 0.04, "poly/both |b_g1| %.4f outside 0.376+-0.04" % abs(poly_both.b_g1))
    check(failures, abs(abs(poly_both.tau) - 0.752) <= 0.08, "poly/both |tau| %.4f outside 0.752+-0.08" % abs(poly_both.tau))
    check(failures, abs(poly_x1_tau - 2.02) <= 0.10, "poly/x1 |tau| %.4f outside 2.02+-0.10" % poly_x1_tau)
    finish(
        6,
        "logit |tau| %.4f, probit |tau| %.4f, poly/both (|b_g0| %.4f, |tau| %.4f), poly/x1 |tau| %.4f"
        % (logit_tau, probit_tau, abs(poly_both.b_g0), abs(poly_both.tau), poly_x1_tau),
        failures,
    )


def test_polynomial_rows_match_the_population_limit(table_rows):
    # The exact population least-squares fit of TABLE_BETA_POLY on
    # TABLE_MIXTURE. The two-feature fit is Yhat = -2 + 4.5 X2, which meets
    # both group means of Y (2.5 and 11.5) exactly, so every group error is
    # 0. X1 has mean 1 in both groups and its within-group covariances with
    # Y are +3 and -3, so the pooled Cov(X1, Y) is 0 and the X1-only fit
    # predicts the pooled mean 7 in both groups: errors +4.5 and -4.5,
    # tau = -9. The simulated rows are held to these values under the
    # bounds test_06 states for the published magnitudes.
    coef_both, both_limit = population_ols_limit(TABLE_BETA_POLY, TABLE_MIXTURE, "both")
    coef_x1, x1_limit = population_ols_limit(TABLE_BETA_POLY, TABLE_MIXTURE, "x1_only")
    assert coef_both == pytest.approx((-2.0, 0.0, 4.5), abs=1e-9)
    assert coef_x1 == pytest.approx((7.0, 0.0), abs=1e-9)
    assert (x1_limit.b_group0, x1_limit.b_group1, x1_limit.tau) == pytest.approx((4.5, -4.5, -9.0), abs=1e-9)

    poly_both = table_rows[("polynomial", "ols", "both")]
    poly_x1 = table_rows[("polynomial", "ols", "x1_only")]
    for got, want, bound, name in (
        (poly_both.b_g0, both_limit.b_group0, 0.04, "poly/both b_g0"),
        (poly_both.b_g1, both_limit.b_group1, 0.04, "poly/both b_g1"),
        (poly_both.tau, both_limit.tau, 0.08, "poly/both tau"),
        (poly_x1.tau, x1_limit.tau, 0.10, "poly/x1 tau"),
    ):
        assert abs(got - want) <= bound, "%s %+.4f outside %+.4f+-%.2f" % (name, got, want, bound)


def test_07_forest_bias_properties():
    failures = []
    started = time.perf_counter()
    dgp = DgpSpec(family="linear", beta=TABLE_BETA, mixture=TABLE_MIXTURE, n_per_group=N_PER_GROUP)
    config = ExperimentConfig(
        cells=(ExperimentCell(dgp=dgp, model="forest", features="x1_only"),),
        replications=5,
        base_seed=DEFAULT_SEED,
    )
    row = run(config)[0]
    elapsed = time.perf_counter() - started
    check(failures, row.b_g0 * row.b_g1 < 0.0, "group errors not opposite in sign")
    check(failures, abs(row.tau) >= 0.5, "|tau| %.4f below 0.5" % abs(row.tau))
    check(failures, abs(row.b_pop) <= 0.05, "|b_pop| %.4f above 0.05" % abs(row.b_pop))
    check(failures, elapsed <= 120.0, "runtime %.1f s exceeds 120 s" % elapsed)
    finish(
        7,
        "forest b_g0 %+.4f, b_g1 %+.4f, tau %+.4f, b_pop %+.5f in %.1f s"
        % (row.b_g0, row.b_g1, row.tau, row.b_pop, elapsed),
        failures,
    )


def test_08_numerical_kernels():
    failures = []
    cdf_err = max(abs(std_normal_cdf(x) - v) for x, v in PHI_REFERENCE)
    check(failures, cdf_err <= 1e-12, "normal CDF error %.2e on reference points" % cdf_err)

    nodes, weights = np.polynomial.hermite.hermgauss(64)
    rng = np.random.default_rng(derive_seed(DEFAULT_SEED, "quadrature"))
    quad_err = 0.0
    for _ in range(100):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-2.4, 2.4)
        mu = rng.uniform(-2.0, 2.0)
        sigma = rng.uniform(0.1, 1.2)
        quad = float(
            np.sum(weights * std_normal_cdf(a + b * (mu + math.sqrt(2.0) * sigma * nodes)))
            / math.sqrt(math.pi)
        )
        quad_err = max(quad_err, abs(gaussian_cdf_expectation(a, b, mu, sigma) - quad))
    check(failures, quad_err <= 1e-6, "quadrature gap %.2e exceeds 1e-6" % quad_err)

    grad_err = 0.0
    x = np.column_stack([np.ones(300), rng.standard_normal(300), rng.standard_normal(300)])
    z = (rng.random(300) < 0.5).astype(float)
    for link in (_ProbitLink, _LogitLink):
        for coef in ([0.0, 0.0, 0.0], [0.4, -0.3, 0.7], [-1.0, 0.5, 0.2]):
            coef = np.asarray(coef)
            u, _ = link.grad_weights(x @ coef, z)
            grad = x.T @ u
            for j in range(3):
                bump = np.zeros(3)
                bump[j] = 1e-5
                fd = (link.loglik(x @ (coef + bump), z) - link.loglik(x @ (coef - bump), z)) / 2e-5
                grad_err = max(grad_err, abs(grad[j] - fd) / max(abs(fd), 1e-8))
    check(failures, grad_err <= 1e-4, "gradient rel err %.2e exceeds 1e-4" % grad_err)

    monotone = True
    for seed in range(10):
        for family, fit in (("probit", fit_probit), ("logit", fit_logit)):
            spec = DgpSpec(
                family=family, beta=(-1.0, 0.7, 0.4), mixture=TABLE_MIXTURE, n_per_group=1_000
            )
            trace = np.asarray(
                fit(generate(spec, seed=300 + seed), "both").diagnostics.log_likelihood
            )
            # monotone up to the rounding floor of an n-term sum
            floor = -1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
            monotone = monotone and bool(np.all(np.diff(trace) >= floor))
    check(failures, monotone, "log-likelihood decreased during a fit")
    finish(
        8,
        "CDF err %.1e, quadrature err %.1e, gradient rel err %.1e, 20 fits monotone %s"
        % (cdf_err, quad_err, grad_err, monotone),
        failures,
    )


def test_09_determinism(table_rows, tmp_path):
    failures = []
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "biaslab", "table1",
                "--seed", "42", "--replications", "2",
                "--format", "csv", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        check(failures, proc.returncode in (0, 1), "table1 exited %d: %s" % (proc.returncode, proc.stderr))
        outputs.append(out.read_bytes())
    check(failures, outputs[0] == outputs[1], "reruns differ")

    reports = list(table_rows[("linear", "ols", "x1_only")].reports)
    order = np.random.default_rng(0).permutation(len(reports))
    permuted = [reports[i] for i in order]
    check(failures, aggregate(reports) == aggregate(permuted), "aggregation depends on replication order")
    finish(
        9,
        "two table1 runs byte-identical (%d bytes); aggregation invariant under replication permutation"
        % len(outputs[0]),
        failures,
    )
