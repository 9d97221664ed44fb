"""Group error reports and analytic-vs-empirical comparisons."""

import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from biaslab import audit
from biaslab.analytic_linear import GroupErrorPrediction
from biaslab.audit import _exact_sum, compare, error_report, mean_se
from biaslab.exceptions import EmptyGroupError

ZERO = GroupErrorPrediction(0.0, 0.0, 0.0, 0.0)


def test_hand_computed_report():
    report = error_report([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0], [0, 0, 1, 1])
    assert report.b_group0 == 1.5
    assert report.b_group1 == 3.5
    assert report.b_pop == 2.5
    assert report.tau == 2.0
    assert report.se_group0 == pytest.approx(0.5, abs=1e-15)
    assert report.se_group1 == pytest.approx(0.5, abs=1e-15)
    assert report.se_tau == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert report.se_pop == pytest.approx(math.sqrt(5.0 / 12.0), abs=1e-15)
    assert (report.n_pop, report.n_group0, report.n_group1) == (4, 2, 2)


def test_error_sign_convention():
    # e = prediction - truth: over-prediction is positive.
    report = error_report([2.0, 2.0], [1.0, 3.0], [0, 1])
    assert report.b_group0 == 1.0
    assert report.b_group1 == -1.0


def test_report_is_permutation_invariant():
    rng = np.random.default_rng(123)
    predictions = rng.standard_normal(1001)
    truths = rng.standard_normal(1001)
    groups = (rng.random(1001) < 0.4).astype(int)
    base = error_report(predictions, truths, groups)
    perm = rng.permutation(1001)
    shuffled = error_report(predictions[perm], truths[perm], groups[perm])
    # Exactly rounded sums are order-independent.
    assert base == shuffled


def test_group_weighted_means_recombine():
    rng = np.random.default_rng(321)
    report = error_report(
        rng.standard_normal(500), rng.standard_normal(500), (rng.random(500) < 0.3).astype(int)
    )
    recombined = (
        report.n_group0 * report.b_group0 + report.n_group1 * report.b_group1
    ) / report.n_pop
    assert report.b_pop == pytest.approx(recombined, abs=1e-12)
    assert report.tau == report.b_group1 - report.b_group0
    assert report.se_tau == math.hypot(report.se_group0, report.se_group1)


def test_flipping_predictions_flips_means_not_spreads():
    rng = np.random.default_rng(777)
    p = rng.standard_normal(200)
    t = rng.standard_normal(200)
    g = (rng.random(200) < 0.5).astype(int)
    plain = error_report(p, t, g)
    flipped = error_report(-p, -t, g)
    assert flipped.b_group0 == pytest.approx(-plain.b_group0, abs=1e-12)
    assert flipped.tau == pytest.approx(-plain.tau, abs=1e-12)
    assert flipped.se_group0 == pytest.approx(plain.se_group0, abs=1e-12)


def test_single_row_group_has_zero_se():
    report = error_report([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [0, 0, 1])
    assert report.se_group1 == 0.0
    assert report.se_tau == report.se_group0


@pytest.mark.parametrize(
    "values,mean",
    [([1e200, -1e200], 0.0), ([1e308, 1e308], math.nan), ([math.inf, -math.inf], math.nan)],
)
def test_mean_se_reads_out_of_range_sums_as_nan(values, mean):
    got_mean, got_se = mean_se(values)
    assert np.array_equal([got_mean, got_se], [mean, math.nan], equal_nan=True)


@pytest.mark.parametrize("values", sorted(set(itertools.permutations([1e308, 1e308, -1e308]))))
def test_mean_se_is_permutation_invariant_near_the_float_range(values):
    # An intermediate overflow in one order is no reason for nan: the exact sum is 1e308.
    got_mean, got_se = mean_se(list(values))
    assert got_mean == 1e308 / 3
    assert math.isnan(got_se)


def same_bits(a, b):
    """Equal floats with equal signs, or both nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def rational_sum(values):
    """The exactly rounded sum, by rational arithmetic; nan outside the float range."""
    try:
        return float(sum(map(Fraction, values.tolist())))
    except OverflowError:
        return math.nan


@st.composite
def summands(draw):
    """Finite arrays of a few or a thousand terms, any exponent, some terms cancelled."""
    size = draw(st.one_of(st.integers(1, 60), st.integers(1000, 2000)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(np.float64, size, elements=finite, fill=st.nothing()))
    cancelled = draw(st.integers(0, size))
    return np.concatenate([values, -values[:cancelled]])


@given(summands(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_exact_sum_is_the_exactly_rounded_sum(values, seed):
    want = rational_sum(values)
    got = _exact_sum(values)
    assert same_bits(got, want)
    try:
        fsum = math.fsum(values.tolist())
    except OverflowError:
        pass  # an intermediate overflow: the rational sum decides
    else:
        assert same_bits(got, fsum)
    shuffled = values[np.random.default_rng(seed).permutation(values.shape[0])]
    assert same_bits(_exact_sum(shuffled), got)
    with pytest.MonkeyPatch.context() as patch:
        # Blocks of 7 terms: the bins of many blocks join into one sum.
        patch.setattr(audit, "_BLOCK", 7)
        assert same_bits(_exact_sum(shuffled), want)


@pytest.mark.parametrize(
    "specials, want",
    [
        ([math.inf], math.inf),
        ([-math.inf], -math.inf),
        ([math.inf, math.inf], math.inf),
        ([math.inf, -math.inf], math.nan),
        ([math.nan], math.nan),
        ([math.nan, math.inf], math.nan),
    ],
)
@pytest.mark.parametrize("finite", [1.0, 1e308])
def test_exact_sum_of_non_finite_terms(specials, want, finite):
    # The non-finite terms decide, even where the finite ones overflow.
    values = np.full(4, finite)
    values[1 : 1 + len(specials)] = specials
    assert same_bits(_exact_sum(values), want)
    assert same_bits(_exact_sum(values[::-1]), want)


@pytest.mark.parametrize("size", [3, 4])
def test_exact_sum_out_of_the_float_range_is_nan(size):
    assert math.isnan(_exact_sum(np.full(size, 1e308)))
    assert math.isnan(_exact_sum(np.full(size, -1e308)))
    near = np.full(size, 1e308)
    near[1::2] = -1e308
    assert _exact_sum(near) == (1e308 if size % 2 else 0.0)


def exact_mean_se(values):
    """mean_se from exact rational sums: each square is d * d correctly rounded."""
    n = len(values)
    mean = float(sum(map(Fraction, values))) / n
    if n < 2:
        return mean, 0.0
    squares = [float(Fraction(v - mean) ** 2) for v in values]
    var = float(sum(map(Fraction, squares))) / (n - 1)
    return mean, math.sqrt(var / n)


@given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=40), st.data())
@settings(max_examples=300)
def test_mean_se_matches_exact_rational_sums(values, data):
    got = mean_se(values)
    assert got == exact_mean_se(values)
    assert mean_se(data.draw(st.permutations(values))) == got


def test_empty_group_rejected():
    with pytest.raises(EmptyGroupError):
        error_report([1.0, 2.0], [0.0, 0.0], [0, 0])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        error_report([1.0, 2.0], [0.0], [0, 1])


@pytest.mark.parametrize("label", [2, -1, 0.5, math.nan])
def test_stray_group_labels_rejected(label):
    with pytest.raises(ValueError, match="0 or 1"):
        error_report([1.0, 2.0, 3.0, 4.0], [0.0] * 4, [0, 1, label, 1])


def make_report(b_pop, b0, b1, se_pop, se0, se1):
    from biaslab.audit import ErrorReport

    return ErrorReport(
        b_pop=b_pop,
        b_group0=b0,
        b_group1=b1,
        tau=b1 - b0,
        se_pop=se_pop,
        se_group0=se0,
        se_group1=se1,
        se_tau=math.hypot(se0, se1),
        n_pop=200,
        n_group0=100,
        n_group1=100,
    )


def test_compare_z_scores_and_verdicts():
    # compare only scores; run_cell reads each |z| against z_threshold.
    empirical = make_report(0.0, 0.5, 0.0, 0.1, 0.1, 0.1)
    z = compare(ZERO, empirical)
    assert list(z) == ["b_pop", "b_group0", "b_group1", "tau"]
    assert z["b_group0"] == pytest.approx(5.0)
    assert z["b_pop"] == z["b_group1"] == 0.0


def test_compare_handles_zero_denominators():
    exact = make_report(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert compare(ZERO, exact) == {"b_pop": 0.0, "b_group0": 0.0, "b_group1": 0.0, "tau": 0.0}
    off = make_report(0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
    z = compare(ZERO, off)
    assert z["b_pop"] == math.inf
    assert z["b_group0"] == 0.0


def test_compare_is_signed():
    empirical = make_report(0.0, -0.5, 0.5, 0.1, 0.1, 0.1)
    z = compare(ZERO, empirical)
    assert z["b_group0"] == pytest.approx(-5.0)
    assert z["b_group1"] == pytest.approx(5.0)
    assert z["tau"] == pytest.approx(1.0 / math.hypot(0.1, 0.1))
