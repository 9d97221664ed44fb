"""Group error reports: exact sums, means and standard errors."""

import dataclasses
import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays

from biaslab import audit
from biaslab.audit import _exact_sum, column_mean_se, error_report
from biaslab.exceptions import ConfigError, EmptyGroupError


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
    ((got_mean, got_se),) = column_mean_se(np.reshape(values, (-1, 1)))
    assert np.array_equal([got_mean, got_se], [mean, math.nan], equal_nan=True)


@pytest.mark.parametrize("values", sorted(set(itertools.permutations([1e308, 1e308, -1e308]))))
def test_mean_se_is_permutation_invariant_near_the_float_range(values):
    # An intermediate overflow in one order is no reason for nan: the exact sum is 1e308.
    ((got_mean, got_se),) = column_mean_se(np.reshape(values, (-1, 1)))
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
    """Finite arrays of a few or a thousand terms, any exponent, some terms cancelled.

    A few terms are drawn one by one. A thousand are made by numpy from a
    few drawn terms and a drawn seed: each entry is a random one of the
    terms with a random sign, scaled by a random power of two within a drawn
    spread of exponents (2,100 reaches any exponent), so Hypothesis's input
    stays within its entropy limit (its data_too_large health check).
    """
    size = draw(st.one_of(st.integers(1, 60), st.integers(1000, 2000)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if size <= 60:
        values = draw(arrays(np.float64, size, elements=finite, fill=st.nothing()))
    else:
        terms = np.array(draw(st.lists(finite, min_size=1, max_size=8)))
        spread = draw(st.integers(0, 2100))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mantissas, exponents = np.frexp(terms[rng.integers(0, terms.shape[0], size)])
        exponents = exponents + rng.integers(-spread, spread + 1, size)
        # frexp's exponents of finite floats run from -1073 to 1024
        values = np.ldexp(mantissas * rng.choice([-1.0, 1.0], size),
                          np.clip(exponents, -1073, 1024))
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
    """A column's mean and SE from exact rational sums: each square is d * d correctly rounded."""
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
    (got,) = column_mean_se(np.reshape(values, (-1, 1)))
    assert got == exact_mean_se(values)
    permuted = data.draw(st.permutations(values))
    assert column_mean_se(np.reshape(permuted, (-1, 1))) == [got]


@pytest.mark.parametrize("block", [7, audit._BLOCK])
@pytest.mark.parametrize("size,scale", [(2, 1.0), (61, 1e-12), (5000, 1e3), (20001, 1.0)])
def test_report_is_mean_se_of_each_group_and_the_population(size, scale, block, monkeypatch):
    # The two labelled passes give what one exact sum per statistic gives.
    monkeypatch.setattr(audit, "_BLOCK", block)
    rng = np.random.default_rng(size)
    predictions = scale * rng.standard_normal(size)
    truths = predictions + scale * 1e-9 * rng.standard_normal(size)  # near-total cancellation
    groups = (rng.random(size) < 0.4).astype(int)
    groups[:2] = 0, 1
    e = predictions - truths
    report = error_report(predictions, truths, groups)
    for (mean, se), rows in (
        ((report.b_pop, report.se_pop), e),
        ((report.b_group0, report.se_group0), e[groups == 0]),
        ((report.b_group1, report.se_group1), e[groups == 1]),
    ):
        ((want_mean, want_se),) = column_mean_se(rows[:, None])
        assert same_bits(mean, want_mean) and same_bits(se, want_se)


@pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [0, 1])
def test_a_non_finite_error_decides_its_group_and_the_population(special, where):
    predictions = np.arange(6.0)
    predictions[3 * where] = special
    groups = np.repeat([0, 1], 3)
    report = error_report(predictions, np.zeros(6), groups)
    other = report.b_group1 if where == 0 else report.b_group0
    assert same_bits(report.b_group1 if where else report.b_group0, special / 3)
    assert same_bits(report.b_pop, special / 6)
    assert other == (4.0 if where == 0 else 1.0)


@pytest.mark.parametrize("special", [math.inf, -math.inf])
def test_a_prediction_equal_to_its_infinite_truth_is_a_silent_nan(special):
    # inf - inf is nan, with no RuntimeWarning (an error under this suite's
    # filter): the statistics it reaches are non-finite, so run_cell makes
    # the replication an error row.
    predictions, truths = np.arange(6.0), np.zeros(6)
    predictions[1] = truths[1] = special
    report = error_report(predictions, truths, np.repeat([0, 1], 3))
    assert math.isnan(report.b_pop)
    assert math.isnan(report.b_group0)
    assert math.isnan(report.tau)
    assert report.b_group1 == 4.0


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


@pytest.mark.parametrize("block", [1000, 8192])
@pytest.mark.parametrize("bin_terms", [1, 7, 1000, 20_000])
def test_bins_joined_early_give_the_same_sums(bin_terms, block, monkeypatch):
    # _label_totals joins its bins into the int totals once _BIN_TERMS terms are
    # binned, 2**26 by default, which no workload reaches: joining after every
    # block, or after a few, changes no bit.
    rng = np.random.default_rng(30_000)
    size = 30_000

    def terms():
        """Terms of either sign whose magnitudes run from e**-30 to e**30."""
        return rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-30.0, 30.0, size))

    values, truths = terms(), terms()
    groups = (rng.random(size) < 0.4).astype(np.uint8)
    infinite = values.copy()
    infinite[[3, 20_003]] = math.inf, -math.inf

    def sums():
        (column,) = column_mean_se(values[:, None])
        return _exact_sum(values), column, error_report(values, truths, groups)

    want = sums()
    monkeypatch.setattr(audit, "_BIN_TERMS", bin_terms)
    monkeypatch.setattr(audit, "_BLOCK", block)
    got = sums()
    assert same_bits(got[0], want[0])
    assert all(map(same_bits, got[1], want[1]))
    assert all(map(same_bits, dataclasses.astuple(got[2]), dataclasses.astuple(want[2])))
    assert math.isnan(_exact_sum(infinite))


@pytest.mark.parametrize("block", [7, audit._BLOCK])
def test_uint8_bool_and_int64_labels_give_the_same_report(block, monkeypatch):
    # Every label dtype is compared with 0 and 1 in the first pass. Strays and
    # empty groups are refused alike, after earlier blocks.
    monkeypatch.setattr(audit, "_BLOCK", block)
    rng = np.random.default_rng(31)
    predictions, truths = rng.standard_normal(50), rng.standard_normal(50)
    groups = rng.random(50) < 0.3
    dtypes = (np.int64, np.uint8, bool)
    reports = [dataclasses.astuple(error_report(predictions, truths, groups.astype(t)))
               for t in dtypes]
    assert repr(reports[1]) == repr(reports[2]) == repr(reports[0])
    for dtype, shown in ((np.int64, "np.int64(2)"), (np.uint8, "np.uint8(2)")):
        stray = groups.astype(dtype)
        stray[[20, 33]] = 2, 3
        with pytest.raises(ConfigError) as refused:
            error_report(predictions, truths, stray)
        assert str(refused.value) == "group labels must be 0 or 1, got " + shown
    for dtype in dtypes:
        for label, sizes in ((0, "50 and 0"), (1, "0 and 50")):
            with pytest.raises(EmptyGroupError) as refused:
                error_report(predictions, truths, np.full(50, label, dtype))
            assert str(refused.value) == "both groups must be nonempty, got sizes " + sizes
