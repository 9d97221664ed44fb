"""Group-level error statistics and their z-scores against an analytic prediction.

The audited quantity is always e = prediction - truth, where truth is the
regression outcome or, for classification, the true risk probability
(never the Bernoulli draw: scoring against the draw would mix irreducible
label noise into the model's error). Means and standard deviations are
computed with exactly rounded sums (``_label_totals``) of the errors and of
their squared deviations, each square a correctly rounded numpy product,
so a report is bit-identical under any permutation of its input rows and
the weighted group means recombine to the population mean at machine
precision. ``compare`` only scores; the verdict is decided in one place,
``experiment.run_cell``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic_linear import GroupErrorPrediction
from .exceptions import ConfigError, EmptyGroupError


@dataclass(frozen=True)
class ErrorReport(GroupErrorPrediction):
    """Mean error by population and group, with Monte Carlo standard errors and row counts."""

    se_pop: float
    se_group0: float
    se_group1: float
    se_tau: float
    n_pop: int
    n_group0: int
    n_group1: int


# Each audited statistic and the ErrorReport field holding its standard error.
_SE_OF = {"b_pop": "se_pop", "b_group0": "se_group0", "b_group1": "se_group1", "tau": "se_tau"}


def mean_se(values) -> tuple[float, float]:
    """Exactly rounded mean and its standard error std(ddof=1) / sqrt(n), 0 for n = 1.

    The squared deviations are correctly rounded numpy products, summed
    exactly like the values. Where a value is inf or nan the mean is IEEE's
    sum of the non-finite values (inf, -inf or nan) over n; a finite exact
    sum outside the float range reads as nan instead of an exception. The
    standard error is nan wherever a squared deviation is not finite, so
    huge errors read as non-finite statistics.
    """
    return column_mean_se(np.asarray(values, dtype=float)[:, None])[0]


def column_mean_se(table) -> list[tuple[float, float]]:
    """``mean_se`` of each column of a 2-d table, all columns in the same two exact-sum passes."""
    table = np.asarray(table, dtype=float)
    n, m = table.shape
    labels = np.tile(np.arange(m), n)
    means = [_rounded(total) / n for total in _label_totals([(table.ravel(), labels)], m)]
    with np.errstate(over="ignore", invalid="ignore"):
        squares = table - np.array(means)
        squares *= squares
    return list(zip(means, _standard_errors([n] * m, [(squares.ravel(), labels)])))


def _standard_errors(counts, squares) -> list[float]:
    """Each label's std(ddof=1) / sqrt(n), from its values' squared deviations from their mean.

    ``squares`` yields (squares, labels) array pairs, as ``_label_totals``
    takes them, and every label's squares are summed exactly in that one
    pass. The result is 0 for n = 1 and nan where the sum is not finite.
    """
    out = []
    for n, total in zip(counts, _label_totals(squares, len(counts))):
        var = _rounded(total) / (n - 1) if n > 1 else 0.0
        # A square that overflowed is inf here, and its sum is out of range.
        out.append(math.sqrt(var / n) if math.isfinite(var) else math.nan)
    return out


# Rows per numpy pass, small enough that its buffers (64 KB of floats) stay
# in cache: 16,384 terms made error_report slower at 20,000 rows. Every pass
# over a replication's rows (data generation, fits, predictions, audits)
# works on blocks of this many rows, so none holds n-sized temporaries.
_BLOCK = 1 << 13
# Terms per set of bins: a bin stays exact up to 2**26 terms, as each adds
# an integer of at most 2**27.
_BIN_TERMS = 1 << 26
# frexp's exponents of finite floats run from -1073 to 1024.
_EXPONENTS = 2098


def _blocks(start: int, stop: int):
    """The slices of at most ``_BLOCK`` rows that cover rows start to stop, in order."""
    return (slice(i, min(i + _BLOCK, stop)) for i in range(start, stop, _BLOCK))


def _label_totals(pairs, n_labels: int) -> list:
    """Each label's exact sum of its values, for integer labels 0 to n_labels - 1.

    ``pairs`` yields (values, labels) arrays of equal length, so a caller
    can stream its terms block by block. A label's total is an int, its sum
    in units of 2**-1126, or, where the label has an inf or nan value,
    IEEE's sum of those values (inf, -inf or nan). Each term splits into two
    integer limbs that are added per (binary exponent, label) bin (Neal,
    "Fast exact summation using small and large superaccumulators", 2015),
    so one pass sums every label; the nonzero bins then join into one
    Python int per label.
    """
    special, totals = {}, [0] * n_labels
    bins, binned = np.zeros((2, _EXPONENTS * n_labels)), 0
    for all_values, all_labels in pairs:
        for block in _blocks(0, all_values.shape[0]):
            values, labels = all_values[block], all_labels[block]
            finite = np.isfinite(values)
            if not finite.all():
                for label in np.unique(labels[~finite]).tolist():
                    inf_nan = sum(values[~finite & (labels == label)].tolist())
                    special[label] = special.get(label, 0.0) + inf_nan
                values, labels = values[finite], labels[finite]
            if not values.shape[0]:
                continue
            if binned + values.shape[0] > _BIN_TERMS:
                _join_bins(bins, totals)
                bins, binned = np.zeros_like(bins), 0
            binned += values.shape[0]
            lo, expo = np.frexp(values)
            lo *= 2.0**27  # the term is lo * 2**(expo - 27)
            hi = np.floor(lo)  # |hi| <= 2**27
            lo -= hi  # 0 <= lo < 1, a multiple of 2**-26
            first = int(expo.min())
            key = (expo - first) * n_labels + labels
            offset = (first + 1073) * n_labels
            for row, limb in zip(bins, (hi, lo)):
                add = np.bincount(key, weights=limb)
                row[offset : offset + add.shape[0]] += add
    _join_bins(bins, totals)
    return [special.get(label, total) for label, total in enumerate(totals)]


def _join_bins(bins: np.ndarray, totals: list) -> None:
    """Add ``_label_totals``' (hi, lo) limb bins into each label's int total."""
    n_labels = len(totals)
    his, los = bins
    # Bin b holds multiples of 2**(expo - 53), expo = b // n_labels - 1073.
    # Counted in units of 2**-1126 (frexp's least exponent is -1073) it
    # shifts by b // n_labels.
    nonzero = np.flatnonzero((his != 0.0) | (los != 0.0))
    for b, h, l in zip(nonzero.tolist(), his[nonzero].tolist(), los[nonzero].tolist()):
        shift, label = divmod(b, n_labels)
        totals[label] += ((int(h) << 26) + int(l * 2.0**26)) << shift


def _rounded(total) -> float:
    """A ``_label_totals`` total as a float: exactly rounded, nan outside the float range."""
    if isinstance(total, float):
        return total
    try:
        return total / (1 << 1126)
    except OverflowError:
        return math.nan


def _exact_sum(values: np.ndarray) -> float:
    """The exactly rounded sum of a 1-d float array, in any order.

    The one-label case of ``_label_totals``. A term that is inf or nan gives
    IEEE's sum of those terms (inf, -inf or nan), and an exact sum outside
    the float range gives nan.
    """
    (total,) = _label_totals([(values, np.zeros(values.shape[0], dtype=np.uint8))], 1)
    return _rounded(total)


def _checked_labels(labels: np.ndarray, name: str) -> np.ndarray:
    """A block of 0/1 labels as uint8; ConfigError names the first other label."""
    in1 = labels == 1
    stray = ~(in1 | (labels == 0))
    if stray.any():
        raise ConfigError("%s must be 0 or 1, got %r" % (name, labels[stray][0]))
    return in1.view(np.uint8)


def _count_ones(labels: np.ndarray, name: str) -> int:
    """The number of 1s among 0/1 labels, block by block; ConfigError names any other label."""
    return sum(
        int(np.count_nonzero(_checked_labels(labels[block], name)))
        for block in _blocks(0, labels.shape[0])
    )


def error_report(predictions, truths, groups) -> ErrorReport:
    """Audit predictions against truths, split by the 0/1 group labels.

    Two exact-sum passes make the report, each streaming the rows in
    blocks of ``_BLOCK``. The first checks and counts each block's labels
    and sums each group's errors; the population's exact sum is theirs
    added. The second sums the squared deviations of each group's errors
    from its mean and of all the errors from the population mean, under
    labels 0, 1 and 2.

    Raises ConfigError if the inputs are not 1-d arrays of equal length or
    a label is not 0 or 1, and EmptyGroupError if either group has no rows.
    """
    predictions = np.asarray(predictions, dtype=float)
    truths = np.asarray(truths, dtype=float)
    groups = np.asarray(groups)
    if not predictions.shape == truths.shape == groups.shape == (groups.size,):
        raise ConfigError("predictions, truths and groups must be 1-d, of equal length")
    n, n1 = groups.shape[0], 0

    def errors():
        """Each block's errors and their group labels as uint8, checked and counted."""
        nonlocal n1
        for block in _blocks(0, n):
            labels = _checked_labels(groups[block], "group labels")
            n1 += int(np.count_nonzero(labels))
            yield predictions[block] - truths[block], labels

    total0, total1 = _label_totals(errors(), 2)
    if n1 == 0 or n1 == n:
        raise EmptyGroupError("both groups must be nonempty, got sizes %d and %d" % (n - n1, n1))
    # A non-finite total decides the population's, as in _exact_sum.
    special = [t for t in (total0, total1) if isinstance(t, float)]
    total = sum(special) if special else total0 + total1
    counts = (n - n1, n1, n)
    b0, b1, b_pop = (_rounded(t) / c for t, c in zip((total0, total1, total), counts))
    deviations = np.empty((2, min(n, _BLOCK)))
    labelled = np.full((2, min(n, _BLOCK)), 2, np.uint8)

    def squares():
        """Each block's squared deviations from its group's mean (label 0 or 1), then from the
        population's (label 2), in one array."""
        for block in _blocks(0, n):
            e = predictions[block] - truths[block]
            labels = groups[block] == 1
            d, d_labels = deviations[:, : e.shape[0]], labelled[:, : e.shape[0]]
            np.subtract(e, np.where(labels, b1, b0), out=d[0])
            np.subtract(e, b_pop, out=d[1])
            d *= d
            d_labels[0] = labels
            yield d.ravel(), d_labels.ravel()

    with np.errstate(over="ignore", invalid="ignore"):
        se0, se1, se_pop = _standard_errors(counts, squares())
    return ErrorReport(
        b_pop=b_pop,
        b_group0=b0,
        b_group1=b1,
        tau=b1 - b0,
        se_pop=se_pop,
        se_group0=se0,
        se_group1=se1,
        se_tau=math.hypot(se0, se1),
        n_pop=n,
        n_group0=n - n1,
        n_group1=n1,
    )


def compare(analytic: GroupErrorPrediction, empirical: ErrorReport) -> dict[str, float]:
    """Z-score of each statistic, (empirical - analytic) / SE, by name.

    The analytic value is the population limit of the fit, so no slack is
    added to the SE. A zero SE gives z = 0 where the two values agree
    exactly and inf otherwise.
    """
    z_scores = {}
    for name, se in _SE_OF.items():
        denom = getattr(empirical, se)
        diff = getattr(empirical, name) - getattr(analytic, name)
        if denom == 0.0:
            z_scores[name] = 0.0 if diff == 0.0 else math.inf
        else:
            z_scores[name] = diff / denom
    return z_scores
