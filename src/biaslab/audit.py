"""Group-level error statistics and their z-scores against an analytic prediction.

The audited quantity is always e = prediction - truth, where truth is the
regression outcome or, for classification, the true risk probability
(never the Bernoulli draw: scoring against the draw would mix irreducible
label noise into the model's error). Means and standard deviations are
computed with exactly rounded sums (``_exact_sum``) of the errors and of
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
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    mean = _exact_sum(values) / n
    if n < 2:
        return mean, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        dev = values - mean
        squares = dev * dev
    var = _exact_sum(squares) / (n - 1)
    # A square that overflowed is inf here, and its sum is out of range.
    return mean, math.sqrt(var / n) if math.isfinite(var) else math.nan


# Terms per numpy pass, small enough that its buffers stay in cache. A bin
# stays exact up to 2**26 terms, as each adds an integer of at most 2**27.
_BLOCK = 1 << 14


def _exact_sum(values: np.ndarray) -> float:
    """The exactly rounded sum of a 1-d float array, in any order.

    A term that is inf or nan gives IEEE's sum of those terms (inf, -inf or
    nan), and an exact sum outside the float range gives nan. Each term
    splits into two integer limbs that are added per binary exponent (Neal,
    "Fast exact summation using small and large superaccumulators", 2015);
    the bins join into one Python int, whose true division rounds correctly.
    """
    finite = np.isfinite(values)
    if not finite.all():
        return sum(values[~finite].tolist())
    total = 0
    for start in range(0, values.shape[0], _BLOCK):
        lo, expo = np.frexp(values[start : start + _BLOCK])
        lo *= 2.0**27  # the term is lo * 2**(expo - 27)
        hi = np.floor(lo)  # |hi| <= 2**27
        lo -= hi  # 0 <= lo < 1, a multiple of 2**-26
        first = expo.min()
        expo -= first
        his = np.bincount(expo, weights=hi).tolist()
        los = np.bincount(expo, weights=lo).tolist()
        # A bin holds multiples of 2**(expo - 53). Counted in units of
        # 2**-1126 (frexp's least exponent is -1073) it shifts by expo + 1073.
        for shift, (h, l) in enumerate(zip(his, los), int(first) + 1073):
            total += ((int(h) << 26) + int(l * 2.0**26)) << shift
    try:
        return total / (1 << 1126)
    except OverflowError:
        return math.nan


def error_report(predictions, truths, groups) -> ErrorReport:
    """Audit predictions against truths, split by the 0/1 group labels.

    Raises ConfigError if the lengths differ or a label is not 0 or 1, and
    EmptyGroupError if either group has no rows.
    """
    predictions = np.asarray(predictions, dtype=float)
    truths = np.asarray(truths, dtype=float)
    groups = np.asarray(groups)
    if not predictions.shape == truths.shape == groups.shape:
        raise ConfigError("predictions, truths and groups must have equal length")
    in1 = groups == 1
    stray = ~(in1 | (groups == 0))
    if stray.any():
        raise ConfigError("group labels must be 0 or 1, got %r" % (groups[stray][0],))
    e = predictions - truths
    e0, e1 = e[~in1], e[in1]
    if e0.shape[0] == 0 or e1.shape[0] == 0:
        raise EmptyGroupError(
            "both groups must be nonempty, got sizes %d and %d"
            % (e0.shape[0], e1.shape[0])
        )
    b_pop, se_pop = mean_se(e)
    b0, se0 = mean_se(e0)
    b1, se1 = mean_se(e1)
    return ErrorReport(
        b_pop=b_pop,
        b_group0=b0,
        b_group1=b1,
        tau=b1 - b0,
        se_pop=se_pop,
        se_group0=se0,
        se_group1=se1,
        se_tau=math.hypot(se0, se1),
        n_pop=e.shape[0],
        n_group0=e0.shape[0],
        n_group1=e1.shape[0],
    )


def compare(
    analytic: GroupErrorPrediction,
    empirical: ErrorReport,
    extra_tolerance: float = 0.0,
) -> dict[str, float]:
    """Z-score of each statistic, (empirical - analytic) / denom, by name.

    denom is the statistic's SE with ``extra_tolerance`` added in
    quadrature; the extra term absorbs known approximation error in the
    analytic value (zero by default). A zero denom gives z = 0 where the
    two values agree exactly and inf otherwise.
    """
    z_scores = {}
    for name, se in _SE_OF.items():
        denom = math.hypot(getattr(empirical, se), extra_tolerance)
        diff = getattr(empirical, name) - getattr(analytic, name)
        if denom == 0.0:
            z_scores[name] = 0.0 if diff == 0.0 else math.inf
        else:
            z_scores[name] = diff / denom
    return z_scores
