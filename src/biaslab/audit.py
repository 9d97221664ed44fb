"""Group-level error statistics and analytic-vs-empirical comparison.

The audited quantity is always e = prediction - truth, where truth is the
regression outcome or, for classification, the true risk probability
(never the Bernoulli draw: scoring against the draw would mix irreducible
label noise into the model's error). Means and standard deviations are
computed with exactly rounded summation (math.fsum), so a report is
bit-identical under any permutation of its input rows and the weighted
group means recombine to the population mean at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic_linear import GroupErrorPrediction
from .exceptions import EmptyGroupError


@dataclass(frozen=True)
class ErrorReport:
    """Mean error by population and group, with Monte Carlo standard errors."""

    b_pop: float
    b_group0: float
    b_group1: float
    tau: float
    se_pop: float
    se_group0: float
    se_group1: float
    se_tau: float
    n_pop: int
    n_group0: int
    n_group1: int


@dataclass(frozen=True)
class Comparison:
    """Z-scores of empirical statistics against an analytic prediction."""

    analytic: GroupErrorPrediction
    empirical: ErrorReport
    z_scores: dict[str, float]
    verdicts: dict[str, str]
    z_threshold: float

    @property
    def consistent(self) -> bool:
        return all(v == "consistent" for v in self.verdicts.values())


def mean_se(values) -> tuple[float, float]:
    """Exactly rounded mean and its standard error std(ddof=1) / sqrt(n), 0 for n = 1."""
    values = np.asarray(values, dtype=float).tolist()
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def error_report(predictions, truths, groups) -> ErrorReport:
    """Audit predictions against truths, split by the 0/1 group labels.

    Raises EmptyGroupError if either group has no rows.
    """
    predictions = np.asarray(predictions, dtype=float)
    truths = np.asarray(truths, dtype=float)
    groups = np.asarray(groups)
    if not predictions.shape == truths.shape == groups.shape:
        raise ValueError("predictions, truths and groups must have equal length")
    e = predictions - truths
    in1 = groups == 1
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
    z_threshold: float = 4.0,
    extra_tolerance: float = 0.0,
) -> Comparison:
    """Score each statistic as (empirical - analytic) / denom.

    denom is the statistic's SE with ``extra_tolerance`` added in
    quadrature; the extra term absorbs known approximation error in the
    analytic value (zero by default). A statistic is consistent iff
    |z| <= z_threshold, which for an exact-zero analytic value reduces to
    |empirical| <= z_threshold * denom.
    """
    pairs = {
        "b_pop": (empirical.b_pop, analytic.b_pop, empirical.se_pop),
        "b_group0": (empirical.b_group0, analytic.b_group0, empirical.se_group0),
        "b_group1": (empirical.b_group1, analytic.b_group1, empirical.se_group1),
        "tau": (empirical.tau, analytic.tau, empirical.se_tau),
    }
    z_scores, verdicts = {}, {}
    for name, (emp, ana, se) in pairs.items():
        denom = math.hypot(se, extra_tolerance)
        diff = emp - ana
        if denom == 0.0:
            z = 0.0 if diff == 0.0 else math.inf
        else:
            z = diff / denom
        z_scores[name] = z
        verdicts[name] = "consistent" if abs(z) <= z_threshold else "inconsistent"
    return Comparison(
        analytic=analytic,
        empirical=empirical,
        z_scores=z_scores,
        verdicts=verdicts,
        z_threshold=z_threshold,
    )
