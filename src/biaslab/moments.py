"""Two-group Gaussian feature mixtures and their exact moments.

Every closed form downstream consumes the first and second moments of the
feature distribution, either pooled over the population or conditional on
the group label. This module holds the distribution specs and computes
those moments exactly via the laws of total expectation and covariance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidCovarianceError


def _real(name: str, value) -> float:
    """value as a float; anything but a real number (a bool, a string) is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a real number, got %r" % (name, value))
    return float(value)


def _reals(name: str, values) -> tuple[float, ...]:
    """A list or tuple of reals, each by the rule of :func:`_real`."""
    if not isinstance(values, (list, tuple)):
        raise ValueError("%s must be a list of real numbers, got %r" % (name, values))
    return tuple(_real(name, v) for v in values)


@dataclass(frozen=True)
class GroupGaussianSpec:
    """Bivariate normal feature distribution for one group.

    Parameters
    ----------
    mean : tuple of 2 floats
        (E[X1|A=a], E[X2|A=a]).
    covariance : 2x2 nested tuple of floats
        Within-group covariance of (X1, X2); valid iff symmetric and
        :meth:`cholesky`, the factor the simulator draws with, exists.
    """

    mean: tuple[float, float]
    covariance: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        mean = _reals("mean", self.mean)
        cov = tuple(_reals("covariance row", row) for row in self.covariance)
        if len(mean) != 2 or len(cov) != 2 or any(len(row) != 2 for row in cov):
            raise InvalidCovarianceError("mean must be a 2-vector and covariance 2x2")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        entries = mean + cov[0] + cov[1]
        if not all(math.isfinite(v) for v in entries):
            raise InvalidCovarianceError("mean and covariance entries must be finite")
        if cov[0][1] != cov[1][0]:
            raise InvalidCovarianceError(
                "covariance must be symmetric, got off-diagonal %r != %r"
                % (cov[0][1], cov[1][0])
            )
        self.cholesky()

    def mean_array(self) -> np.ndarray:
        return np.array(self.mean, dtype=float)

    def cholesky(self) -> np.ndarray:
        """Explicit lower Cholesky factor; InvalidCovarianceError where none exists.

        Needs Var(X1) >= 0 (|Cov| <= 1e-12 where it is 0) and a Schur
        complement Var(X2) - l21^2 >= -1e-10, whose rounding dust is clipped.
        """
        (s11, s12), (_, s22) = self.covariance
        if s11 < 0:
            raise InvalidCovarianceError("Var(X1) is negative: %r" % s11)
        l11 = math.sqrt(s11)
        if l11 > 0:
            l21 = s12 / l11
        elif abs(s12) <= 1e-12:
            l21 = 0.0
        else:
            raise InvalidCovarianceError("degenerate X1 with nonzero covariance %r" % s12)
        rest = s22 - l21 * l21
        if rest < -1e-10:
            raise InvalidCovarianceError("covariance is not PSD (Schur complement %r)" % rest)
        return np.array([[l11, 0.0], [l21, math.sqrt(max(rest, 0.0))]])


@dataclass(frozen=True)
class MixtureSpec:
    """Two-group population: feature distributions plus group weights.

    ``groups[0]`` is the A=0 distribution, ``groups[1]`` the A=1
    (protected) distribution; ``weight_protected`` is Pr(A=1).
    """

    groups: tuple[GroupGaussianSpec, GroupGaussianSpec]
    weight_protected: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        weight = _real("weight_protected", self.weight_protected)
        object.__setattr__(self, "weight_protected", weight)
        if len(self.groups) != 2:
            raise InvalidCovarianceError("exactly two groups are supported")
        if not 0.0 <= self.weight_protected <= 1.0:
            raise InvalidCovarianceError(
                "weight_protected must lie in [0, 1], got %r" % self.weight_protected
            )

    @property
    def weights(self) -> tuple[float, float]:
        """(Pr(A=0), Pr(A=1))."""
        return (1.0 - self.weight_protected, self.weight_protected)


@dataclass(frozen=True)
class MomentSummary:
    """First and second moments of (X1, X2) for one distribution."""

    e_x1: float
    e_x2: float
    e_x1_sq: float
    e_x2_sq: float
    e_x1x2: float
    var_x1: float
    var_x2: float
    cov_x1x2: float


def _summary_from(e_x1, e_x2, e_x1_sq, e_x2_sq, e_x1x2) -> MomentSummary:
    return MomentSummary(
        e_x1=e_x1,
        e_x2=e_x2,
        e_x1_sq=e_x1_sq,
        e_x2_sq=e_x2_sq,
        e_x1x2=e_x1x2,
        var_x1=e_x1_sq - e_x1 * e_x1,
        var_x2=e_x2_sq - e_x2 * e_x2,
        cov_x1x2=e_x1x2 - e_x1 * e_x2,
    )


def group_moments(spec: MixtureSpec, a: int) -> MomentSummary:
    """Moments of a single mixture component.

    Parameters
    ----------
    spec : MixtureSpec
    a : int
        Group label, 0 or 1.
    """
    if a not in (0, 1):
        raise ValueError("group label must be 0 or 1, got %r" % (a,))
    g = spec.groups[a]
    m1, m2 = g.mean
    c = g.covariance
    return _summary_from(
        e_x1=m1,
        e_x2=m2,
        e_x1_sq=c[0][0] + m1 * m1,
        e_x2_sq=c[1][1] + m2 * m2,
        e_x1x2=c[0][1] + m1 * m2,
    )


def pooled_moments(spec: MixtureSpec) -> MomentSummary:
    """Exact population moments of the two-group mixture.

    E[X_k] and E[X_j X_k] are probability-weighted component moments
    (law of total expectation); variances and the covariance follow from
    the raw moments, which is the law of total covariance in raw form.
    """
    p0, p1 = spec.weights
    g0 = group_moments(spec, 0)
    g1 = group_moments(spec, 1)
    return _summary_from(
        e_x1=p0 * g0.e_x1 + p1 * g1.e_x1,
        e_x2=p0 * g0.e_x2 + p1 * g1.e_x2,
        e_x1_sq=p0 * g0.e_x1_sq + p1 * g1.e_x1_sq,
        e_x2_sq=p0 * g0.e_x2_sq + p1 * g1.e_x2_sq,
        e_x1x2=p0 * g0.e_x1x2 + p1 * g1.e_x1x2,
    )
