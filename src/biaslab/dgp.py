"""Seeded synthetic data: group labels, Gaussian features, four outcome families.

Generation is a pure function of (spec, seed). Randomness comes from numpy's
Philox bit generator, a counter-based generator whose streams are cheap to
derive and independent by construction; normal variates use numpy's ziggurat
sampler. Seeds for replications, trees and other substreams are derived with
:func:`derive_seed` (base XOR blake2b-64 of the tags), so every substream is
reproducible and independent of execution order.

Group labels are deterministic: of the ``2 * n_per_group`` rows, the last
``round(2 * n_per_group * weight_protected)`` are A=1 and the rest A=0. Fixed
group sizes match the simulation design and remove one source of variance.

For classification families the stored ``y`` is the true risk Phi(index) or
S(index) with no added noise, and ``z`` is the Bernoulli(y) draw; prediction
errors are always measured against the risk, which only a simulation can
observe.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtr

from .exceptions import ConfigError
from .moments import MixtureSpec, _reals

FAMILIES = ("linear", "polynomial", "probit", "logit")
REGRESSION_FAMILIES = ("linear", "polynomial")
CLASSIFICATION_FAMILIES = ("probit", "logit")

_BETA_LENGTH = {"linear": 3, "polynomial": 6, "probit": 3, "logit": 3}
_SEED_MASK = (1 << 64) - 1
# 100x the largest reference workload; far larger draws fail in numpy's allocator.
MAX_N_PER_GROUP = 10_000_000


def _count(name: str, value, minimum=-math.inf, maximum=math.inf) -> int:
    """value as an int; a bool, a fraction or a value out of range is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    if not minimum <= value <= maximum:
        raise ConfigError("%s must lie in [%s, %s], got %d" % (name, minimum, maximum, value))
    return int(value)


def derive_seed(base_seed: int, *tags) -> int:
    """Derive an independent 64-bit substream seed from a base seed and tags.

    Implemented as base XOR blake2b-64 of the rendered tags, so derived
    seeds are stable across platforms and runs.
    """
    label = ":".join(repr(t) for t in tags).encode()
    h = hashlib.blake2b(label, digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(h, "big")) & _SEED_MASK


@dataclass(frozen=True)
class DgpSpec:
    """One data generating process: outcome family, coefficients, features.

    Parameters
    ----------
    family : str
        One of linear, polynomial, probit, logit.
    beta : tuple of floats
        (b0, b1, b2) for linear/probit/logit; (b0..b5) for polynomial,
        where b3, b4, b5 multiply X1^2, X2^2, X1*X2.
    mixture : MixtureSpec
        Group-conditional feature distributions and weights.
    n_per_group : int
        Half the row count, at most ``MAX_N_PER_GROUP``: ``2 * n_per_group``
        rows are drawn and split between the groups by the mixture's
        ``weight_protected``; a split that leaves either group fewer than two
        rows, which a standard error needs, raises ConfigError.
    """

    family: str
    beta: tuple[float, ...]
    mixture: MixtureSpec
    n_per_group: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError("unknown family %r, expected one of %r" % (self.family, FAMILIES))
        beta = _reals("beta", self.beta)
        object.__setattr__(self, "beta", beta)
        want = _BETA_LENGTH[self.family]
        if len(beta) != want:
            raise ConfigError(
                "family %r needs %d coefficients, got %d" % (self.family, want, len(beta))
            )
        if not all(math.isfinite(b) for b in beta):
            raise ConfigError("beta entries must be finite")
        n = _count("n_per_group", self.n_per_group, 1, MAX_N_PER_GROUP)
        object.__setattr__(self, "n_per_group", n)
        if min(self.group_sizes) < 2:
            sizes = self.group_sizes
            raise ConfigError("a group has under two rows: group sizes %d and %d" % sizes)

    @property
    def group_sizes(self) -> tuple[int, int]:
        """Rows per draw in groups 0 and 1; group 1 gets round(2 * n_per_group * weight)."""
        n = 2 * self.n_per_group
        n_protected = round(n * self.mixture.weight_protected)
        return n - n_protected, n_protected


@dataclass
class Dataset:
    """Columnar simulated data.

    ``y`` is the regression outcome or the classification true risk;
    ``z`` is the Bernoulli(y) label for classification and None otherwise.
    """

    x1: np.ndarray
    x2: np.ndarray
    a: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = field(default=None)

    @property
    def n(self) -> int:
        return self.x1.shape[0]


def conditional_mean(family: str, beta, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """E[Y | X1, X2]: the regression mean, or the probit or logit risk."""
    h = beta[0] + beta[1] * x1 + beta[2] * x2
    if family == "polynomial":
        h = h + beta[3] * x1 * x1 + beta[4] * x2 * x2 + beta[5] * x1 * x2
    if family == "probit":
        return ndtr(h)
    if family == "logit":
        return expit(h)
    return h


def generate(spec: DgpSpec, seed: int) -> Dataset:
    """Simulate 2 * n_per_group rows: group 0's, then group 1's.

    Group 1 gets round(2 * n_per_group * weight_protected) rows, so the
    sample's group shares follow the mixture's weights.

    Features come from each group's bivariate normal via an explicit 2x2
    Cholesky factor; regression outcomes add N(0,1) noise; classification
    outcomes store the exact risk in ``y`` and a Bernoulli draw in ``z``.
    Identical (spec, seed) gives a bit-identical Dataset.
    """
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _SEED_MASK))
    n = 2 * spec.n_per_group
    sizes = spec.group_sizes
    parts = []
    for g, size in zip(spec.mixture.groups, sizes):
        standard = rng.standard_normal((size, 2))
        parts.append(standard @ g.cholesky().T + g.mean_array())
    features = np.vstack(parts)
    x1 = features[:, 0].copy()
    x2 = features[:, 1].copy()
    a = np.repeat(np.array([0, 1], dtype=np.int64), sizes)

    y = conditional_mean(spec.family, spec.beta, x1, x2)
    if spec.family in REGRESSION_FAMILIES:
        return Dataset(x1=x1, x2=x2, a=a, y=y + rng.standard_normal(n), z=None)
    z = (rng.random(n) < y).astype(np.int64)
    return Dataset(x1=x1, x2=x2, a=a, y=y, z=z)
