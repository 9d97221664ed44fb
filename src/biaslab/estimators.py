"""From-scratch model fitting: OLS, probit/logit MLE, CART regression forest.

The maximum-likelihood fits use damped Newton with analytic gradients and
Hessians (step-halving line search, hard iteration cap). A direct call starts
at zero; a grid replication starts at its cell's population limit, the
coefficients ``_population_errors`` fits, which changes only how many steps
the fit takes and where inside its gradient tolerance it stops. One link
evaluation per row and trial point gives the row's log-likelihood term,
slope and curvature, and the information matrix comes from the design's
column products (the intercept makes the first k of them the design itself).
Every pass over a design's rows, in the fits, the ols rank test and
``predict``, reads those products from ``_ProductBlocks``: blocks of
``audit._BLOCK`` rows in one reused buffer, so a fit holds its data and
O(block) more. Row weights let the same loop fit a population, given as
quadrature nodes, for the pseudo-true fits of ``_population_errors``.

The forest is bagged CART with a variance-reduction split criterion. One
pass over a forked process pool grows each tree and scores the training
rows its bootstrap left out, so a forest fit carries its own out-of-bag
scores (Breiman, 1996). A fit sorts each feature once; a tree repeats each
sorted row by its bootstrap count and stably partitions the lists down the
tree. scipy supplies only scalar numerics primitives (normal CDF, log CDF,
logistic), never the fitting itself; they are read through ``_special``,
which loads scipy's compiled ufunc module (not the scipy.special package) on
the first probit or logit call, so ols and forest fits never load it. In the
same way ``multiprocessing`` and the process pool load on the first forest
fit, so a run without a forest never imports them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import _special, audit
from .dgp import _RISK_FUNCTIONS, Dataset, DgpSpec, conditional_mean, derive_seed
from .exceptions import (
    BiaslabError, ConfigError, ConvergenceError, DegenerateVarianceError, RankDeficiencyError,
    SeparationError,
)

FEATURE_SETS = ("both", "x1_only")

_GRAD_TOL = 1e-6
_MAX_ITER = 100
_MAX_HALVINGS = 30
# A full Newton step with index magnitudes beyond this means the likelihood is
# driving the coefficients off to infinity, i.e. (quasi-)separation.
_SEPARATION_INDEX = 30.0
_RANK_TOL = 1e-10
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# The forest's shape: declared, not tuned.
N_TREES = 100
MAX_DEPTH = 8
MIN_LEAF = 5


def _check_forest_rows(n: int) -> None:
    """A forest trains on n rows, which must be at least 2 * MIN_LEAF for its root to split."""
    if n < 2 * MIN_LEAF:
        raise ConfigError(
            "a forest needs at least 2*MIN_LEAF = %d rows, got %d" % (2 * MIN_LEAF, n)
        )


def _check_features(features: str) -> None:
    if features not in FEATURE_SETS:
        raise ConfigError("features must be one of %r, got %r" % (FEATURE_SETS, features))


def _columns(x1, x2, features: str) -> tuple[np.ndarray, ...]:
    """The selected feature columns, (x1,) or (x1, x2), as 1-d float arrays of one shape."""
    _check_features(features)
    x1 = np.asarray(x1, dtype=float)
    if x1.ndim != 1:
        raise ConfigError("feature columns must be 1-d, got x1 of shape %s" % (x1.shape,))
    if features == "x1_only":
        return (x1,)
    if x2 is None:
        raise ConfigError("features='both' requires x2")
    x2 = np.asarray(x2, dtype=float)
    if x2.shape != x1.shape:
        raise ConfigError("x1 and x2 must have the same shape, got %s and %s"
                          % (x1.shape, x2.shape))
    return x1, x2


def _outcome(values, columns: tuple[np.ndarray, ...], name: str, dtype=None) -> np.ndarray:
    """The outcome as an array of the feature columns' shape, else ConfigError."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != columns[0].shape:
        raise ConfigError("%s must have one entry per row: got shape %s for x1 of shape %s"
                          % (name, values.shape, columns[0].shape))
    return values


class _ProductBlocks:
    """The products x_i * x_j (i <= j) of the design's columns, block by block.

    Iterating gives each block of at most ``audit._BLOCK`` rows as its slice
    and a view of one reused (k(k+1)/2, block rows) buffer: one product per
    row, in row-major (i, j) order. As x_0 is 1, the first k rows are the
    block's design, transposed: a row of ones, then the feature columns,
    copied in. ``products=False`` fills those k rows alone, for a pass that
    reads nothing else. Each pass refills the buffer block by block, except
    that a design of one block is filled on the first pass only. The Newton
    fits and ``predict`` take each row's index from ``coef @ rows[:k]``, one
    output of a (k,) @ (k, block) product in a buffer of the same width, so
    where the last block's width is not a multiple of 4, the bits of its tail
    scores depend on ``audit._BLOCK``.
    """

    def __init__(self, columns: tuple[np.ndarray, ...], products: bool = True):
        self.columns = columns
        k = len(columns) + 1
        self.pairs = [(i, j) for i in range(1, k) for j in range(i, k)] if products else []
        self.buffer = np.empty((k + len(self.pairs), min(columns[0].shape[0], audit._BLOCK)))
        self.buffer[0] = 1.0
        self.held = None  # the slice of rows whose products the buffer holds

    def __iter__(self):
        for block in audit._blocks(0, self.columns[0].shape[0]):
            rows = self.buffer[:, : block.stop - block.start]
            if block != self.held:
                for j, column in enumerate(self.columns, 1):
                    rows[j] = column[block]
                for r, (i, j) in enumerate(self.pairs, len(self.columns) + 1):
                    np.multiply(rows[i], rows[j], out=rows[r])
                self.held = block
            yield block, rows


@dataclass(frozen=True)
class FitDiagnostics:
    """Optimizer trace for the MLE families."""

    iterations: int
    grad_max: float
    log_likelihood: tuple[float, ...]


@dataclass(frozen=True)
class Tree:
    """One CART tree in flattened-array form, node 0 the root.

    Internal node i sends a row with feature ``feature[i]`` at most
    ``threshold[i]`` to child ``children[2 * i]`` and any other row, NaN
    included, to ``children[2 * i + 1]``, both later in the arrays. A leaf
    has threshold +inf, feature 0 and itself as both children, so a row
    stays on it; its score is ``value[i]``. ``feature`` is uint8, as
    ``FEATURE_SETS`` has at most two features, and ``children`` the
    smallest unsigned type that holds the 2**(d + 1) - 1 node ids of a tree
    grown to depth d, uint16 at ``MAX_DEPTH`` 8, so a node takes 21 bytes;
    ``threshold`` and ``value`` are float64.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class FittedModel:
    """A fitted predictor: coefficients for ols/probit/logit, trees for forest.

    A forest also carries ``fitted``, the out-of-bag score of each row it
    was fitted to: the mean over the trees whose bootstrap left the row
    out. It differs from ``predict`` on those rows, which averages all
    trees, each row's own outcome included.
    """

    family: str
    features: str
    coefficients: tuple[float, ...] | None = None
    forest: tuple[Tree, ...] | None = None
    diagnostics: FitDiagnostics | None = None
    fitted: np.ndarray | None = None


def fit_ols(data: Dataset, features: str) -> FittedModel:
    """Least squares of y on an intercept plus the selected features.

    Solves the normal equations (``_least_squares``). Full column rank is
    required: at least as many rows as columns, and a smallest/largest
    singular value ratio above 1e-10 (``_singular_values``), else
    RankDeficiencyError. Both read one ``_ProductBlocks``, so a design of
    one block is filled once. A ``y`` of another length than ``x1`` raises
    ConfigError.
    """
    columns = _columns(data.x1, data.x2, features)
    y = _outcome(data.y, columns, "y", dtype=float)
    n, k = columns[0].shape[0], len(columns) + 1
    if n < k:
        raise RankDeficiencyError(
            "design has %d rows for %d columns; least squares is underdetermined" % (n, k)
        )
    blocks = _ProductBlocks(columns)
    sv = _singular_values(blocks)
    if sv[0] == 0.0 or sv[-1] / sv[0] <= _RANK_TOL:
        raise RankDeficiencyError(
            "design matrix is rank deficient (singular value ratio %.3e)"
            % (sv[-1] / sv[0] if sv[0] else 0.0)
        )
    coef = _least_squares(blocks, y)
    return FittedModel(family="ols", features=features, coefficients=tuple(coef))


def _singular_values(blocks: _ProductBlocks) -> np.ndarray:
    """The design's singular values, largest first, from the R factor of each block's QR.

    A block's design is ``rows[:k].T`` of ``_ProductBlocks``. The whole
    design is the block-diagonal matrix of the blocks' Q factors, whose
    columns are orthonormal, times the stacked R factors, so the two share
    their singular values (TSQR: Demmel, Grigori, Hoemmen & Langou 2012).
    """
    k = len(blocks.columns) + 1
    factors = [np.linalg.qr(rows[:k].T, mode="r") for _, rows in blocks]
    return np.linalg.svd(np.vstack(factors), compute_uv=False)


def _signed(values: np.ndarray, z) -> np.ndarray:
    """(2z - 1) * values in one new float array: values where z = 1, -values where z = 0.

    ``z`` may be any 0/1 integer or bool array, or floats; it is widened to
    float here, one block at a time.
    """
    out = np.multiply(z, 2.0)
    out -= 1.0
    out *= values
    return out


class _BernoulliLink:
    """Bernoulli log-likelihood pieces for risk = F(index).

    ``terms(eta, z)`` evaluates each row once, at the signed index
    s = (2z - 1) * eta, and returns the row's log-likelihood term
    L = log F(s), its slope dL/ds and its curvature -d2L/ds2. The gradient
    weight in eta is (2z - 1) * dL/ds; the curvature is the same in eta.
    """

    @classmethod
    def loglik(cls, eta: np.ndarray, z) -> float:
        return float(np.sum(cls.terms(eta, z)[0]))

    @classmethod
    def grad_weights(cls, eta: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
        _, slope, curvature = cls.terms(eta, z)
        return _signed(slope, z), curvature


class _ProbitLink(_BernoulliLink):
    """risk = Phi(index): L = log Phi(s), slope lam = phi(s) / Phi(s), curvature lam (lam + s)."""

    @staticmethod
    def terms(eta: np.ndarray, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = _signed(eta, z)
        ll = _special.log_ndtr(s)
        # lam = exp(log phi(s) - log Phi(s)): no 0/0 where Phi(s) underflows
        lam = s * s
        lam *= -0.5
        lam -= _LOG_SQRT_2PI
        lam -= ll
        np.exp(lam, out=lam)
        s += lam
        s *= lam
        return ll, lam, s


class _LogitLink(_BernoulliLink):
    """risk = S(index): L = log S(s), slope 1 - S(s), curvature S(s) (1 - S(s)).

    With e = exp(-|s|): L = min(s, 0) - log1p(e), the slope is e / (1 + e)
    for s >= 0 and 1 / (1 + e) below, and the curvature is e / (1 + e)^2,
    so nothing cancels.
    """

    @staticmethod
    def terms(eta: np.ndarray, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = _signed(eta, z)
        e = np.exp(-np.abs(s))
        ll = np.minimum(s, 0.0) - np.log1p(e)
        slope = np.where(s >= 0.0, e, 1.0) / (1.0 + e)
        curvature = e / (1.0 + e) / (1.0 + e)
        return ll, slope, curvature


# Cached per k: building the index on each call cost more than the products
# over a population fit's 48 or 1,152 quadrature rows.
@functools.cache
def _product_index(k: int) -> np.ndarray:
    """The k x k matrix of each (i, j)'s row in ``_ProductBlocks``, (j, i) sharing it."""
    i, j = np.triu_indices(k)
    index = np.empty((k, k), dtype=np.intp)
    index[i, j] = index[j, i] = np.arange(i.size)
    index.flags.writeable = False
    return index


def _fsum(vectors: list[np.ndarray]) -> np.ndarray:
    """The exactly rounded sum of equal-length vectors, entry by entry (``math.fsum``)."""
    if len(vectors) == 1:
        return vectors[0]
    return np.array([math.fsum(entry) for entry in np.transpose(vectors).tolist()])


def _least_squares(blocks: _ProductBlocks, y: np.ndarray, weights=None) -> np.ndarray:
    """The solution of x.T W x b = x.T W y, W = diag(weights), by LU with partial pivoting.

    x is the design whose products ``blocks`` gives; ``weights`` None weighs
    every row 1.
    Each block adds its column products times its weights, a (products,
    rows) @ (rows,) product, as the Newton information does: BLAS gives
    each output of such a product to one thread, so the bits do not depend
    on the BLAS thread count (x.T @ x would split its sums over rows between
    threads). The blocks' shares are then summed exactly (``_fsum``).
    """
    k = len(blocks.columns) + 1
    ones = np.ones(min(y.shape[0], audit._BLOCK))
    products, rhs = [], []
    for block, rows in blocks:
        w = ones[: rows.shape[1]] if weights is None else weights[block]
        products.append(rows @ w)
        rhs.append(rows[:k] @ (w * y[block]))
    return np.linalg.solve(_fsum(products)[_product_index(k)], _fsum(rhs))


def _newton_mle(
    columns: tuple[np.ndarray, ...], z: np.ndarray, link, weights=1.0,
    grad_tol: float = _GRAD_TOL, max_index: float = _SEPARATION_INDEX, start=None,
) -> tuple[np.ndarray, FitDiagnostics]:
    """Damped Newton ascent of the Bernoulli log-likelihood, each row weighted.

    The design is x = (1, x1[, x2]) on the feature ``columns``. ``weights``
    multiplies each row's log-likelihood term, slope and curvature in place:
    1.0 for a sample, whose bits it keeps, and a row's probability mass for
    a population (``_population_errors``). Starts at ``start``, k
    coefficients, or at zero where it is None, and returns once the
    gradient's max-norm is at most ``grad_tol`` (1e-6) or the last full
    Newton step is at most 1e-10 * max(1, max|coef|); neither after 100
    steps raises ConvergenceError. The log-likelihood is strictly concave on
    a full-rank design, so any start reaches the same maximum within that
    tolerance; a start near it takes fewer steps. Each step is halved until
    the log-likelihood does not decrease beyond its own rounding floor (relative
    1e-12; the true improvement of a near-optimal step can round away in a
    sum of n terms). A full Newton step, before any halving, whose index
    magnitudes pass ``max_index`` (30) raises SeparationError: the MLE is
    running off to infinity.

    ``link.terms`` runs once per row and trial point, and the accepted
    point's slopes and curvatures give the next gradient and information.
    Each trial point is one pass over ``_ProductBlocks``: a block's index,
    link terms and shares of the three sums, which are then summed exactly
    over the blocks (``_fsum``), so nothing n-sized is held.
    """
    k = len(columns) + 1
    blocks = _ProductBlocks(columns)

    def ascent(coef: np.ndarray, guard=None) -> tuple[float, np.ndarray, np.ndarray]:
        """Log-likelihood, gradient and information at coef from one link evaluation per row.

        ``guard``, the iteration number of a full Newton step, tests each
        block's index against ``max_index`` before its link evaluation.
        """
        ll, grad, products = [], [], []
        for block, rows in blocks:
            eta = coef @ rows[:k]
            if guard is not None and float(np.max(np.abs(eta))) > max_index:
                raise SeparationError(
                    "index magnitudes exceed %g at iteration %d; data appear separable"
                    % (max_index, guard)
                )
            w = weights[block] if isinstance(weights, np.ndarray) else weights
            labels = z[block]
            terms, slope, curvature = link.terms(eta, labels)
            terms *= w
            slope *= w
            curvature *= w
            ll.append(float(np.sum(terms)))
            grad.append(rows[:k] @ _signed(slope, labels))
            products.append(rows @ curvature)
        return math.fsum(ll), _fsum(grad), _fsum(products)[_product_index(k)]

    coef = np.zeros(k) if start is None else np.array(start, dtype=float)
    if coef.shape != (k,):
        raise ConfigError("start needs %d coefficients, got %r" % (k, start))
    step = np.full(k, math.inf)  # no step taken yet
    ll, grad, info = ascent(coef)
    trace = [ll]
    for iteration in range(_MAX_ITER + 1):
        grad_max = float(np.max(np.abs(grad)))
        settled = np.max(np.abs(step)) <= 1e-10 * max(1.0, np.max(np.abs(coef)))
        if grad_max <= grad_tol or settled:
            return coef, FitDiagnostics(
                iterations=iteration, grad_max=grad_max, log_likelihood=tuple(trace)
            )
        if iteration == _MAX_ITER:
            raise ConvergenceError(
                "no convergence after %d iterations (gradient max-norm %.3e)"
                % (_MAX_ITER, grad_max)
            )
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("singular information matrix: %s" % err) from err

        slack = 1e-12 * max(1.0, abs(ll))
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = coef + scale * step
            guard = iteration + 1 if scale == 1.0 else None
            ll_trial, grad_trial, info_trial = ascent(trial, guard)
            if ll_trial >= ll - slack:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "line search failed after %d halvings at iteration %d"
                % (_MAX_HALVINGS, iteration + 1)
            )
        coef, ll, grad, info = trial, ll_trial, grad_trial, info_trial
        trace.append(ll)


def _fit_mle(data: Dataset, features: str, link, family: str, start) -> FittedModel:
    if data.z is None:
        raise ConfigError("classification fit requires a dataset with z labels")
    columns = _columns(data.x1, data.x2, features)
    # The labels stay as given, any 0/1 integers or bools: no float copy of z is made.
    z = _outcome(data.z, columns, "z")
    n1 = audit._count_ones(z, "z labels")
    if n1 == 0 or n1 == z.shape[0]:
        raise SeparationError("all outcomes are the same class; the MLE does not exist")
    coef, diagnostics = _newton_mle(columns, z, link, start=start)
    return FittedModel(
        family=family,
        features=features,
        coefficients=tuple(coef),
        diagnostics=diagnostics,
    )


def fit_probit(data: Dataset, features: str, start=None) -> FittedModel:
    """Probit MLE of z on an intercept plus the selected features.

    Newton starts at the coefficients ``start`` (intercept first), or at
    zero where it is None. A ``z`` of another length than ``x1`` raises
    ConfigError.
    """
    return _fit_mle(data, features, _ProbitLink, "probit", start)


def fit_logit(data: Dataset, features: str, start=None) -> FittedModel:
    """Logit MLE of z on an intercept plus the selected features; ``start`` as for probit."""
    return _fit_mle(data, features, _LogitLink, "logit", start)


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """24 Gauss-Hermite nodes t and weights w for T ~ N(0, 1), E[f(T)] = w @ f(t).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    probabilists' Hermite polynomials, the weights the squared first
    components of its eigenvectors. Built once; both arrays are read-only.
    """
    s = np.sqrt(np.arange(1.0, 24.0))
    t, v = np.linalg.eigh(np.diag(s, 1) + np.diag(s, -1))
    w = v[0] ** 2
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _population_errors(
    spec: DgpSpec, model: str, features: str
) -> tuple[tuple[float, float], tuple[float, ...]]:
    """Group mean errors and coefficients of the limit of fit_<model> on ever more rows of spec.

    That limit, the pseudo-true fit (White 1982), fits the model to E[Y | X]
    over the mixture, by a tensor Gauss-Hermite rule through each group's
    Cholesky factor: X1 = m1 + l11 t1, X2 = m2 + l21 t1 + l22 t2. For a probit
    outcome on X1 alone, E[Phi(h) | t1] = Phi(h(X1, m2 + l21 t1) / hypot(1, b2 l22))
    replaces the t2 axis. ols solves the weighted normal equations. probit and
    logit fit the nodes as a weighted sample with ``_newton_mle``: each node is
    a z = 1 row of mass w r and a z = 0 row of mass w (1 - r) at risk r. That
    fit stops on its step test alone, since a gradient tolerance depends on
    the features' scale, and has no index guard, since the outer nodes sit
    8.5 sd out. A singular population covariance of the features raises
    DegenerateVarianceError.
    """
    t, w = _hermite_rule()
    t1, t2 = t, 0.0 * t
    one_axis = spec.family == "probit" and features == "x1_only"
    if not one_axis:
        t1, t2, w = np.repeat(t, t.size), np.tile(t, t.size), np.outer(w, w).ravel()
    x1, x2, y = [], [], []
    for g in spec.mixture.groups:
        (l11, _), (l21, l22) = g.cholesky()
        x1.append(g.mean[0] + l11 * t1)
        x2.append(g.mean[1] + l21 * t1 + l22 * t2)
        scale = math.hypot(1.0, spec.beta[2] * float(l22)) if one_axis else 1.0
        y.append(conditional_mean(spec.family, np.divide(spec.beta, scale), x1[-1], x2[-1]))
    x1, x2, y = np.concatenate(x1), np.concatenate(x2), np.concatenate(y)
    wts = np.concatenate([p * w for p in spec.mixture.weights])
    columns = _columns(x1, x2, features)
    f = np.column_stack(columns)
    f = f - wts @ f
    smallest = np.linalg.eigvalsh(f.T @ (f * wts[:, None]))[0]
    if smallest <= 1e-12:
        raise DegenerateVarianceError("Var(X1) = %r; the features' population covariance "
                                      "has eigenvalue %r" % (wts @ f[:, 0] ** 2, smallest))
    if model == "ols":
        coef = _least_squares(_ProductBlocks(columns), y, wts)
    else:
        link = _ProbitLink if model == "probit" else _LogitLink
        z = np.repeat([1.0, 0.0], y.shape[0])
        mass = np.concatenate([wts * y, wts * (1.0 - y)])
        doubled = tuple(np.concatenate([c, c]) for c in columns)
        coef, _ = _newton_mle(doubled, z, link, mass, grad_tol=0.0, max_index=math.inf)
    fitted = FittedModel(family=model, features=features, coefficients=tuple(coef))
    gap0, gap1 = np.split(predict(fitted, x1, x2) - y, 2)
    return (float(w @ gap0), float(w @ gap1)), fitted.coefficients


def _presort(xmat: np.ndarray) -> np.ndarray:
    """Each feature's row ids in (value, row id) order: one stable argsort per feature."""
    return np.argsort(xmat.T, axis=1, kind="stable")


def _grow_tree(
    xmat: np.ndarray,
    order: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    max_depth: int,
    min_leaf: int,
) -> Tree:
    """CART regression tree: greedy variance-reduction splits, depth-capped.

    The sample is ``counts[j]`` copies of training row j (features
    ``xmat[j]``, outcome ``y[j]``); ``order`` is ``_presort(xmat)``.

    A split's gain is ls^2/k + rs^2/(m-k) for left and right sums ls, rs
    of k and m-k rows: the node's sum of squares, which is the same for
    every split, less the children's summed squared deviations. Each node
    scores every (feature, left size) pair in one pass and takes the first
    maximum: ties go to the lower feature, then the smaller left
    child. The threshold is the midpoint of the two values the split falls
    between, or the lower one where the midpoint rounds up to the upper,
    so the applied split is always the scored one.

    The root's list for each feature repeats each presorted row id by its
    count, so it is in (value, training row id) order. A split passes each
    child its side of every sorted list, in the parent's order (a stable
    partition by one reused "goes left" array over the training rows;
    copies of a row are identical, so they go the same way), so every
    node's lists keep that order. The root's value sums y over the sample
    in training-row order.
    """
    n_features, n = order.shape
    order = np.repeat(order.ravel(), counts[order].ravel()).reshape(n_features, -1)
    xs = np.take_along_axis(xmat.T, order, axis=1)
    goes_left = np.zeros(n, dtype=bool)
    sizes = np.arange(order.shape[1] + 1, dtype=float)  # sizes[k] == k, a float divisor
    nodes = [[0, np.inf, 0, 0, 0.0]]  # feature, threshold, left, right, value: a leaf
    # node, its y; the parent's sorted lists and this node's mask of them
    stack = [(0, np.repeat(y, counts), order, xs, None, 0)]
    while stack:
        node, yr, order, xs, keep, depth = stack.pop()
        m = yr.shape[0]
        nodes[node][4] = float(np.add.reduce(yr) / m)  # np.mean's arithmetic
        if depth >= max_depth or m < 2 * min_leaf or yr.min() == yr.max():
            continue
        if keep is not None:
            order, xs = (a[keep].reshape(n_features, m) for a in (order, xs))
        ys = y[order]
        csum = np.cumsum(ys, axis=1)
        hi = m - min_leaf
        ls = csum[:, min_leaf - 1 : hi]
        rs = csum[:, -1:] - ls
        # left sizes k run up from min_leaf, right sizes m - k down from hi
        gain = ls * ls / sizes[min_leaf : hi + 1] + rs * rs / sizes[hi : min_leaf - 1 : -1]
        gain = np.where(xs[:, min_leaf - 1 : hi] < xs[:, min_leaf : hi + 1], gain, -np.inf)
        f, i = divmod(int(np.argmax(gain)), gain.shape[1])
        if gain[f, i] == -np.inf:
            continue
        i += min_leaf
        below, above = float(xs[f, i - 1]), float(xs[f, i])
        thr = 0.5 * (below + above)
        if not thr < above:  # adjacent floats: the midpoint rounded up
            thr = below
        goes_left[order[f, :i]] = True
        keep = goes_left[order]
        goes_left[order[f, :i]] = False
        lid, rid = len(nodes), len(nodes) + 1
        nodes[node][:4] = f, thr, lid, rid
        nodes += [[0, np.inf, lid, lid, 0.0], [0, np.inf, rid, rid, 0.0]]
        stack.append((lid, ys[f, :i], order, xs, keep, depth + 1))
        stack.append((rid, ys[f, i:], order, xs, ~keep, depth + 1))

    feature, threshold, left, right, value = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.uint8),
        threshold=np.array(threshold, dtype=float),
        # node ids run to 2**(max_depth + 1) - 2
        children=np.array([left, right], np.min_scalar_type(2 ** (max_depth + 1) - 2)).T.ravel(),
        value=np.array(value, dtype=float),
    )


_worker_inputs = None  # set once in each pool worker, never in the calling process


def _set_worker_inputs(inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _fit_tree(t: int) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow tree t on its bootstrap sample and score the rows it left out.

    Returns the tree, the ids of its out-of-bag training rows and their
    scores. The ids are int32, as a generated dataset has at most
    2 * ``MAX_N_PER_GROUP`` < 2**31 rows, which shrinks what the worker
    sends back.
    """
    x, y, order, seed = _worker_inputs
    n = y.shape[0]
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "tree", t)))
    counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
    tree = _grow_tree(x, order, y, counts, MAX_DEPTH, MIN_LEAF)
    oob = np.flatnonzero(counts == 0)
    return tree, oob.astype(np.int32), _tree_predict(tree, x[oob])


def fit_forest(data: Dataset, features: str, seed: int = 0) -> FittedModel:
    """Bagged CART regression forest for y, deterministic given the seed.

    Each tree trains on a full-size bootstrap resample drawn from its own
    counter-derived substream, so the ensemble is identical regardless of
    the order trees are built in or the number of workers building them.
    The trees grow on a pool of forked workers, one per usable core (at
    most one per tree), which inherit the rows and their presort.

    The worker that grows a tree also scores the rows its bootstrap left
    out. ``fitted`` holds each row's out-of-bag score: its scores summed in
    tree order over the number of trees that left it out, a count kept in
    the smallest unsigned type that holds ``N_TREES``. A row that every
    tree drew raises BiaslabError, and a ``y`` of another length than ``x1``
    ConfigError.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    columns = _columns(data.x1, data.x2, features)
    y = _outcome(data.y, columns, "y", dtype=float)
    # trees do not use an intercept
    x = np.column_stack(columns)
    n = y.shape[0]
    _check_forest_rows(n)
    trees, total, oob_trees = [], np.zeros(n), np.zeros(n, dtype=np.min_scalar_type(N_TREES))
    with ProcessPoolExecutor(
        min(len(os.sched_getaffinity(0)), N_TREES),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_worker_inputs,
        initargs=((x, y, _presort(x), seed),),
    ) as pool:
        for tree, oob, scores in pool.map(_fit_tree, range(N_TREES)):
            trees.append(tree)
            total[oob] += scores
            oob_trees[oob] += 1
    if not oob_trees.all():
        raise BiaslabError(
            "%d of %d rows are in every tree's bootstrap and have no out-of-bag score"
            % (np.count_nonzero(oob_trees == 0), n)
        )
    return FittedModel(
        family="forest", features=features, forest=tuple(trees), fitted=total / oob_trees
    )


def _tree_predict(tree: Tree, xmat: np.ndarray) -> np.ndarray:
    """One tree's score for each row of ``xmat``, every row one level per step.

    A leaf is stored as its own two children, so all rows take the same
    step: read the node's feature from the flattened rows and move to child
    ``2 * node + (went right)``. A NaN feature fails ``<=`` and goes right.
    The walk stops once every row sits on a leaf (threshold +inf), so any
    depth is handled.
    """
    flat = xmat.ravel()  # a copy unless xmat is C-contiguous
    row_start = np.arange(0, flat.shape[0], xmat.shape[1])
    # gathers through narrow index arrays are slower: widen the tree's once
    feature, children = tree.feature.astype(np.intp), tree.children.astype(np.intp)
    idx = np.zeros(xmat.shape[0], dtype=np.intp)
    threshold = tree.threshold[idx]
    while not (threshold == np.inf).all():
        xv = flat[row_start + feature[idx]]
        idx = children[2 * idx + ~(xv <= threshold)]
        threshold = tree.threshold[idx]
    return tree.value[idx]


def predict(model: FittedModel, x1, x2=None) -> np.ndarray:
    """Score rows with a fitted model.

    ols and forest return real-valued scores; probit returns Phi(index)
    and logit returns S(index), both in [0, 1]. ``x2`` may be omitted for
    x1_only models.

    A forest's score is its trees' scores, summed serially in tree order,
    over the tree count: for two or more rows bit-identical to numpy's
    axis-0 mean of the stacked scores, which for one row sums pairwise
    (last bit). On the training rows this is the in-sample score; the
    out-of-bag one is the model's ``fitted``. The other families take each
    block's index as ``coef @ rows[:k]`` of ``_ProductBlocks``, the
    expression the Newton fits compute, filling the k design rows alone,
    and apply the link in place.
    """
    columns = _columns(x1, x2, model.features)
    if model.family == "forest":
        xmat = np.column_stack(columns)
        total = _tree_predict(model.forest[0], xmat)
        for tree in model.forest[1:]:
            total += _tree_predict(tree, xmat)
        return total / len(model.forest)
    if model.family not in ("ols", *_RISK_FUNCTIONS):
        raise ConfigError("unknown model family %r" % (model.family,))
    coef = np.asarray(model.coefficients, dtype=float)
    index = np.empty(columns[0].shape[0])
    for block, rows in _ProductBlocks(columns, products=False):
        np.matmul(coef, rows, out=index[block])
    if model.family in _RISK_FUNCTIONS:
        return getattr(_special, _RISK_FUNCTIONS[model.family])(index, out=index)
    return index
