"""From-scratch model fitting: OLS, probit/logit MLE, CART regression forest.

The maximum-likelihood fits use damped Newton with analytic gradients and
Hessians (start at zero, step-halving line search, hard iteration cap); the
forest is bagged CART with a variance-reduction split criterion. One pass
over a forked process pool grows each tree and scores the training rows
its bootstrap left out, so a forest fit carries its own out-of-bag scores
(Breiman, 1996). A fit sorts each feature once; a tree repeats each sorted
row by its bootstrap count and stably partitions the lists down the tree.
scipy supplies only scalar numerics primitives (normal CDF, log CDF,
logistic), never the fitting itself.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtr

from .dgp import Dataset, DgpSpec, conditional_mean, derive_seed
from .exceptions import (
    BiaslabError, ConfigError, ConvergenceError, DegenerateVarianceError, RankDeficiencyError,
    SeparationError,
)

FEATURE_SETS = ("both", "x1_only")

_GRAD_TOL = 1e-6
_MAX_ITER = 100
_MAX_HALVINGS = 30
# Accepted index magnitudes beyond this mean the likelihood is driving the
# coefficients off to infinity, i.e. (quasi-)separation.
_SEPARATION_INDEX = 30.0
_RANK_TOL = 1e-10
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# The forest's shape: declared, not tuned.
N_TREES = 100
MAX_DEPTH = 8
MIN_LEAF = 5


def _check_features(features: str) -> None:
    if features not in FEATURE_SETS:
        raise ConfigError("features must be one of %r, got %r" % (FEATURE_SETS, features))


def _design(x1: np.ndarray, x2: np.ndarray | None, features: str) -> np.ndarray:
    _check_features(features)
    x1 = np.asarray(x1, dtype=float)
    if features == "x1_only":
        return np.column_stack([np.ones_like(x1), x1])
    if x2 is None:
        raise ConfigError("features='both' requires x2")
    return np.column_stack([np.ones_like(x1), x1, np.asarray(x2, dtype=float)])


@dataclass(frozen=True)
class FitDiagnostics:
    """Optimizer trace for the MLE families."""

    iterations: int
    grad_max: float
    log_likelihood: tuple[float, ...]


@dataclass(frozen=True)
class Tree:
    """One CART tree in flattened-array form; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
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

    Solves the normal equations by LU factorization with partial pivoting.
    Full column rank is required: at least as many rows as columns, and a
    smallest/largest singular value ratio above 1e-10, else
    RankDeficiencyError.
    """
    x = _design(data.x1, data.x2, features)
    if x.shape[0] < x.shape[1]:
        raise RankDeficiencyError(
            "design has %d rows for %d columns; least squares is underdetermined" % x.shape
        )
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] <= _RANK_TOL:
        raise RankDeficiencyError(
            "design matrix is rank deficient (singular value ratio %.3e)"
            % (sv[-1] / sv[0] if sv[0] else 0.0)
        )
    coef = np.linalg.solve(x.T @ x, x.T @ np.asarray(data.y, dtype=float))
    return FittedModel(family="ols", features=features, coefficients=tuple(coef))


def _mills(t: np.ndarray) -> np.ndarray:
    """phi(t) / Phi(t), guarded for large |t| where the direct ratio is 0/0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    direct = np.abs(t) <= 8.0
    td = t[direct]
    out[direct] = np.exp(-0.5 * td * td - _LOG_SQRT_2PI) / ndtr(td)
    tg = t[~direct]
    out[~direct] = np.exp(-0.5 * tg * tg - _LOG_SQRT_2PI - log_ndtr(tg))
    return out


class _ProbitLink:
    """Bernoulli log-likelihood pieces for risk = Phi(index).

    Each row's terms are evaluated once, at the signed index s = (2z - 1) * eta.
    """

    @staticmethod
    def loglik(eta: np.ndarray, z, weights=1.0) -> float:
        return float(np.sum(weights * log_ndtr((2.0 * z - 1.0) * eta)))

    @staticmethod
    def grad_weights(eta: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sign = 2.0 * z - 1.0
        s = sign * eta
        lam = _mills(s)
        return sign * lam, lam * (lam + s)


class _LogitLink:
    """Bernoulli log-likelihood pieces for risk = S(index)."""

    @staticmethod
    def loglik(eta: np.ndarray, z, weights=1.0) -> float:
        return float(-np.sum(weights * np.logaddexp(0.0, (1.0 - 2.0 * z) * eta)))

    @staticmethod
    def grad_weights(eta: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = expit(eta)
        return z - p, p * (1.0 - p)


def _newton_mle(x: np.ndarray, z: np.ndarray, link) -> tuple[np.ndarray, FitDiagnostics]:
    """Damped Newton ascent of the Bernoulli log-likelihood.

    Starts at zero and checks the gradient before each step: a max-norm
    <= 1e-6 returns, and a gradient still above it after 100 steps raises
    ConvergenceError. Each step is halved until the log-likelihood does
    not decrease beyond its own rounding floor (relative 1e-12; the true
    improvement of a near-optimal step can round away in a sum of n
    terms). Accepted iterates whose index magnitudes pass 30 raise
    SeparationError (the MLE is running off to infinity).
    """
    if z.min() == z.max():
        raise SeparationError("all outcomes are the same class; the MLE does not exist")
    coef = np.zeros(x.shape[1])
    eta = x @ coef
    ll = link.loglik(eta, z)
    trace = [ll]
    for iteration in range(_MAX_ITER + 1):
        u, w = link.grad_weights(eta, z)
        grad = x.T @ u
        grad_max = float(np.max(np.abs(grad)))
        if grad_max <= _GRAD_TOL:
            return coef, FitDiagnostics(
                iterations=iteration, grad_max=grad_max, log_likelihood=tuple(trace)
            )
        if iteration == _MAX_ITER:
            raise ConvergenceError(
                "no convergence after %d iterations (gradient max-norm %.3e)"
                % (_MAX_ITER, grad_max)
            )
        info = x.T @ (x * w[:, None])
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError("singular information matrix: %s" % err) from err

        trial = coef + step
        eta_trial = x @ trial
        if float(np.max(np.abs(eta_trial))) > _SEPARATION_INDEX:
            raise SeparationError(
                "index magnitudes exceed %g at iteration %d; data appear separable"
                % (_SEPARATION_INDEX, iteration + 1)
            )

        slack = 1e-12 * max(1.0, abs(ll))
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            ll_trial = link.loglik(eta_trial, z)
            if ll_trial >= ll - slack:
                break
            scale *= 0.5
            trial = coef + scale * step
            eta_trial = x @ trial
        else:
            raise ConvergenceError(
                "line search failed after %d halvings at iteration %d"
                % (_MAX_HALVINGS, iteration + 1)
            )
        coef, eta, ll = trial, eta_trial, ll_trial
        trace.append(ll)


def _fit_mle(data: Dataset, features: str, link, family: str) -> FittedModel:
    if data.z is None:
        raise ConfigError("classification fit requires a dataset with z labels")
    x = _design(data.x1, data.x2, features)
    z = np.asarray(data.z, dtype=float)
    coef, diagnostics = _newton_mle(x, z, link)
    return FittedModel(
        family=family,
        features=features,
        coefficients=tuple(coef),
        diagnostics=diagnostics,
    )


def fit_probit(data: Dataset, features: str) -> FittedModel:
    """Probit MLE of z on an intercept plus the selected features."""
    return _fit_mle(data, features, _ProbitLink, "probit")


def fit_logit(data: Dataset, features: str) -> FittedModel:
    """Logit MLE of z on an intercept plus the selected features."""
    return _fit_mle(data, features, _LogitLink, "logit")


def _population_errors(spec: DgpSpec, model: str, features: str) -> tuple[float, float]:
    """Group mean errors of the limit of fit_<model> on ever more rows of spec.

    That limit, the pseudo-true fit (White 1982), fits the model to E[Y | X]
    over the mixture, by a tensor Gauss-Hermite rule through each group's
    Cholesky factor: X1 = m1 + l11 t1, X2 = m2 + l21 t1 + l22 t2. For a probit
    outcome on X1 alone, E[Phi(h) | t1] = Phi(h(X1, m2 + l21 t1) / hypot(1, b2 l22))
    replaces the t2 axis. ols solves the weighted normal equations; probit and
    logit run Newton on the score r u(z=1) + (1 - r) u(z=0) at risk r, whose
    curvature mixes the same way. A singular population covariance of the
    features raises DegenerateVarianceError.
    """
    # 24 Gauss-Hermite nodes for T ~ N(0, 1), E[f(T)] = w @ f(t), by Golub-Welsch
    s = np.sqrt(np.arange(1.0, 24.0))
    t, v = np.linalg.eigh(np.diag(s, 1) + np.diag(s, -1))
    t1, t2, w = t, 0.0 * t, v[0] ** 2
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
    x = _design(x1, x2, features)
    f = x[:, 1:] - wts @ x[:, 1:]
    smallest = np.linalg.eigvalsh(f.T @ (f * wts[:, None]))[0]
    if smallest <= 1e-12:
        raise DegenerateVarianceError("Var(X1) = %r; the features' population covariance "
                                      "has eigenvalue %r" % (wts @ f[:, 0] ** 2, smallest))
    if model == "ols":
        coef = np.linalg.solve(x.T @ (x * wts[:, None]), x.T @ (wts * y))
    else:
        link = _ProbitLink if model == "probit" else _LogitLink

        def loglik(c: np.ndarray) -> float:
            eta = x @ c
            return link.loglik(eta, 1.0, wts * y) + link.loglik(eta, 0.0, wts * (1.0 - y))

        coef = np.zeros(x.shape[1])
        ll = loglik(coef)
        for _ in range(_MAX_ITER):
            (u1, w1), (u0, w0) = (link.grad_weights(x @ coef, z) for z in (1.0, 0.0))
            curvature = x.T @ (x * (wts * (y * w1 + (1.0 - y) * w0))[:, None])
            step = np.linalg.solve(curvature, x.T @ (wts * (y * u1 + (1.0 - y) * u0)))
            # Halve a step that lowers the likelihood beyond rounding; an ascent step ends it.
            while (ll_trial := loglik(coef + step)) < ll - 1e-15 * abs(ll):
                step = step / 2.0
            coef, ll = coef + step, ll_trial
            if np.max(np.abs(step)) <= 1e-10 * max(1.0, np.max(np.abs(coef))):
                break  # quadratic convergence: the next step would be rounding
        else:
            raise ConvergenceError("population %s fit did not converge" % model)
    fitted = FittedModel(family=model, features=features, coefficients=tuple(coef))
    gap0, gap1 = np.split(predict(fitted, x1, x2) - y, 2)
    return float(w @ gap0), float(w @ gap1)


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
    nodes = [[-1, 0.0, -1, -1, 0.0]]  # feature, threshold, left, right, value
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
        nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
        stack.append((lid, ys[f, :i], order, xs, keep, depth + 1))
        stack.append((rid, ys[f, i:], order, xs, ~keep, depth + 1))

    feature, threshold, left, right, value = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=float),
    )


_worker_inputs = None  # set once in each pool worker, never in the calling process


def _set_worker_inputs(inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _fit_tree(t: int) -> tuple[Tree, np.ndarray, np.ndarray]:
    """Grow tree t on its bootstrap sample and score the rows it left out.

    Returns the tree, the ids of its out-of-bag training rows and their scores.
    """
    x, y, order, seed = _worker_inputs
    n = y.shape[0]
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "tree", t)))
    counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
    tree = _grow_tree(x, order, y, counts, MAX_DEPTH, MIN_LEAF)
    oob = np.flatnonzero(counts == 0)
    return tree, oob, _tree_predict(tree, x[oob])


def fit_forest(data: Dataset, features: str, seed: int = 0) -> FittedModel:
    """Bagged CART regression forest for y, deterministic given the seed.

    Each tree trains on a full-size bootstrap resample drawn from its own
    counter-derived substream, so the ensemble is identical regardless of
    the order trees are built in or the number of workers building them.
    The trees grow on a pool of forked workers, one per usable core (at
    most one per tree), which inherit the rows and their presort.

    The worker that grows a tree also scores the rows its bootstrap left
    out. ``fitted`` holds each row's out-of-bag score: its scores summed in
    tree order over the number of trees that left it out. A row that every
    tree drew raises BiaslabError.
    """
    # trees do not use an intercept
    x = np.ascontiguousarray(_design(data.x1, data.x2, features)[:, 1:])
    y = np.asarray(data.y, dtype=float)
    n = y.shape[0]
    if n < 2 * MIN_LEAF:
        raise ConfigError("need at least 2*MIN_LEAF rows, got %d" % n)
    trees, total, oob_trees = [], np.zeros(n), np.zeros(n, dtype=np.int64)
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

    A leaf becomes a node with threshold +inf whose children are itself, so
    all rows take the same step: read the node's feature from the flattened
    rows and move to child ``2 * node + (went right)`` of the interleaved
    child table. A NaN feature fails ``<=`` and goes right. The walk stops
    once no row sits on an internal node, so any depth is handled.
    """
    leaf = tree.feature < 0
    nodes = np.arange(leaf.shape[0])
    feature = np.where(leaf, 0, tree.feature)
    threshold = np.where(leaf, np.inf, tree.threshold)
    children = np.column_stack(
        [np.where(leaf, nodes, tree.left), np.where(leaf, nodes, tree.right)]
    ).ravel()
    flat = xmat.ravel()  # a copy unless xmat is C-contiguous
    row_start = np.arange(0, flat.shape[0], xmat.shape[1])
    idx = np.zeros(xmat.shape[0], dtype=np.int64)
    while not leaf[idx].all():
        xv = flat[row_start + feature[idx]]
        idx = children[2 * idx + ~(xv <= threshold[idx])]
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
    out-of-bag one is the model's ``fitted``.
    """
    if model.family == "forest":
        xmat = np.ascontiguousarray(_design(x1, x2, model.features)[:, 1:])
        total = _tree_predict(model.forest[0], xmat)
        for tree in model.forest[1:]:
            total += _tree_predict(tree, xmat)
        return total / len(model.forest)
    x = _design(x1, x2, model.features)
    index = x @ np.asarray(model.coefficients, dtype=float)
    if model.family == "ols":
        return index
    if model.family == "probit":
        return ndtr(index)
    if model.family == "logit":
        return expit(index)
    raise ConfigError("unknown model family %r" % (model.family,))
