"""From-scratch model fitting: OLS, probit/logit MLE, CART regression forest.

The maximum-likelihood fits use damped Newton with analytic gradients and
Hessians (start at zero, step-halving line search, hard iteration cap); the
forest is bagged CART with a variance-reduction split criterion, its trees
grown and scored on a forked process pool. scipy supplies only scalar
numerics primitives (normal CDF, log CDF, logistic), never the fitting
itself.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtr

from .dgp import Dataset, derive_seed
from .exceptions import ConvergenceError, RankDeficiencyError, SeparationError

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
        raise ValueError("features must be one of %r, got %r" % (FEATURE_SETS, features))


def _design(x1: np.ndarray, x2: np.ndarray | None, features: str) -> np.ndarray:
    _check_features(features)
    x1 = np.asarray(x1, dtype=float)
    if features == "x1_only":
        return np.column_stack([np.ones_like(x1), x1])
    if x2 is None:
        raise ValueError("features='both' requires x2")
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
    """A fitted predictor: coefficients for ols/probit/logit, trees for forest."""

    family: str
    features: str
    coefficients: tuple[float, ...] | None = None
    forest: tuple[Tree, ...] | None = None
    diagnostics: FitDiagnostics | None = None


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
    def loglik(eta: np.ndarray, z: np.ndarray) -> float:
        return float(np.sum(log_ndtr(np.where(z == 1, eta, -eta))))

    @staticmethod
    def grad_weights(eta: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = z == 1
        s = np.where(pos, eta, -eta)
        lam = _mills(s)
        return np.where(pos, lam, -lam), lam * (lam + s)


class _LogitLink:
    """Bernoulli log-likelihood pieces for risk = S(index)."""

    @staticmethod
    def loglik(eta: np.ndarray, z: np.ndarray) -> float:
        return float(-np.sum(np.logaddexp(0.0, np.where(z == 1, -eta, eta))))

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
        raise ValueError("classification fit requires a dataset with z labels")
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


def _grow_tree(xmat: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int) -> Tree:
    """CART regression tree: greedy variance-reduction splits, depth-capped.

    Each node scores every (feature, left size) pair in one pass and takes
    the first minimum: ties go to the lower feature, then the smaller left
    child. The threshold is the midpoint of the two values the split falls
    between, or the lower one where the midpoint rounds up to the upper,
    so the applied split is always the scored one.
    """
    xt = np.ascontiguousarray(xmat.T)  # feature-major: each node sorts rows of it
    nodes = [[-1, 0.0, -1, -1, 0.0]]  # feature, threshold, left, right, value
    stack = [(0, np.arange(y.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        yr = y[rows]
        m = rows.shape[0]
        nodes[node][4] = float(yr.mean())
        if depth >= max_depth or m < 2 * min_leaf or yr.min() == yr.max():
            continue
        xr = xt[:, rows]
        order = np.argsort(xr, axis=1, kind="stable")
        xs = np.take_along_axis(xr, order, axis=1)
        ys = yr[order]
        csum = np.cumsum(ys, axis=1)
        csum2 = np.cumsum(ys * ys, axis=1)
        hi = m - min_leaf
        sizes = np.arange(min_leaf, hi + 1)  # left child sizes
        ls, ls2 = csum[:, min_leaf - 1 : hi], csum2[:, min_leaf - 1 : hi]
        rs, rs2 = csum[:, -1:] - ls, csum2[:, -1:] - ls2
        cost = (ls2 - ls * ls / sizes) + (rs2 - rs * rs / (m - sizes))
        cost = np.where(xs[:, min_leaf - 1 : hi] < xs[:, min_leaf : hi + 1], cost, np.inf)
        f, i = divmod(int(np.argmin(cost)), cost.shape[1])
        if cost[f, i] == np.inf:
            continue
        i += min_leaf
        below, above = float(xs[f, i - 1]), float(xs[f, i])
        thr = 0.5 * (below + above)
        if not thr < above:  # adjacent floats: the midpoint rounded up
            thr = below
        sorted_rows = rows[order[f]]
        lid, rid = len(nodes), len(nodes) + 1
        nodes[node][:4] = f, thr, lid, rid
        nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
        stack.append((lid, sorted_rows[:i], depth + 1))
        stack.append((rid, sorted_rows[i:], depth + 1))

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


def _apply(task, item):
    return task(item, _worker_inputs)


def _pool_map(task, items, inputs):
    """Yield task(item, inputs) for each item, in item order.

    The items run on a pool of forked workers, one per core this process
    may use (at most one per item). Each worker inherits ``inputs`` through
    the fork, so only the items and the results are pickled.
    """
    workers = min(len(os.sched_getaffinity(0)), len(items))
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_set_worker_inputs,
        initargs=(inputs,),
    ) as pool:
        yield from pool.map(functools.partial(_apply, task), items)


def _fit_tree(t: int, inputs) -> Tree:
    x, y, seed = inputs
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "tree", t)))
    boot = rng.integers(0, y.shape[0], size=y.shape[0])
    return _grow_tree(x[boot], y[boot], MAX_DEPTH, MIN_LEAF)


def fit_forest(data: Dataset, features: str, seed: int = 0) -> FittedModel:
    """Bagged CART regression forest for y, deterministic given the seed.

    Each tree trains on a full-size bootstrap resample drawn from its own
    counter-derived substream, so the ensemble is identical regardless of
    the order trees are built in or the number of workers building them.
    """
    x = _design(data.x1, data.x2, features)[:, 1:]  # trees do not use an intercept
    y = np.asarray(data.y, dtype=float)
    n = y.shape[0]
    if n < 2 * MIN_LEAF:
        raise ValueError("need at least 2*MIN_LEAF rows, got %d" % n)
    trees = tuple(_pool_map(_fit_tree, range(N_TREES), (x, y, seed)))
    return FittedModel(family="forest", features=features, forest=trees)


def _tree_predict(tree: Tree, xmat: np.ndarray) -> np.ndarray:
    idx = np.zeros(xmat.shape[0], dtype=np.int64)
    while True:
        rows = np.nonzero(tree.feature[idx] >= 0)[0]
        if rows.shape[0] == 0:
            return tree.value[idx]
        nodes = idx[rows]
        xv = xmat[rows, tree.feature[nodes]]
        go_left = xv <= tree.threshold[nodes]
        idx[rows] = np.where(go_left, tree.left[nodes], tree.right[nodes])


def predict(model: FittedModel, x1, x2=None) -> np.ndarray:
    """Score rows with a fitted model.

    ols and forest return real-valued scores; probit returns Phi(index)
    and logit returns S(index), both in [0, 1]. ``x2`` may be omitted for
    x1_only models.

    A forest's score is its trees' scores, summed in tree order, over the
    tree count: for two or more rows bit-identical to numpy's axis-0 mean
    of the stacked scores, which for one row sums pairwise (last bit).
    """
    if model.family == "forest":
        xmat = _design(x1, x2, model.features)[:, 1:]
        scores = _pool_map(_tree_predict, model.forest, xmat)
        total = next(scores).copy()
        for tree_scores in scores:
            total += tree_scores
        return total / len(model.forest)
    x = _design(x1, x2, model.features)
    index = x @ np.asarray(model.coefficients, dtype=float)
    if model.family == "ols":
        return index
    if model.family == "probit":
        return ndtr(index)
    if model.family == "logit":
        return expit(index)
    raise ValueError("unknown model family %r" % (model.family,))
