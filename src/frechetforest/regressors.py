"""Forest-weighted and baseline Frechet regression estimators.

Forest-based estimators (need a fitted :class:`~frechetforest.forest.ForestModel`):

* ``rfwlcfr`` -- weighted Frechet mean under the forest kernel weights.
* ``rfwllfr`` -- weighted Frechet mean under signed local-linear weights
  built from the forest kernel.
* ``frf``     -- Frechet mean of the per-tree leaf Frechet means.

Baselines (need only the training data):

* ``gfr``        -- global Frechet regression (linear-model weights).
* ``nw``         -- Nadaraya-Watson with a smoothing kernel.
* ``lfr_kernel`` -- local-linear Frechet regression with a smoothing kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import spaces
from .forest import ForestConfig, ForestModel, fit_forest, kernel_weights
from .spaces import MetricSpace
from .tree import TreeConfig, leaf_for, shared_node_sums

FOREST_KINDS = ("rfwlcfr", "rfwllfr", "frf")
KERNEL_KINDS = ("nw", "lfr_kernel")
ALL_KINDS = FOREST_KINDS + ("gfr",) + KERNEL_KINDS

_RIDGE = 1e-8


# ---------------------------------------------------------------------------
# forest-based estimators


def predict_rfwlcfr(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Local-constant prediction: Frechet mean under the forest kernel."""
    alpha = kernel_weights(model, x)
    return spaces.weighted_frechet_mean(model.space, model.Y, alpha)


def local_linear_weights(X: np.ndarray, x: np.ndarray,
                         alpha: np.ndarray) -> np.ndarray:
    """Signed local-linear weights t_i(x) from nonnegative weights alpha.

    Solves the weighted local-linear normal equations; the first row gives
    weights with sum(t) = 1 and sum(t * (X_i - x)) = 0.  A trace-scaled
    ridge is added only if the design is numerically singular.
    """
    X = np.asarray(X, dtype=float)
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.sum() <= 0:
        raise ValueError("total kernel weight must be positive")
    d = X - x
    design = np.concatenate([np.ones((len(X), 1)), d], axis=1)
    M = design.T @ (alpha[:, None] * design)
    e1 = np.zeros(M.shape[0])
    e1[0] = 1.0
    try:
        v = np.linalg.solve(M, e1)
        if not np.all(np.isfinite(v)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        lam = _RIDGE * max(np.trace(M) / M.shape[0], 1.0)
        try:
            v = np.linalg.solve(M + lam * np.eye(M.shape[0]), e1)
        except np.linalg.LinAlgError as exc:
            raise ValueError("local design is singular") from exc
    return alpha * (design @ v)


def predict_rfwllfr(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Local-linear prediction: signed-weight Frechet mean."""
    alpha = kernel_weights(model, x)
    t = local_linear_weights(model.X, x, alpha)
    return spaces.weighted_frechet_mean(model.space, model.Y, t)


def leaf_means(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Per-tree predictions at ``x``: the Frechet means of its leaves.

    A leaf's equal-weight mean depends only on the model, so each index
    set is solved once and kept in ``model.leaf_mean_cache``.
    """
    cache = model.leaf_mean_cache
    out = []
    for t in model.trees:
        idx = leaf_for(t, x)
        key = idx.tobytes()
        mean = cache.get(key)
        if mean is None:
            mean = cache[key] = spaces.weighted_frechet_mean(
                model.space, model.Y[idx], np.ones(len(idx)))
        out.append(mean)
    return np.stack(out)


def predict_frf(model: ForestModel, x: np.ndarray, return_info: bool = False):
    """Two-stage prediction: Frechet mean of the per-tree predictions.

    With ``return_info`` the second-stage solver's info comes back too.
    """
    preds = leaf_means(model, x)
    return spaces.weighted_frechet_mean(model.space, preds,
                                        np.ones(len(preds)),
                                        return_info=return_info)


_FOREST_PREDICTORS = {"rfwlcfr": predict_rfwlcfr,
                      "rfwllfr": predict_rfwllfr,
                      "frf": predict_frf}


def predict_forest_batch(model: ForestModel, X_query: np.ndarray,
                         kind: str) -> np.ndarray:
    fn = _FOREST_PREDICTORS[kind]
    return np.stack([fn(model, x) for x in np.asarray(X_query, dtype=float)])


# ---------------------------------------------------------------------------
# global Frechet regression


@dataclass
class GFRModel:
    X: np.ndarray
    Y: np.ndarray
    space: MetricSpace
    x_mean: np.ndarray
    cov_inv: np.ndarray


def fit_gfr(X: np.ndarray, Y: np.ndarray, space: MetricSpace) -> GFRModel:
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n <= p:
        raise ValueError("global Frechet regression needs n > p")
    x_mean = X.mean(axis=0)
    d = X - x_mean
    cov = d.T @ d / n
    try:
        cov_inv = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        lam = _RIDGE * max(np.trace(cov) / p, 1.0)
        cov_inv = np.linalg.inv(cov + lam * np.eye(p))
    return GFRModel(X, np.asarray(Y, dtype=float), space, x_mean, cov_inv)


def gfr_weights(model: GFRModel, x: np.ndarray) -> np.ndarray:
    d = model.X - model.x_mean
    s = 1.0 + d @ (model.cov_inv @ (np.asarray(x, dtype=float) - model.x_mean))
    return s / len(model.X)


def predict_gfr(model: GFRModel, x: np.ndarray) -> np.ndarray:
    return spaces.weighted_frechet_mean(model.space, model.Y,
                                        gfr_weights(model, x))


# ---------------------------------------------------------------------------
# kernel baselines


def _kernel_values(u: np.ndarray, kernel: str) -> np.ndarray:
    if kernel == "epanechnikov":
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    if kernel == "gaussian":
        return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    raise ValueError(f"unknown kernel {kernel!r}")


def product_kernel_weights(X: np.ndarray, x: np.ndarray, bandwidth: float,
                           kernel: str = "epanechnikov") -> np.ndarray:
    """Normalized product-kernel weights K_h(X_i - x)."""
    u = (np.asarray(X, dtype=float) - np.asarray(x, dtype=float)) / bandwidth
    w = np.prod(_kernel_values(u, kernel), axis=1)
    total = w.sum()
    if total <= 0:
        raise ValueError("no kernel mass at the query point; "
                         "increase the bandwidth")
    return w / total


def predict_nw(X: np.ndarray, Y: np.ndarray, space: MetricSpace,
               x: np.ndarray, bandwidth: float,
               kernel: str = "epanechnikov") -> np.ndarray:
    """Nadaraya-Watson Frechet prediction."""
    w = product_kernel_weights(X, x, bandwidth, kernel)
    return spaces.weighted_frechet_mean(space, np.asarray(Y, dtype=float), w)


def predict_lfr_kernel(X: np.ndarray, Y: np.ndarray, space: MetricSpace,
                       x: np.ndarray, bandwidth: float,
                       kernel: str = "epanechnikov") -> np.ndarray:
    """Local-linear Frechet prediction with smoothing-kernel weights."""
    w = product_kernel_weights(X, x, bandwidth, kernel)
    t = local_linear_weights(X, x, w)
    return spaces.weighted_frechet_mean(space, np.asarray(Y, dtype=float), t)


def scalar_local_linear_weights(X1: np.ndarray, x: float,
                                alpha: np.ndarray) -> np.ndarray:
    """Closed-form local-linear weights for a single predictor.

    Independent of :func:`local_linear_weights`; kept as the p = 1 reference
    path (moment form with denominator mu0*mu2 - mu1^2).
    """
    X1 = np.asarray(X1, dtype=float).ravel()
    alpha = np.asarray(alpha, dtype=float)
    n = len(X1)
    d = X1 - x
    mu0 = np.sum(alpha) / n
    mu1 = np.sum(alpha * d) / n
    mu2 = np.sum(alpha * d * d) / n
    denom = mu0 * mu2 - mu1 * mu1
    if denom <= 0:
        raise ValueError("degenerate local design")
    return alpha * (mu2 - mu1 * d) / denom / n


# ---------------------------------------------------------------------------
# cross-validation tuning


def evaluate_mse(predictions: np.ndarray, truths: np.ndarray,
                 space: MetricSpace) -> float:
    """Mean squared distance between predictions and targets."""
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths have different lengths")
    d2 = [spaces.distance(space, a, b) ** 2
          for a, b in zip(predictions, truths)]
    return float(np.mean(d2))


def default_mtry_grid(p: int) -> list:
    grid = sorted({1, math.ceil(p / 3), math.ceil(math.sqrt(p)), p})
    return [m for m in grid if 1 <= m <= p]


def _kfold_indices(n: int, folds: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xCF,)))
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def cv_errors(X: np.ndarray, Y: np.ndarray, space: MetricSpace, kinds,
              grid: list, folds: int, seed: int, num_trees: int,
              base_tree: TreeConfig, failures: Optional[list] = None) -> dict:
    """Held-out Frechet MSE of each kind on each grid cell and fold.

    ``kinds`` share one cell family: forest kinds (cells ``{"max_depth",
    "mtry"}``, one forest per cell and fold, seeded ``seed + fold``, shared
    by all of them), ``gfr`` (cells ``{}``) or kernel kinds (cells
    ``{"bandwidth", "kernel"}``).  Returns ``{kind: array (cells, folds)}``;
    a fit or prediction that raises ``ValueError`` or ``LinAlgError``
    scores infinity, and ``failures``, if given a list, receives
    ``(cell index, fold, kind, str(exc))`` for each such score.  The forests
    of one fold share their node sums (``tree.shared_node_sums``).
    """
    n = len(X)
    errors = {k: np.empty((len(grid), folds)) for k in kinds}

    def score_inf(ci, f, failed_kinds, exc):
        for k in failed_kinds:
            errors[k][ci, f] = math.inf
            if failures is not None:
                failures.append((ci, f, k, str(exc)))

    for f, test_idx in enumerate(_kfold_indices(n, folds, seed)):
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        Xtr, Ytr, Xte = X[train_idx], Y[train_idx], X[test_idx]
        with shared_node_sums():
            for ci, cell in enumerate(grid):
                try:
                    if kinds[0] in FOREST_KINDS:
                        tcfg = replace(base_tree, max_depth=cell["max_depth"],
                                       mtry=cell.get("mtry", base_tree.mtry))
                        fitted = fit_forest(
                            Xtr, Ytr, space,
                            ForestConfig(num_trees=num_trees, tree=tcfg,
                                         master_seed=seed + f))
                    elif kinds[0] == "gfr":
                        fitted = fit_gfr(Xtr, Ytr, space)
                    else:
                        fitted = None  # kernel kinds carry no fitted state
                except (ValueError, np.linalg.LinAlgError) as exc:
                    score_inf(ci, f, kinds, exc)
                    continue
                for k in kinds:
                    try:
                        if k in FOREST_KINDS:
                            preds = predict_forest_batch(fitted, Xte, k)
                        elif k == "gfr":
                            preds = np.stack([predict_gfr(fitted, x)
                                              for x in Xte])
                        else:
                            fn = predict_nw if k == "nw" else predict_lfr_kernel
                            preds = np.stack([
                                fn(Xtr, Ytr, space, x, cell["bandwidth"],
                                   cell.get("kernel", "epanechnikov"))
                                for x in Xte])
                        errors[k][ci, f] = evaluate_mse(preds, Y[test_idx],
                                                        space)
                    except (ValueError, np.linalg.LinAlgError) as exc:
                        score_inf(ci, f, [k], exc)
    return errors


def tune_cv(X: np.ndarray, Y: np.ndarray, space: MetricSpace, kind: str,
            grid: list, folds: int = 5, seed: int = 0,
            num_trees: int = 50, base_tree: Optional[TreeConfig] = None):
    """K-fold cross-validation over a list of hyperparameter cells.

    Each cell is a dict: ``{"max_depth", "mtry"}`` for forest kinds,
    ``{"bandwidth", "kernel"}`` for kernel kinds, ``{}`` for gfr.  Returns
    ``(best_cell, table)`` where the table lists per-cell mean and sd of the
    held-out Frechet MSE.  A failing cell scores infinity; its row's
    ``failures`` lists ``(fold, message)`` for each fold that raised.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if not grid:
        raise ValueError("empty tuning grid")
    failures = []
    errors = cv_errors(np.asarray(X, dtype=float), np.asarray(Y, dtype=float),
                       space, [kind], grid, folds, seed, num_trees,
                       base_tree or TreeConfig(), failures)[kind]
    table = [{"cell": cell,
              "mean_error": float(np.mean(row)),
              "sd_error": float(np.std(row, ddof=1))
              if len(row) > 1 and np.all(np.isfinite(row)) else math.nan,
              "failures": [(f, msg) for c, f, _, msg in failures if c == ci]}
             for ci, (cell, row) in enumerate(zip(grid, errors))]
    means = [row["mean_error"] for row in table]
    best = int(np.argmin(means))  # argmin keeps the first (lowest) index on ties
    return grid[best], table
