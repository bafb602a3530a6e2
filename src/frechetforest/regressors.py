"""Forest-weighted and baseline Frechet regression estimators.

Forest-based estimators (need a fitted
:class:`~frechetforest.forest.ForestModel`):

* ``rfwlcfr`` -- weighted Frechet mean under the forest kernel weights.
* ``rfwllfr`` -- weighted Frechet mean under signed local-linear weights
  built from the forest kernel.
* ``frf``     -- Frechet mean of the per-tree predictions, the leaf means
  that :func:`~frechetforest.tree.tree_predict` solves once per tree.

With ``return_info=True`` these and ``predict_gfr`` return the object and
the mean solver's info, plus ``"weights"``: the weights it averaged.

Baselines (need only the training data):

* ``gfr``        -- global Frechet regression (linear-model weights).
* ``nw``         -- Nadaraya-Watson with the Epanechnikov product kernel.
* ``lfr_kernel`` -- local-linear Frechet regression with the same kernel.

:func:`predict_batch`, which ``bench-table`` and ``tune`` predict through,
solves each (model, kind) batch except ``frf`` with one
:func:`spaces.weighted_frechet_means` call: one vectorised descent on the
sphere.  The per-query ``predict_<kind>`` functions and CLI ``predict`` use
the single solver ``spaces.weighted_frechet_mean``; the two agree within
1e-6, and bit for bit on the other spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import spaces
from .forest import ForestConfig, ForestModel, fit_forest, kernel_weights
from .spaces import MetricSpace
from .tree import TreeConfig, depth_grid, shared_node_sums, tree_predict

FOREST_KINDS = ("rfwlcfr", "rfwllfr", "frf")
KERNEL_KINDS = ("nw", "lfr_kernel")
ALL_KINDS = FOREST_KINDS + ("gfr",) + KERNEL_KINDS

BANDWIDTH_GRID = (0.05, 0.1, 0.2, 0.4, 0.8)  # default kernel tuning grid

_RIDGE = 1e-8


# ---------------------------------------------------------------------------
# forest-based estimators


def _mean(space: MetricSpace, ystack: np.ndarray, weights: np.ndarray,
          return_info: bool, reported: Optional[np.ndarray] = None):
    """Mean, or ``(mean, info)`` with weights ``reported`` (or ``weights``)."""
    out, info = spaces.weighted_frechet_mean(space, ystack, weights,
                                             return_info=True)
    info["weights"] = weights if reported is None else reported
    return (out, info) if return_info else out


def predict_rfwlcfr(model: ForestModel, x: np.ndarray,
                    return_info: bool = False):
    """Local-constant prediction: Frechet mean under the forest kernel."""
    return _mean(model.space, model.Y, _query_weights("rfwlcfr", model, x),
                 return_info)


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


def predict_rfwllfr(model: ForestModel, x: np.ndarray,
                    return_info: bool = False):
    """Local-linear prediction: signed-weight Frechet mean."""
    return _mean(model.space, model.Y, _query_weights("rfwllfr", model, x),
                 return_info)


def predict_frf(model: ForestModel, x: np.ndarray, return_info: bool = False):
    """Two-stage prediction: Frechet mean of the per-tree predictions
    (:func:`~frechetforest.tree.tree_predict`).

    Its info is the second-stage solver's, with weights ``1/B`` per tree.
    """
    preds = np.stack([tree_predict(t, x, model.Y, model.space)
                      for t in model.trees])
    B = len(preds)
    return _mean(model.space, preds, np.ones(B), return_info,
                 reported=np.full(B, 1.0 / B))


_FOREST_PREDICTORS = {"rfwlcfr": predict_rfwlcfr,
                      "rfwllfr": predict_rfwllfr,
                      "frf": predict_frf}


def predict_forest_batch(model: ForestModel, X_query: np.ndarray,
                         kind: str) -> np.ndarray:
    """``predict_<kind>`` at every row of ``X_query``.

    ``frf`` predicts query by query; ``rfwlcfr`` and ``rfwllfr`` stack the
    weights of every query and solve them with one
    :func:`spaces.weighted_frechet_means` call.
    """
    fn = _FOREST_PREDICTORS[kind]
    X_query = np.asarray(X_query, dtype=float)
    if kind == "frf":
        return np.stack([fn(model, x) for x in X_query])
    return _batch_means(model.space, model.Y,
                        (_query_weights(kind, model, x) for x in X_query))


def _query_weights(kind: str, fitted, x: np.ndarray) -> np.ndarray:
    """The weights ``kind`` averages at ``x``, from a :func:`fit_cell` state.

    The one rule per kind, shared by ``predict_<kind>`` and
    :func:`predict_batch`; ``frf`` averages leaf means instead.
    """
    if kind == "rfwlcfr":
        return kernel_weights(fitted, x)
    if kind == "rfwllfr":
        return local_linear_weights(fitted.X, x, kernel_weights(fitted, x))
    if kind == "gfr":
        return gfr_weights(fitted, x)
    X, _, _, bandwidth = fitted
    w = product_kernel_weights(X, x, bandwidth)
    return w if kind == "nw" else local_linear_weights(X, x, w)


def _batch_means(space: MetricSpace, ystack: np.ndarray, rows):
    """One :func:`spaces.weighted_frechet_means` call over the weight rows.

    A batch raises the error the per-query loop raises first: when a row's
    weights raise, the rows before it are solved first, as one of them may
    fail.
    """
    W = []
    try:
        for w in rows:
            W.append(w)
    except Exception:
        if W:
            spaces.weighted_frechet_means(space, ystack, np.stack(W))
        raise
    return spaces.weighted_frechet_means(space, ystack, np.stack(W))


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


def predict_gfr(model: GFRModel, x: np.ndarray, return_info: bool = False):
    return _mean(model.space, model.Y, _query_weights("gfr", model, x),
                 return_info)


# ---------------------------------------------------------------------------
# kernel baselines


def product_kernel_weights(X: np.ndarray, x: np.ndarray,
                           bandwidth: float) -> np.ndarray:
    """Normalized Epanechnikov product-kernel weights K_h(X_i - x)."""
    u = (np.asarray(X, dtype=float) - np.asarray(x, dtype=float)) / bandwidth
    w = np.prod(np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0), axis=1)
    total = w.sum()
    if total <= 0:
        raise ValueError("no kernel mass at the query point; "
                         "increase the bandwidth")
    return w / total


def predict_nw(X: np.ndarray, Y: np.ndarray, space: MetricSpace,
               x: np.ndarray, bandwidth: float) -> np.ndarray:
    """Nadaraya-Watson Frechet prediction."""
    w = _query_weights("nw", (X, Y, space, bandwidth), x)
    return spaces.weighted_frechet_mean(space, np.asarray(Y, dtype=float), w)


def predict_lfr_kernel(X: np.ndarray, Y: np.ndarray, space: MetricSpace,
                       x: np.ndarray, bandwidth: float) -> np.ndarray:
    """Local-linear Frechet prediction with smoothing-kernel weights."""
    t = _query_weights("lfr_kernel", (X, Y, space, bandwidth), x)
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
# one fit and one batch prediction per kind, and cross-validation


def fit_cell(kind: str, X: np.ndarray, Y: np.ndarray, space: MetricSpace,
             cell: dict, num_trees: int, base_tree: TreeConfig, seed: int):
    """Fitted state of ``kind`` on one grid cell, for :func:`predict_batch`.

    One forest (master seed ``seed``) serves every forest kind; ``gfr``
    ignores the cell; a kernel kind keeps the data and the cell's bandwidth.
    """
    if kind in FOREST_KINDS:
        tcfg = replace(base_tree, max_depth=cell["max_depth"],
                       mtry=cell.get("mtry", base_tree.mtry))
        return fit_forest(X, Y, space, ForestConfig(
            num_trees=num_trees, tree=tcfg, master_seed=seed))
    if kind == "gfr":
        return fit_gfr(X, Y, space)
    if kind in KERNEL_KINDS:
        return X, Y, space, cell["bandwidth"]
    raise ValueError(f"unknown estimator {kind!r}")


def predict_batch(kind: str, fitted, X_query: np.ndarray) -> np.ndarray:
    """Predictions of ``kind`` from a :func:`fit_cell` state, one per row.

    Except for ``frf``, the weights of every row are solved by one
    :func:`spaces.weighted_frechet_means` call: on the sphere one
    vectorised descent, which agrees with the per-query ``predict_<kind>``
    within 1e-6; elsewhere the per-query solves, bit for bit.
    """
    if kind in FOREST_KINDS:
        return predict_forest_batch(fitted, X_query, kind)
    space, Y = ((fitted.space, fitted.Y) if kind == "gfr"
                else (fitted[2], fitted[1]))
    return _batch_means(space, Y, (_query_weights(kind, fitted, x)
                                   for x in np.asarray(X_query, dtype=float)))


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


def forest_grid(n: int, p: int, depths=None, mtrys=None) -> list:
    """Forest tuning cells, depth-major.

    The grids default to ``tree.depth_grid(n)`` and ``default_mtry_grid(p)``.
    """
    return [{"max_depth": int(d), "mtry": int(m)}
            for d in depths or depth_grid(n)
            for m in mtrys or default_mtry_grid(p)]


def kernel_grid(bandwidths=None) -> list:
    """Kernel tuning cells; the bandwidths default to ``BANDWIDTH_GRID``."""
    return [{"bandwidth": float(h)} for h in bandwidths or BANDWIDTH_GRID]


def best_cell(grid: list, errors: np.ndarray) -> dict:
    """The cell whose row of ``errors`` (cells x folds) has the least mean;
    the first on ties, and a row holding infinity never beats a finite one."""
    return grid[int(np.argmin([np.mean(row) for row in errors]))]


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
    ``{"bandwidth"}``).  Returns ``{kind: array (cells, folds)}``; a fit
    or prediction that raises ``ValueError`` or ``LinAlgError`` scores
    infinity, and ``failures``, if given a list, receives ``(cell index,
    fold, kind, str(exc))`` for each such score.  The forests of one fold
    share their node sums (``tree.shared_node_sums``).
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
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
                    fitted = fit_cell(kinds[0], Xtr, Ytr, space, cell,
                                      num_trees, base_tree, seed + f)
                except (ValueError, np.linalg.LinAlgError) as exc:
                    score_inf(ci, f, kinds, exc)
                    continue
                for k in kinds:
                    try:
                        errors[k][ci, f] = evaluate_mse(
                            predict_batch(k, fitted, Xte), Y[test_idx], space)
                    except (ValueError, np.linalg.LinAlgError) as exc:
                        score_inf(ci, f, [k], exc)
    return errors


def tune_cv(X: np.ndarray, Y: np.ndarray, space: MetricSpace, kind: str,
            grid: list, folds: int = 5, seed: int = 0,
            num_trees: int = 50, base_tree: Optional[TreeConfig] = None):
    """K-fold cross-validation over a list of hyperparameter cells.

    Each cell is a dict: ``{"max_depth", "mtry"}`` for forest kinds,
    ``{"bandwidth"}`` for kernel kinds, ``{}`` for gfr.  Returns
    ``(best_cell(grid, errors), table)`` where the table lists per-cell mean
    and sd of the held-out Frechet MSE.  A failing cell scores infinity; its
    row's ``failures`` lists ``(fold, message)`` for each fold that raised.
    """
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
    return best_cell(grid, errors), table
