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

:func:`predict_batches`, which ``bench-table`` and ``tune`` predict
through, scores a fitted forest once per query batch for all its kinds:
one kernel-weight pass serves ``rfwlcfr`` and ``rfwllfr``.  It solves each
(model, kind) batch except ``frf`` with one
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
from .forest import (ForestConfig, ForestModel, fit_forest, forest_weights,
                     kernel_weights)
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
    ridge is added only if the design is numerically singular.  The
    one-row case of :func:`_local_linear_rows`.
    """
    x = np.asarray(x, dtype=float)
    return next(_local_linear_rows(X, x[None],
                                   np.asarray(alpha, dtype=float)[None]))


def _local_linear_rows(X: np.ndarray, X_query: np.ndarray, A: np.ndarray):
    """``local_linear_weights(X, x, a)`` for each query row ``x`` and weight
    row ``a`` of ``A``, in order.  A row whose total weight is not positive
    or whose ridged design is still singular raises ``ValueError`` in its
    turn, after the rows before it.

    A block of rows shares one stacked solve: per row, the same products
    and LAPACK calls as a block of one.  If the block's solve raises, its
    rows are solved one by one; a row whose solve raises or is not finite
    is solved again with the ridge.  Blocks of about
    ``spaces._BLOCK_ENTRIES`` design entries bound the working arrays.
    """
    X = np.asarray(X, dtype=float)
    n, q = X.shape[0], X.shape[1] + 1
    rows = max(1, spaces._BLOCK_ENTRIES // (n * q))
    for s in range(0, len(A), rows):
        Xb, Ab = X_query[s:s + rows], A[s:s + rows]
        design = np.ones((len(Xb), n, q))
        np.subtract(X, Xb[:, None], out=design[:, :, 1:])
        M = design.transpose(0, 2, 1) @ (Ab[:, :, None] * design)
        e1 = np.zeros((len(Xb), q, 1))
        e1[:, 0] = 1.0
        try:
            V = np.linalg.solve(M, e1)
        except np.linalg.LinAlgError:
            V = np.full_like(e1, np.nan)
            for k in range(len(Xb)):
                try:
                    V[k] = np.linalg.solve(M[k], e1[k])
                except np.linalg.LinAlgError:
                    pass
        singular = {}
        for k in np.flatnonzero(~np.isfinite(V).all(axis=(1, 2))):
            lam = _RIDGE * max(np.trace(M[k]) / q, 1.0)
            try:
                V[k] = np.linalg.solve(M[k] + lam * np.eye(q), e1[k])
            except np.linalg.LinAlgError as exc:
                singular[k] = exc
        T = Ab * (design @ V)[:, :, 0]
        for k, (a, t) in enumerate(zip(Ab, T)):
            if a.sum() <= 0:
                raise ValueError("total kernel weight must be positive")
            if k in singular:
                raise ValueError("local design is singular") from singular[k]
            yield t


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
    x = _queries(model, x, 1)
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
    """``predict_<kind>`` at every row of ``X_query``: the scoring pass of
    :func:`predict_batches` with one forest kind, raising what it raised."""
    if kind not in _FOREST_PREDICTORS:
        raise ValueError(f"unknown forest estimator {kind!r}")
    out = predict_batches((kind,), model, X_query)[kind]
    if isinstance(out, Exception):
        raise out
    return out


def _queries(fitted, X_query, ndim: int) -> np.ndarray:
    """``X_query`` as floats, one query (``ndim`` 1) or a matrix of them
    (``ndim`` 2); ``ValueError`` unless a query is as wide as the training
    ``X`` of the :func:`fit_cell` state ``fitted``."""
    X_query = np.asarray(X_query, dtype=float)
    p = np.shape(fitted.X if hasattr(fitted, "X") else fitted[0])[1]
    if X_query.ndim != ndim or X_query.shape[-1] != p:
        raise ValueError(f"a query must have {p} predictor columns, as the "
                         f"training X has; got shape {X_query.shape}")
    return X_query


def _query_weights(kind: str, fitted, x: np.ndarray) -> np.ndarray:
    """The weights ``kind`` averages at ``x``, from a :func:`fit_cell` state.

    The one rule per kind, shared by ``predict_<kind>`` and
    :func:`predict_batches`; ``frf`` averages leaf means instead.
    """
    x = _queries(fitted, x, 1)
    if kind == "rfwlcfr":
        return kernel_weights(fitted, x)
    if kind == "rfwllfr":
        return local_linear_weights(fitted.X, x, kernel_weights(fitted, x))
    if kind == "gfr":
        return gfr_weights(fitted, x)
    X, _, _, bandwidth = fitted
    w = product_kernel_weights(X, x, bandwidth)
    return w if kind == "nw" else local_linear_weights(X, x, w)


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


def _check_bandwidth(h) -> float:
    """``h`` as a float; raises ``ValueError`` unless finite and positive."""
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be finite and > 0, got {h!r}")
    return h


def _kernel_products(X: np.ndarray, X_query: np.ndarray,
                     bandwidth: float) -> np.ndarray:
    """Unnormalized Epanechnikov product kernel K_h(X_i - x), (queries x
    samples), multiplied feature by feature in the order ``np.prod`` takes
    a row.  A sample on the kernel's edge, ``|u| = 1``, gets 0."""
    h = _check_bandwidth(bandwidth)
    X = np.asarray(X, dtype=float)
    w = np.ones((len(X_query), len(X)))
    for j in range(X.shape[1]):
        u = (X[:, j] - X_query[:, j, None]) / h
        w *= np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return w


def product_kernel_weights(X: np.ndarray, x: np.ndarray,
                           bandwidth: float) -> np.ndarray:
    """Normalized Epanechnikov product-kernel weights K_h(X_i - x)."""
    w = _kernel_products(X, np.asarray(x, dtype=float)[None], bandwidth)[0]
    total = w.sum()
    if total <= 0:
        raise ValueError("no kernel mass at the query point; "
                         "increase the bandwidth")
    return w / total


def has_kernel_mass(X: np.ndarray, X_query: np.ndarray,
                    bandwidth: float) -> np.ndarray:
    """Whether :func:`product_kernel_weights` at each row of ``X_query``
    does not raise: the total of its kernel row is not <= 0."""
    X_query = np.asarray(X_query, dtype=float)
    return ~(_kernel_products(X, X_query, bandwidth).sum(axis=1) <= 0)


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
    """Fitted state of ``kind`` on one grid cell, for :func:`predict_batches`.

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


def predict_batches(kinds, fitted, X_query: np.ndarray) -> dict:
    """``{kind: predictions at every row of X_query}`` of kinds that share
    one :func:`fit_cell` state.  A kind that raises ``ValueError`` or
    ``LinAlgError`` maps to that exception, so it fails alone.  Queries
    whose width is not the training ``X``'s raise ``ValueError``.

    ``rfwlcfr`` and ``rfwllfr`` average one :func:`forest.forest_weights`
    pass, each query routed through each tree once, and ``rfwllfr`` turns
    it into local-linear weights with :func:`_local_linear_rows`.  ``frf``
    predicts query by query.  The weights of every row of any other kind
    are solved by one :func:`spaces.weighted_frechet_means` call: on the
    sphere one vectorised descent, which agrees with the per-query
    ``predict_<kind>`` within 1e-6; elsewhere the per-query solves, bit for
    bit.
    """
    X_query = _queries(fitted, X_query, 2)
    out, alpha = {}, None
    for kind in kinds:
        try:
            if kind == "frf":  # np.reshape keeps the shape of no rows
                out[kind] = np.reshape([predict_frf(fitted, x)
                                        for x in X_query],
                                       (-1,) + fitted.space.shape)
                continue
            if kind in FOREST_KINDS:
                if alpha is None:
                    alpha = forest_weights(fitted, X_query)
                space, Y = fitted.space, fitted.Y
                rows = (alpha if kind == "rfwlcfr" else
                        _local_linear_rows(fitted.X, X_query, alpha))
            else:
                space, Y = ((fitted.space, fitted.Y) if kind == "gfr"
                            else (fitted[2], fitted[1]))
                rows = (_query_weights(kind, fitted, x) for x in X_query)
            out[kind] = spaces.weighted_frechet_means(space, Y, rows)
        except (ValueError, np.linalg.LinAlgError) as exc:
            out[kind] = exc
    return out


def evaluate_mse(predictions: np.ndarray, truths: np.ndarray,
                 space: MetricSpace) -> float:
    """Mean squared distance between predictions and targets."""
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths have different lengths")
    return float(np.mean(spaces.pair_dist2(space, predictions, truths)))


def default_mtry_grid(p: int) -> list:
    grid = sorted({1, math.ceil(p / 3), math.ceil(math.sqrt(p)), p})
    return [m for m in grid if 1 <= m <= p]


def forest_grid(n: int, p: int, depths=None, mtrys=None) -> list:
    """Forest tuning cells, depth-major.

    The grids default to ``tree.depth_grid(n)`` and ``default_mtry_grid(p)``.
    A depth below 1 or an ``mtry`` outside ``[1, p]`` raises ``ValueError``.
    """
    depths, mtrys = depths or depth_grid(n), mtrys or default_mtry_grid(p)
    if min(depths) < 1:
        raise ValueError(f"max_depth must be >= 1, got {min(depths)}")
    if not 1 <= min(mtrys) <= max(mtrys) <= p:
        raise ValueError(f"mtry must lie in [1, {p}], got {list(mtrys)}")
    return [{"max_depth": int(d), "mtry": int(m)}
            for d in depths for m in mtrys]


def kernel_grid(bandwidths=None) -> list:
    """Kernel tuning cells; the bandwidths default to ``BANDWIDTH_GRID``."""
    return [{"bandwidth": _check_bandwidth(h)}
            for h in bandwidths or BANDWIDTH_GRID]


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
    share their node sums (``tree.shared_node_sums``), and one
    :func:`predict_batches` call scores every kind of a cell and fold.
    """
    n = len(X)
    if not 2 <= folds <= n:
        raise ValueError(f"need 2 to {n} folds for {n} samples, got {folds}")
    if kinds[0] in FOREST_KINDS:
        ForestConfig(num_trees=num_trees)  # its checks, before any fit
    errors = {k: np.empty((len(grid), folds)) for k in kinds}

    def score_inf(ci, f, failed_kinds, exc):
        for k in failed_kinds:
            errors[k][ci, f] = math.inf
            if failures is not None:
                failures.append((ci, f, k, str(exc)))

    for f, test_idx in enumerate(_kfold_indices(n, folds, seed)):
        train = np.ones(n, dtype=bool)  # np.setdiff1d would load numpy.ma
        train[test_idx] = False
        train_idx = np.flatnonzero(train)
        Xtr, Ytr, Xte = X[train_idx], Y[train_idx], X[test_idx]
        with shared_node_sums():
            for ci, cell in enumerate(grid):
                try:
                    fitted = fit_cell(kinds[0], Xtr, Ytr, space, cell,
                                      num_trees, base_tree, seed + f)
                except (ValueError, np.linalg.LinAlgError) as exc:
                    score_inf(ci, f, kinds, exc)
                    continue
                preds = predict_batches(kinds, fitted, Xte)
                for k in kinds:
                    try:
                        if isinstance(preds[k], Exception):
                            raise preds[k]
                        errors[k][ci, f] = evaluate_mse(preds[k], Y[test_idx],
                                                        space)
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
