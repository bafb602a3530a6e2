"""Estimators: forest-weighted, global, and kernel baselines."""

import numpy as np
import pytest

from frechetforest import regressors
from frechetforest.forest import ForestConfig, fit_forest, kernel_weights
from frechetforest.regressors import (fit_gfr, gfr_weights,
                                      local_linear_weights, predict_frf,
                                      predict_gfr, predict_lfr_kernel,
                                      predict_nw, predict_rfwlcfr,
                                      predict_rfwllfr,
                                      scalar_local_linear_weights, tune_cv)
from frechetforest.spaces import (distance, sphere_space, wasserstein_space,
                                  weighted_frechet_mean)
from frechetforest.tree import TreeConfig

SCALAR = wasserstein_space(1)


def scalar_data(y):
    return np.asarray(y, dtype=float).reshape(-1, 1)


def scalar_forest(X, y, seed=0, **tree_kw):
    tree_kw.setdefault("max_depth", 4)
    tree_kw.setdefault("min_leaf", 3)
    return fit_forest(X, scalar_data(y), SCALAR,
                      ForestConfig(num_trees=20, tree=TreeConfig(**tree_kw),
                                   master_seed=seed))


# ---------------------------------------------------------------------------
# Euclidean degeneration


def test_rfwlcfr_is_weighted_average():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(40, 2))
    y = rng.normal(size=40)
    model = scalar_forest(X, y)
    for x in rng.uniform(size=(10, 2)):
        w = kernel_weights(model, x)
        assert predict_rfwlcfr(model, x)[0] == pytest.approx(w @ y,
                                                             abs=1e-10)


def test_frf_equals_rfwlcfr_scalar():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(40, 2))
    y = rng.normal(size=40)
    model = scalar_forest(X, y)
    for x in rng.uniform(size=(10, 2)):
        assert predict_frf(model, x)[0] == pytest.approx(
            predict_rfwlcfr(model, x)[0], abs=1e-10)


def test_gfr_equals_ols():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(50, 3))
    y = rng.normal(size=50)
    model = fit_gfr(X, scalar_data(y), SCALAR)
    design = np.column_stack([np.ones(50), X])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    for x in rng.uniform(size=(10, 3)):
        ols = coef @ np.concatenate([[1.0], x])
        assert predict_gfr(model, x)[0] == pytest.approx(ols, abs=1e-8)


def test_nw_equals_classical():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(40, 1))
    y = rng.normal(size=40)
    x = np.array([0.5])
    h = 0.3
    u = (X[:, 0] - 0.5) / h
    k = np.where(np.abs(u) <= 1.0, 0.75 * (1 - u ** 2), 0.0)
    classical = (k @ y) / k.sum()
    got = predict_nw(X, scalar_data(y), SCALAR, x, h)
    assert got[0] == pytest.approx(classical, abs=1e-10)


def test_local_linear_exact_on_linear_data():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(60, 2))
    y = 2.0 + 3.0 * X[:, 0] - 1.5 * X[:, 1]
    x = np.array([0.45, 0.55])
    truth = 2.0 + 3.0 * 0.45 - 1.5 * 0.55
    got = predict_lfr_kernel(X, scalar_data(y), SCALAR, x, 0.4)
    assert got[0] == pytest.approx(truth, abs=1e-8)
    model = scalar_forest(X, y, max_depth=1)
    assert predict_rfwllfr(model, x)[0] == pytest.approx(truth, abs=1e-6)


# ---------------------------------------------------------------------------
# weight identities


def test_local_linear_weights_symmetric_design():
    X = np.array([[0.0], [0.5], [1.0]])
    alpha = np.array([0.25, 0.5, 0.25])
    t = local_linear_weights(X, np.array([0.5]), alpha)
    assert np.allclose(t, alpha, atol=1e-12)


def test_local_linear_weight_identities():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 3))
    x = rng.uniform(size=3)
    alpha = rng.uniform(size=30)
    alpha /= alpha.sum()
    t = local_linear_weights(X, x, alpha)
    assert abs(t.sum() - 1.0) <= 1e-10
    assert np.linalg.norm(t @ (X - x)) <= 1e-8 * (1 + np.linalg.norm(x))


def test_scalar_closed_form_matches_matrix_path():
    rng = np.random.default_rng(6)
    for _ in range(20):
        X1 = rng.uniform(size=12)
        x = float(rng.uniform())
        alpha = rng.uniform(size=12)
        alpha /= alpha.sum()
        t_matrix = local_linear_weights(X1.reshape(-1, 1), np.array([x]),
                                        alpha)
        t_scalar = scalar_local_linear_weights(X1, x, alpha)
        assert np.allclose(t_matrix, t_scalar, atol=1e-10)


def test_gfr_weights_average_to_one():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(25, 3))
    model = fit_gfr(X, scalar_data(rng.normal(size=25)), SCALAR)
    for x in rng.uniform(size=(20, 3)):
        s = gfr_weights(model, x)
        assert abs(s.sum() - 1.0) <= 1e-10


def test_gfr_at_mean_is_unweighted_mean():
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(30, 2))
    y = rng.normal(size=30)
    model = fit_gfr(X, scalar_data(y), SCALAR)
    out = predict_gfr(model, X.mean(axis=0))
    assert out[0] == pytest.approx(y.mean(), abs=1e-10)


# ---------------------------------------------------------------------------
# kernel baselines


def test_nw_trivial_cases():
    rng = np.random.default_rng(9)
    X = rng.uniform(size=(20, 2))
    y = rng.normal(size=20)
    # huge bandwidth: (almost) uniform weights
    out = predict_nw(X, scalar_data(y), SCALAR, np.array([0.5, 0.5]), 1e6)
    assert out[0] == pytest.approx(y.mean(), abs=1e-6)
    single = predict_nw(X[:1], scalar_data(y[:1]), SCALAR,
                        np.array([0.9, 0.9]), 5.0)
    assert single[0] == pytest.approx(y[0], abs=1e-12)


def test_nw_zero_mass_rejected():
    X = np.array([[0.0], [1.0]])
    y = scalar_data([0.0, 1.0])
    with pytest.raises(ValueError):
        predict_nw(X, y, SCALAR, np.array([10.0]), 0.01)


def test_lfr_kernel_symmetric_design_reduces_to_nw():
    X = np.array([[0.2], [0.5], [0.8]])
    y = scalar_data([1.0, 2.0, 4.0])
    h = 0.5
    nw = predict_nw(X, y, SCALAR, np.array([0.5]), h)
    ll = predict_lfr_kernel(X, y, SCALAR, np.array([0.5]), h)
    # symmetric design: mu_1 = 0, so t = alpha and the two coincide
    assert ll[0] == pytest.approx(nw[0], abs=1e-10)


# ---------------------------------------------------------------------------
# identical responses and divergence witness


def test_identical_responses_returned():
    rng = np.random.default_rng(10)
    X = rng.uniform(size=(30, 2))
    y = np.full(30, 3.5)
    model = scalar_forest(X, y)
    x = np.array([0.5, 0.5])
    assert predict_rfwlcfr(model, x)[0] == pytest.approx(3.5, abs=1e-12)
    assert predict_rfwllfr(model, x)[0] == pytest.approx(3.5, abs=1e-8)


def test_frf_diverges_from_rfwlcfr_on_sphere():
    # curved geometry: mean of per-tree means differs from the pooled mean
    rng = np.random.default_rng(11)
    space = sphere_space(3)
    n = 40
    X = rng.uniform(size=(n, 2))
    theta = 0.3 + 2.2 * X[:, 0] + 0.4 * rng.normal(size=n)
    Y = np.column_stack([np.sin(theta), np.zeros(n), np.cos(theta)])
    Y += 0.15 * rng.normal(size=(n, 3))
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    model = fit_forest(X, Y, space,
                       ForestConfig(num_trees=10,
                                    tree=TreeConfig(max_depth=3, min_leaf=3),
                                    master_seed=5))
    x = np.array([0.5, 0.5])
    a = predict_rfwlcfr(model, x)
    b = predict_frf(model, x)
    assert distance(space, a, b) > 0.0


# ---------------------------------------------------------------------------
# cross-validation


def test_tune_cv_single_cell():
    rng = np.random.default_rng(12)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(rng.normal(size=30))
    cell = {"bandwidth": 0.4}
    best, table = tune_cv(X, Y, SCALAR, "nw", [cell], folds=3, seed=0)
    assert best == cell
    assert len(table) == 1


def test_tune_cv_duplicate_cells_first_wins():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(rng.normal(size=30))
    grid = [{"bandwidth": 0.4}, {"bandwidth": 0.4}]
    best, table = tune_cv(X, Y, SCALAR, "nw", grid, folds=3, seed=0)
    assert best is grid[0]
    assert table[0]["mean_error"] == table[1]["mean_error"]


def test_tune_cv_matches_fold_replay():
    rng = np.random.default_rng(14)
    n = 40
    X = rng.uniform(size=(n, 1))
    Y = scalar_data(np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=n))
    grid = [{"bandwidth": 0.2}, {"bandwidth": 0.6}]
    best, table = tune_cv(X, Y, SCALAR, "nw", grid, folds=4, seed=3)
    parts = regressors._kfold_indices(n, 4, 3)
    for cell, row in zip(grid, table):
        errs = []
        for test_idx in parts:
            tr = np.setdiff1d(np.arange(n), test_idx)
            preds = [predict_nw(X[tr], Y[tr], SCALAR, X[i],
                                cell["bandwidth"]) for i in test_idx]
            errs.append(np.mean([(p[0] - Y[i, 0]) ** 2
                                 for p, i in zip(preds, test_idx)]))
        assert row["mean_error"] == pytest.approx(np.mean(errs), abs=1e-10)
    means = [row["mean_error"] for row in table]
    assert best == grid[int(np.argmin(means))]


def test_tune_cv_failing_cell_scores_inf():
    rng = np.random.default_rng(15)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(rng.normal(size=30))
    grid = [{"bandwidth": 1e-6}, {"bandwidth": 0.5}]
    best, table = tune_cv(X, Y, SCALAR, "nw", grid, folds=3, seed=0)
    assert table[0]["mean_error"] == np.inf
    assert best == grid[1]


def test_tune_cv_keeps_the_text_of_each_failed_fold():
    rng = np.random.default_rng(15)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(rng.normal(size=30))
    grid = [{"bandwidth": 1e-6}, {"bandwidth": 0.5}]
    _, table = tune_cv(X, Y, SCALAR, "nw", grid, folds=3, seed=0)
    assert [fold for fold, _ in table[0]["failures"]] == [0, 1, 2]
    assert all("no kernel mass" in msg for _, msg in table[0]["failures"])
    assert table[1]["failures"] == []


def test_best_cell_takes_the_first_cell_on_an_exact_tie():
    grid = [{"bandwidth": 0.1}, {"bandwidth": 0.2}, {"bandwidth": 0.4}]
    errors = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    assert regressors.best_cell(grid, errors) is grid[1]


def test_best_cell_never_prefers_a_row_holding_inf():
    grid = [{"bandwidth": 0.1}, {"bandwidth": 0.2}]
    errors = np.array([[0.0, np.inf], [1e300, 1e300]])
    assert regressors.best_cell(grid, errors) is grid[1]
    assert regressors.best_cell(grid, np.full((2, 3), np.inf)) is grid[0]


def test_kernel_grid_defaults_to_the_bandwidth_grid():
    assert regressors.kernel_grid() == [
        {"bandwidth": h} for h in regressors.BANDWIDTH_GRID]
    assert regressors.kernel_grid([1, 0.5]) == [{"bandwidth": 1.0},
                                                {"bandwidth": 0.5}]


# ---------------------------------------------------------------------------
# permutation invariance


def test_prediction_permutation_invariance():
    rng = np.random.default_rng(16)
    n = 40
    X = rng.uniform(size=(n, 2))
    y = rng.normal(size=n)
    x = np.array([0.4, 0.6])
    perm = rng.permutation(n)
    g1 = fit_gfr(X, scalar_data(y), SCALAR)
    g2 = fit_gfr(X[perm], scalar_data(y[perm]), SCALAR)
    assert predict_gfr(g1, x)[0] == pytest.approx(predict_gfr(g2, x)[0],
                                                  abs=1e-10)
    a = predict_nw(X, scalar_data(y), SCALAR, x, 0.4)
    b = predict_nw(X[perm], scalar_data(y[perm]), SCALAR, x, 0.4)
    assert a[0] == pytest.approx(b[0], abs=1e-10)
