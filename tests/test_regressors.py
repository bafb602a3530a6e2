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


def test_cv_rejects_more_folds_than_samples():
    # an empty test fold failed every cell with a message about stacking
    rng = np.random.default_rng(16)
    X = rng.uniform(size=(12, 2))
    Y = scalar_data(rng.normal(size=12))
    tune_cv(X, Y, SCALAR, "nw", [{"bandwidth": 0.5}], folds=12, seed=0)
    for folds in (1, 13, 20):
        with pytest.raises(ValueError, match=f"need 2 to 12 folds for 12 "
                                             f"samples, got {folds}"):
            tune_cv(X, Y, SCALAR, "nw", [{"bandwidth": 0.5}], folds=folds)


def test_best_cell_takes_the_first_cell_on_an_exact_tie():
    grid = [{"bandwidth": 0.1}, {"bandwidth": 0.2}, {"bandwidth": 0.4}]
    errors = np.array([[3.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    assert regressors.best_cell(grid, errors) is grid[1]


def test_best_cell_never_prefers_a_row_holding_inf():
    grid = [{"bandwidth": 0.1}, {"bandwidth": 0.2}]
    errors = np.array([[0.0, np.inf], [1e300, 1e300]])
    assert regressors.best_cell(grid, errors) is grid[1]
    assert regressors.best_cell(grid, np.full((2, 3), np.inf)) is grid[0]


@pytest.mark.parametrize("h", [-0.2, 0.0, float("nan"), float("inf")])
def test_a_bandwidth_must_be_finite_and_positive(h):
    # the kernel tests |u| <= 1, so a negative bandwidth acted as |h|
    with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
        regressors.kernel_grid([0.4, h])
    with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
        regressors.product_kernel_weights(np.array([[0.0], [0.1]]),
                                          np.array([0.05]), h)


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


# ---------------------------------------------------------------------------
# batch prediction


def _per_query(kind, fitted, x):
    if kind in regressors.FOREST_KINDS:
        return regressors._FOREST_PREDICTORS[kind](fitted, x)
    if kind == "gfr":
        return predict_gfr(fitted, x)
    X, Y, space, h = fitted
    fn = predict_nw if kind == "nw" else predict_lfr_kernel
    return fn(X, Y, space, x, h)


@pytest.mark.parametrize("scenario,metric", [("I-2", "logcholesky"),
                                             ("II-1", "affine"),
                                             ("III-2", "logcholesky")])
def test_predict_batch_equals_per_query_predictions(scenario, metric):
    from frechetforest import simulate
    rng = np.random.default_rng(12)
    data = simulate.generate(simulate.SimSetting(scenario, p=2, n=40,
                                                 spd_metric=metric), rng)
    Xq = rng.uniform(0.2, 0.8, size=(6, 2))
    forest = regressors.fit_cell("rfwlcfr", data.X, data.Y, data.space,
                                 {"max_depth": 3, "mtry": 2}, 3,
                                 TreeConfig(), 5)
    for kind in regressors.ALL_KINDS:
        fitted = (forest if kind in regressors.FOREST_KINDS else
                  regressors.fit_cell(kind, data.X, data.Y, data.space,
                                      {"bandwidth": 0.6}, 3, TreeConfig(), 5))
        batch = regressors.predict_batches([kind], fitted, Xq)[kind]
        single = np.stack([_per_query(kind, fitted, x) for x in Xq])
        if scenario == "III-2":
            assert np.max(np.abs(batch - single)) <= 1e-6, kind
        else:
            assert np.array_equal(batch, single), kind


def test_predict_batch_raises_the_per_query_message_for_a_bad_row():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(30, 2))
    Y = np.concatenate([0.3 * rng.normal(size=(30, 2)), np.ones((30, 1))],
                       axis=1)
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    fitted = (X, Y, sphere_space(3), 0.1)
    Xq = np.array([[0.5, 0.5], [5.0, 5.0], [0.4, 0.6]])  # row 1: no mass
    with pytest.raises(ValueError) as single:
        for x in Xq:
            predict_nw(X, Y, sphere_space(3), x, 0.1)
    assert "no kernel mass" in str(single.value)
    batch = regressors.predict_batches(["nw"], fitted, Xq)["nw"]
    assert isinstance(batch, ValueError) and str(batch) == str(single.value)


def test_predict_batch_raises_an_earlier_rows_solve_error_first(monkeypatch):
    # row 0's weights are valid but total negative, row 1's weights raise:
    # the per-query loop fails at row 0's solve before reaching row 1
    rng = np.random.default_rng(14)
    X = rng.uniform(size=(20, 2))
    Y = np.concatenate([0.3 * rng.normal(size=(20, 2)), np.ones((20, 1))],
                       axis=1)
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    Xq = np.array([[0.2, 0.2], [0.8, 0.8]])

    def weights(X, x, bandwidth):
        if x[0] > 0.5:
            raise ValueError("weights of a later row")
        return -np.ones(len(X)) / len(X)

    monkeypatch.setattr(regressors, "product_kernel_weights", weights)
    for space, ys in [(sphere_space(3), Y), (wasserstein_space(3), Y)]:
        for kind, fn in [("nw", predict_nw),
                         ("lfr_kernel", predict_lfr_kernel)]:
            with pytest.raises(ValueError) as single:
                for x in Xq:
                    fn(X, ys, space, x, 0.5)
            assert "total" in str(single.value)
            batch = regressors.predict_batches([kind], (X, ys, space, 0.5),
                                               Xq)[kind]
            assert isinstance(batch, ValueError)
            assert str(batch) == str(single.value)


@pytest.mark.parametrize("scenario", ["I-1", "III-2"])
def test_predict_batches_of_no_queries_are_empty(scenario):
    from frechetforest import simulate
    data = simulate.generate(simulate.SimSetting(scenario, p=2, n=30),
                             np.random.default_rng(15))
    forest = regressors.fit_cell("rfwlcfr", data.X, data.Y, data.space,
                                 {"max_depth": 3, "mtry": 2}, 3,
                                 TreeConfig(), 5)
    for kinds, fitted in [
            (regressors.FOREST_KINDS, forest),
            (["gfr"], regressors.fit_gfr(data.X, data.Y, data.space)),
            (["nw"], (data.X, data.Y, data.space, 0.5))]:
        out = regressors.predict_batches(kinds, fitted, np.empty((0, 2)))
        for kind in kinds:
            assert out[kind].shape == (0,) + data.space.shape, kind


# ---------------------------------------------------------------------------
# one scoring pass per forest and query batch


def test_forest_cv_routes_each_tree_and_query_once_per_cell_and_fold(
        monkeypatch):
    from frechetforest import forest
    rng = np.random.default_rng(18)
    n, folds, num_trees = 36, 3, 4
    X = rng.uniform(size=(n, 2))
    space = wasserstein_space(5)
    Y = np.sort(X[:, :1] + 0.2 * rng.normal(size=(n, 5)), axis=1)
    grid = [{"max_depth": d, "mtry": m} for d in (2, 4) for m in (1, 2)]
    routed = []
    original = forest.leaf_for

    def counting(tree, x):
        routed.append(1)
        return original(tree, x)

    monkeypatch.setattr(forest, "leaf_for", counting)
    errors = regressors.cv_errors(X, Y, space, ["rfwlcfr", "rfwllfr"], grid,
                                  folds, 5, num_trees, TreeConfig(min_leaf=3))
    assert all(np.isfinite(e).all() for e in errors.values())
    # the test folds hold each sample once
    assert len(routed) == len(grid) * num_trees * n


def test_predict_batches_share_one_forest_pass_and_fail_alone(monkeypatch):
    rng = np.random.default_rng(19)
    X = rng.uniform(size=(40, 2))
    Y = scalar_data(X[:, 0] + 0.1 * rng.normal(size=40))
    model = scalar_forest(X, Y[:, 0], seed=4)
    Xq = rng.uniform(size=(6, 2))
    expected = {k: regressors.predict_forest_batch(model, Xq, k)
                for k in regressors.FOREST_KINDS}
    passes = []
    original = regressors.forest_weights

    def counting(*args):
        passes.append(1)
        return original(*args)

    def failing(*args):
        raise ValueError("local design failed")

    monkeypatch.setattr(regressors, "forest_weights", counting)
    out = regressors.predict_batches(regressors.FOREST_KINDS, model, Xq)
    assert len(passes) == 1
    for k in regressors.FOREST_KINDS:
        assert np.array_equal(out[k], expected[k])
    monkeypatch.setattr(regressors, "_local_linear_rows", failing)
    out = regressors.predict_batches(regressors.FOREST_KINDS, model, Xq)
    assert str(out["rfwllfr"]) == "local design failed"
    for k in ("rfwlcfr", "frf"):
        assert np.array_equal(out[k], expected[k])
    with pytest.raises(ValueError, match="local design failed"):
        regressors.predict_forest_batch(model, Xq, "rfwllfr")


def _single_local_linear_weights(X, x, alpha):
    # the one-query form: a 2-D design, one solve, the ridge if singular
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
        lam = 1e-8 * max(np.trace(M) / M.shape[0], 1.0)
        v = np.linalg.solve(M + lam * np.eye(M.shape[0]), e1)
    return alpha * (design @ v)


def test_local_linear_rows_equal_the_single_form_bit_for_bit():
    rng = np.random.default_rng(41)
    # the last shape spans two blocks of rows
    for n, p, m in ((67, 2, 33), (30, 1, 5), (25, 4, 40)):
        X = rng.uniform(size=(n, p))
        Xq = rng.uniform(size=(m, p))
        A = rng.uniform(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.5)
        # all weight on a sample at the query: a singular design, which
        # fails its block's stacked solve and takes the ridge
        Xq[1], A[1] = X[3], np.eye(n)[3]
        rows = list(regressors._local_linear_rows(X, Xq, A))
        assert len(rows) == m
        for t, x, a in zip(rows, Xq, A):
            single = _single_local_linear_weights(X, x, a)
            assert np.array_equal(t, single)
            assert np.array_equal(local_linear_weights(X, x, a), single)
    A[2] = 0.0
    rows = regressors._local_linear_rows(X, Xq, A)
    next(rows), next(rows)
    with pytest.raises(ValueError, match="total kernel weight must be"):
        next(rows)
    with pytest.raises(ValueError, match="total kernel weight must be"):
        local_linear_weights(X, Xq[2], A[2])


def test_kernel_mass_screen_decides_as_product_kernel_weights():
    rng = np.random.default_rng(43)
    X = rng.uniform(size=(40, 2))
    Xq = np.concatenate([rng.uniform(-0.3, 1.3, size=(60, 2)), X[:5] + 0.04])
    for h in (0.02, 0.05, 0.25):
        mass = regressors.has_kernel_mass(X, Xq, h)
        for x, ok in zip(Xq, mass):
            try:
                regressors.product_kernel_weights(X, x, h)
            except ValueError:
                assert not ok
            else:
                assert ok
    assert not regressors.has_kernel_mass(X, Xq, 0.02).all()
    assert regressors.has_kernel_mass(X, Xq, 0.02).any()
    # a sample on the kernel's edge, |u| = 1, gets weight 0
    X1 = np.array([[0.0], [0.5]])
    assert not regressors.has_kernel_mass(X1, np.array([[0.25]]), 0.25)[0]
    assert regressors.has_kernel_mass(X1, np.array([[0.2]]), 0.25)[0]
    with pytest.raises(ValueError, match="no kernel mass"):
        regressors.product_kernel_weights(X1, np.array([0.25]), 0.25)
    # the weights are np.prod's factor products, bit for bit
    for p in (1, 3, 5):
        X = rng.uniform(size=(50, p))
        x = rng.uniform(size=p)
        u = (X - x) / 0.6
        w = np.prod(np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0),
                    axis=1)
        assert np.array_equal(regressors.product_kernel_weights(X, x, 0.6),
                              w / w.sum())


@pytest.mark.parametrize("width", [1, 3])
def test_queries_of_another_width_are_rejected(width):
    # every kind, per query and per batch, rejects a query whose width is
    # not the training X's, with one message
    from frechetforest import simulate
    data = simulate.generate(simulate.SimSetting("I-1", p=2, n=30),
                             np.random.default_rng(21))
    X, Y, space = data.X, data.Y, data.space
    forest = regressors.fit_cell("rfwlcfr", X, Y, space,
                                 {"max_depth": 3, "mtry": 2}, 3,
                                 TreeConfig(), 5)
    gfr = fit_gfr(X, Y, space)
    Xq = np.random.default_rng(22).uniform(size=(3, width))
    per_query = {
        "rfwlcfr": lambda x: predict_rfwlcfr(forest, x),
        "rfwllfr": lambda x: predict_rfwllfr(forest, x),
        "frf": lambda x: predict_frf(forest, x),
        "gfr": lambda x: predict_gfr(gfr, x),
        "nw": lambda x: predict_nw(X, Y, space, x, 0.5),
        "lfr_kernel": lambda x: predict_lfr_kernel(X, Y, space, x, 0.5)}
    message = (f"a query must have 2 predictor columns, as the training X "
               f"has; got shape ({width},)")
    for kind, predict in per_query.items():
        with pytest.raises(ValueError) as info:
            predict(Xq[0])
        assert str(info.value) == message, kind
    message = message.replace(f"({width},)", f"(3, {width})")
    for kinds, fitted in [(regressors.FOREST_KINDS, forest), (["gfr"], gfr),
                          (regressors.KERNEL_KINDS, (X, Y, space, 0.5))]:
        with pytest.raises(ValueError) as info:
            regressors.predict_batches(kinds, fitted, Xq)
        assert str(info.value) == message, kinds
    for kind in regressors.FOREST_KINDS:
        with pytest.raises(ValueError) as info:
            regressors.predict_forest_batch(forest, Xq, kind)
        assert str(info.value) == message, kind
