"""Acceptance suite: one test per criterion, one verdict line each.

Monte-Carlo criteria use reduced cross-validation grids (fewer folds and
cross-validation trees than the full benchmark defaults) to stay inside the
stated runtime budgets; final fits always use 100 trees.
"""

import math

import numpy as np
import pytest

from frechetforest import cli, regressors, simulate, spaces
from frechetforest.forest import ForestConfig, fit_forest, kernel_weights
from frechetforest.regressors import (fit_gfr, local_linear_weights,
                                      predict_frf, predict_gfr,
                                      predict_lfr_kernel, predict_nw,
                                      predict_rfwlcfr, predict_rfwllfr,
                                      scalar_local_linear_weights)
from frechetforest.simulate import MonteCarloConfig, SimSetting, monte_carlo
from frechetforest.spaces import (distance, frechet_objective, matrix_exp,
                                  matrix_log, spd_space, sphere_exp,
                                  sphere_log, sphere_space, wasserstein_space,
                                  weighted_frechet_mean)
from frechetforest.tree import TreeConfig

SCALAR = wasserstein_space(1)


def scalar_data(y):
    return np.asarray(y, dtype=float).reshape(-1, 1)


def weighted_linear_fit(X, y, w, x):
    """Weighted local-linear oracle: intercept of a weighted LS fit at x."""
    design = np.column_stack([np.ones(len(X)), X - x])
    A = design.T @ (w[:, None] * design)
    b = design.T @ (w * y)
    return float(np.linalg.solve(A, b)[0])


# ---------------------------------------------------------------------------
# criterion 1: Euclidean degeneration


def test_criterion_01_euclidean_degeneration(criterion):
    ok = True
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n, p = 30, 2
        X = rng.uniform(size=(n, p))
        y = np.sin(3 * X[:, 0]) + X[:, 1] + 0.2 * rng.normal(size=n)
        Y = scalar_data(y)
        x = rng.uniform(0.2, 0.8, size=p)
        model = fit_forest(X, Y, SCALAR,
                           ForestConfig(num_trees=10,
                                        tree=TreeConfig(max_depth=3,
                                                        min_leaf=3),
                                        master_seed=i))
        alpha = kernel_weights(model, x)
        ok &= abs(predict_rfwlcfr(model, x)[0] - alpha @ y) <= 1e-8
        ok &= abs(predict_rfwllfr(model, x)[0]
                  - weighted_linear_fit(X, y, alpha, x)) <= 1e-8
        gm = fit_gfr(X, Y, SCALAR)
        design = np.column_stack([np.ones(n), X])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        ok &= abs(predict_gfr(gm, x)[0]
                  - coef @ np.concatenate([[1.0], x])) <= 1e-8
        h = 0.4
        u = (X - x) / h
        k = np.prod(np.where(np.abs(u) <= 1, 0.75 * (1 - u ** 2), 0.0),
                    axis=1)
        ok &= abs(predict_nw(X, Y, SCALAR, x, h)[0]
                  - (k @ y) / k.sum()) <= 1e-8
        ok &= abs(predict_lfr_kernel(X, Y, SCALAR, x, h)[0]
                  - weighted_linear_fit(X, y, k / k.sum(), x)) <= 1e-8
    criterion(1, "Euclidean degeneration", ok)


# ---------------------------------------------------------------------------
# criterion 2: FRF / RFWLCFR coincidence on embedded spaces


def test_criterion_02_frf_coincidence(criterion):
    ok = True
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        if i % 2 == 0:
            space = wasserstein_space(11)
            Y = np.sort(rng.normal(size=(50, 11))
                        + 2 * rng.uniform(size=(50, 1)), axis=1)
        else:
            space = spd_space(2, "logcholesky")
            a = rng.normal(size=(50, 2, 2))
            Y = a @ a.transpose(0, 2, 1) + 0.2 * np.eye(2)
        X = rng.uniform(size=(50, 2))
        model = fit_forest(X, Y, space,
                           ForestConfig(num_trees=15,
                                        tree=TreeConfig(max_depth=4,
                                                        min_leaf=4),
                                        master_seed=i))
        for x in rng.uniform(size=(5, 2)):
            alpha = kernel_weights(model, x)
            a_out = predict_rfwlcfr(model, x)
            b_out = predict_frf(model, x)
            gap = abs(frechet_objective(space, Y, alpha, a_out)
                      - frechet_objective(space, Y, alpha, b_out))
            ok &= gap <= 1e-8
    # sphere witness: the two estimators genuinely disagree
    rng = np.random.default_rng(2718)
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
    ok &= distance(space, predict_rfwlcfr(model, x),
                   predict_frf(model, x)) > 0.0
    criterion(2, "FRF/RFWLCFR coincidence + sphere witness", ok)


# ---------------------------------------------------------------------------
# criteria 3-6: Monte-Carlo table orderings at desk scale

_CFG_DIST = MonteCarloConfig(runs=20, num_trees=100, cv_trees=25, folds=3,
                             depth_grid=(3, 5, 7), mtry_grid=(1, 2))
_CFG_SPHERE = MonteCarloConfig(runs=20, num_trees=50, cv_trees=10, folds=2,
                               depth_grid=(3, 5), mtry_grid=(1, 2))
_CFG_SPD = MonteCarloConfig(runs=10, num_trees=100, cv_trees=25, folds=3,
                            depth_grid=(3, 5, 7), mtry_grid=(2, 3))


@pytest.mark.slow
def test_criterion_03_table1_nonlinear_ordering(criterion):
    res = monte_carlo(SimSetting("I-2", p=2, n=100),
                      ["gfr", "rfwlcfr", "rfwllfr"], _CFG_DIST, seed=31)
    m = {k: res.summary[k]["mean_mse"] for k in res.summary}
    ok = (not res.failures
          and m["rfwllfr"] < m["rfwlcfr"] < m["gfr"] / 3)
    criterion(3, f"I-2 ordering (rfwllfr {m['rfwllfr']:.4f} < rfwlcfr "
                 f"{m['rfwlcfr']:.4f} < gfr/3 {m['gfr'] / 3:.4f})", ok)


@pytest.mark.slow
def test_criterion_04_table1_linear_ordering(criterion):
    res = monte_carlo(SimSetting("I-1", p=2, n=100), ["gfr", "rfwlcfr"],
                      _CFG_DIST, seed=41)
    m = {k: res.summary[k]["mean_mse"] for k in res.summary}
    ok = not res.failures and m["gfr"] < m["rfwlcfr"]
    criterion(4, f"I-1 ordering (gfr {m['gfr']:.4f} < rfwlcfr "
                 f"{m['rfwlcfr']:.4f})", ok)


@pytest.mark.slow
def test_criterion_05_table4_sphere_ordering(criterion):
    res = monte_carlo(SimSetting("III-2", p=2, n=100),
                      ["rfwlcfr", "rfwllfr"], _CFG_SPHERE, seed=51)
    m = {k: res.summary[k]["mean_mse"] for k in res.summary}
    ok = not res.failures and m["rfwllfr"] < m["rfwlcfr"]
    criterion(5, f"III-2 ordering (rfwllfr {m['rfwllfr']:.4f} < rfwlcfr "
                 f"{m['rfwlcfr']:.4f})", ok)


@pytest.mark.slow
def test_criterion_06_table2_spd_ordering(criterion):
    res = monte_carlo(SimSetting("II-1", p=5, n=200),
                      ["gfr", "rfwlcfr", "rfwllfr"], _CFG_SPD, seed=61)
    m = {k: res.summary[k]["mean_mse"] for k in res.summary}
    ok = (not res.failures
          and m["rfwllfr"] < m["rfwlcfr"] < m["gfr"])
    criterion(6, f"II-1 ordering (rfwllfr {m['rfwllfr']:.3f} < rfwlcfr "
                 f"{m['rfwlcfr']:.3f} < gfr {m['gfr']:.3f})", ok)


# ---------------------------------------------------------------------------
# criterion 7: Fréchet-mean solvers versus brute-force candidate grids


def fibonacci_sphere(n):
    i = np.arange(n)
    golden = (1 + math.sqrt(5)) / 2
    z = 1 - (2 * i + 1) / n
    theta = 2 * math.pi * i / golden
    r = np.sqrt(np.maximum(1 - z * z, 0.0))
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def affine2_sqdist_to_candidates(Y, C):
    """d_A(Y, C_m)^2 for one SPD 2x2 Y and a stack of SPD 2x2 candidates.

    Uses the closed form through the eigenvalues of Y^{-1} C, which solve
    lambda^2 - T lambda + D = 0 with T, D from traces and determinants.
    """
    detY = Y[0, 0] * Y[1, 1] - Y[0, 1] ** 2
    detC = C[:, 0, 0] * C[:, 1, 1] - C[:, 0, 1] ** 2
    D = detC / detY
    T = (Y[1, 1] * C[:, 0, 0] - 2 * Y[0, 1] * C[:, 0, 1]
         + Y[0, 0] * C[:, 1, 1]) / detY
    disc = np.sqrt(np.maximum(T * T - 4 * D, 0.0))
    lam1 = np.maximum((T + disc) / 2, 1e-300)
    lam2 = np.maximum((T - disc) / 2, 1e-300)
    return np.log(lam1) ** 2 + np.log(lam2) ** 2


def test_criterion_07_mean_solver_oracles(criterion):
    ok = True
    grid = fibonacci_sphere(100_000)
    space_s = sphere_space(3)
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        k = 6
        ys = rng.normal(size=(k, 3))
        ys /= np.linalg.norm(ys, axis=1, keepdims=True)
        if i % 2 == 0:
            w = rng.uniform(0.1, 1.0, size=k)
        else:
            w = rng.uniform(-0.2, 1.0, size=k)
            if w.sum() <= 0.1:
                w += (0.2 - w.sum()) / k
        out, info = weighted_frechet_mean(space_s, ys, w, return_info=True)
        dots = np.clip(grid @ ys.T, -1.0, 1.0)
        # the solver reports the objective under sum-normalized weights
        grid_obj = (np.arccos(dots) ** 2 @ (w / w.sum())).min()
        ok &= info["objective"] <= grid_obj + 1e-3

    space_a = spd_space(2, "affine")
    for i in range(50):
        rng = np.random.default_rng(7500 + i)
        k = 5
        a = rng.normal(size=(k, 2, 2))
        ys = a @ a.transpose(0, 2, 1) + 0.3 * np.eye(2)
        if i % 2 == 0:
            w = rng.uniform(0.1, 1.0, size=k)
        else:
            w = rng.uniform(-0.2, 1.0, size=k)
            if w.sum() <= 0.1:
                w += (0.2 - w.sum()) / k
        out, info = weighted_frechet_mean(space_a, ys, w, return_info=True)
        # candidates: log-space perturbations around the weighted log mean
        logs = np.stack([matrix_log(y) for y in ys])
        center = np.tensordot(np.abs(w) / np.abs(w).sum(), logs, axes=1)
        m = 100_000
        pert = rng.normal(size=(m, 2, 2))
        pert = (pert + pert.transpose(0, 2, 1)) / 2
        radii = np.concatenate([np.zeros(1),
                                np.geomspace(1e-3, 1.5, m - 1)])
        cand_logs = center + radii[:, None, None] * pert
        evals, evecs = np.linalg.eigh(cand_logs)
        C = np.einsum("mij,mj,mkj->mik", evecs, np.exp(evals), evecs)
        obj = np.zeros(m)
        for wi, y in zip(w / w.sum(), ys):
            obj += wi * affine2_sqdist_to_candidates(y, C)
        ok &= info["objective"] <= obj.min() + 1e-3
    criterion(7, "mean solvers within 1e-3 of brute-force grids", ok)


# ---------------------------------------------------------------------------
# criterion 8: weight identities


def test_criterion_08_weight_identities(criterion):
    rng = np.random.default_rng(8)
    n, p = 200, 3
    X = rng.uniform(size=(n, p))
    Y = scalar_data(np.sin(4 * X[:, 0]) + 0.2 * rng.normal(size=n))
    model = fit_forest(X, Y, SCALAR,
                       ForestConfig(num_trees=30,
                                    tree=TreeConfig(max_depth=5, min_leaf=5,
                                                    mtry=2),
                                    master_seed=88))
    ok = True
    for x in rng.uniform(size=(1000, p)):
        alpha = kernel_weights(model, x)
        ok &= bool(np.all(alpha >= 0.0))
        ok &= abs(alpha.sum() - 1.0) <= 1e-12
        t = local_linear_weights(X, x, alpha)
        ok &= abs(t.sum() - 1.0) <= 1e-10
        ok &= np.linalg.norm(t @ (X - x)) <= 1e-8 * (1 + np.linalg.norm(x))
    criterion(8, "weight identities on 1000 queries", ok)


# ---------------------------------------------------------------------------
# criterion 9: honesty audit


def test_criterion_09_honesty_audit(criterion):
    ok = True
    for i in range(100):
        rng = np.random.default_rng(9000 + i)
        n = 30
        X = rng.uniform(size=(n, 2))
        y = np.sin(3 * X[:, 0]) + 0.3 * rng.normal(size=n)
        cfg = ForestConfig(num_trees=1,
                           tree=TreeConfig(max_depth=4, min_leaf=2,
                                           honest=True),
                           subsample_mode="without_replacement",
                           master_seed=i)
        model = fit_forest(X, scalar_data(y), SCALAR, cfg)
        struct = set(model.trees[0].structure_indices.tolist())
        x = rng.uniform(size=2)
        w = kernel_weights(model, x)
        ok &= not (set(np.flatnonzero(w > 0).tolist()) & struct)
        # mutating structure-half responses never moves weight onto them
        y2 = y.copy()
        y2[list(struct)] += rng.normal(size=len(struct))
        model2 = fit_forest(X, scalar_data(y2), SCALAR, cfg)
        ok &= set(model2.trees[0].structure_indices.tolist()) == struct
        w2 = kernel_weights(model2, x)
        ok &= not (set(np.flatnonzero(w2 > 0).tolist()) & struct)
    criterion(9, "honesty audit over 100 trials", ok)


# ---------------------------------------------------------------------------
# criterion 10: geometry roundtrips and closed-form distances


def test_criterion_10_geometry(criterion):
    ok = True
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        y = a @ a.T + 0.1 * np.eye(3)
        ok &= np.linalg.norm(matrix_exp(matrix_log(y)) - y) <= 1e-9
        u, v = rng.normal(size=(2, 3))
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        ok &= np.linalg.norm(sphere_exp(u, sphere_log(u, v)) - v) <= 1e-9
    spaces_list = [wasserstein_space(21), spd_space(3, "logcholesky"),
                   spd_space(3, "affine"), sphere_space(3)]
    for space in spaces_list:
        r = np.random.default_rng(101)
        for _ in range(1000):
            objs = []
            for _ in range(3):
                if space.kind == spaces.WASSERSTEIN:
                    objs.append(np.sort(r.normal(size=space.dim)))
                elif space.kind == spaces.SPHERE:
                    v = r.normal(size=space.dim)
                    objs.append(v / np.linalg.norm(v))
                else:
                    a = r.normal(size=(space.dim, space.dim))
                    objs.append(a @ a.T + 0.1 * np.eye(space.dim))
            da, db, dc = (distance(space, objs[0], objs[1]),
                          distance(space, objs[0], objs[2]),
                          distance(space, objs[2], objs[1]))
            ok &= da >= 0.0
            ok &= abs(da - distance(space, objs[1], objs[0])) <= 1e-12
            ok &= da <= db + dc + 1e-9
    ok &= abs(distance(spd_space(2, "logcholesky"), np.eye(2), 4 * np.eye(2))
              - math.sqrt(2) * math.log(2)) <= 1e-9
    ok &= abs(distance(spd_space(3, "affine"), np.eye(3),
                       math.exp(2) * np.eye(3)) - 2 * math.sqrt(3)) <= 1e-9
    criterion(10, "geometry roundtrips, axioms, closed forms", ok)


# ---------------------------------------------------------------------------
# criterion 11: p = 1 local-linear equivalence


def test_criterion_11_scalar_local_linear_equivalence(criterion):
    rng = np.random.default_rng(11)
    n = 60
    X = rng.uniform(size=(n, 1))
    space = wasserstein_space(5)
    Y = np.sort(rng.normal(size=(n, 5)) + 3 * X, axis=1)
    model = fit_forest(X, Y, space,
                       ForestConfig(num_trees=20,
                                    tree=TreeConfig(max_depth=4, min_leaf=4),
                                    master_seed=111))
    ok = True
    for _ in range(100):
        x = rng.uniform(0.05, 0.95, size=1)
        alpha = kernel_weights(model, x)
        t_matrix = local_linear_weights(X, x, alpha)
        t_scalar = scalar_local_linear_weights(X[:, 0], float(x[0]), alpha)
        pred_matrix = weighted_frechet_mean(space, Y, t_matrix)
        pred_scalar = weighted_frechet_mean(space, Y, t_scalar)
        ok &= np.max(np.abs(pred_matrix - pred_scalar)) <= 1e-10
    criterion(11, "p=1 matrix vs closed-form local-linear path", ok)


# ---------------------------------------------------------------------------
# criterion 12: bench-table determinism


def test_criterion_12_bench_table_determinism(criterion, tmp_path):
    base = ["bench-table", "--scenario", "I-1", "--p", "2", "--n", "40",
            "--runs", "2", "--estimators", "gfr,rfwlcfr", "--seed", "12",
            "--num-trees", "10", "--cv-trees", "5", "--folds", "2",
            "--depth-grid", "3", "5", "--mtry-grid", "1", "2"]
    rcs = [cli.main(base + ["--jobs", "1", "--out-dir", str(tmp_path / "a")]),
           cli.main(base + ["--jobs", "1", "--out-dir", str(tmp_path / "b")]),
           cli.main(base + ["--jobs", "8", "--out-dir", str(tmp_path / "c")])]
    ok = rcs == [0, 0, 0]
    for name in ("summary.csv", "long.csv", "metrics.json"):
        ref = (tmp_path / "a" / name).read_bytes()
        ok &= (tmp_path / "b" / name).read_bytes() == ref
        ok &= (tmp_path / "c" / name).read_bytes() == ref
    criterion(12, "bench-table byte-identical across runs and jobs", ok)
