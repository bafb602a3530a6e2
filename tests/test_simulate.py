"""Synthetic generators and the Monte-Carlo harness."""

import math
import statistics
import warnings

import numpy as np
import pytest

from frechetforest import simulate, spaces
from frechetforest.simulate import (Dataset, MonteCarloConfig, SimSetting,
                                    evaluate_mse, gen_distribution,
                                    gen_sphere, gen_spd, generate,
                                    monte_carlo, normal_quantile_grid,
                                    quantile_levels, single_beta,
                                    sym_matrix_normal, tangent_basis)
from frechetforest.tree import TreeConfig


def test_betas_match_published_values():
    assert np.allclose(single_beta(2), [0.75, 0.25])
    b5 = single_beta(5)
    assert np.allclose(b5, [0.1, 0.2, 0.3, 0.4, 0.0])
    b20 = single_beta(20)
    assert np.allclose(b20[:4], np.array([0.1, 0.2, 0.3, 0.4]) / 2)
    assert np.allclose(b20[-4:], np.array([0.1, 0.2, 0.3, 0.4]) / 2)
    assert np.allclose(b20[4:16], 0.0)


def test_quantile_grid_midpoints():
    t = quantile_levels(21)
    assert t[0] == pytest.approx(1 / 42)
    assert t[-1] == pytest.approx(41 / 42)
    assert np.allclose(np.diff(t), 1 / 21)


def test_normal_quantile_grid():
    g = normal_quantile_grid(2.0, 3.0, 21)
    z = [statistics.NormalDist().inv_cdf(t) for t in quantile_levels(21)]
    assert np.allclose(g, 2.0 + 3.0 * np.array(z))


def test_i1_sigma_zero_degenerate():
    setting = SimSetting("I-1", p=2, n=25, sigma=0.0)
    data = gen_distribution(setting, np.random.default_rng(0))
    mu = 5.0 * data.X @ single_beta(2) - 2.5
    expect = normal_quantile_grid(mu, np.ones(25), 21)
    assert np.allclose(data.Y, expect, atol=1e-12)
    assert np.allclose(data.Y, data.truth, atol=1e-12)


def test_i1_truth_is_conditional_frechet_mean():
    # averaging quantile functions of N(mu, 1) over mu ~ N(a, sigma^2)
    # yields a + Phi^{-1}(t): Monte-Carlo audit
    rng = np.random.default_rng(1)
    a, sigma = 1.3, 0.2
    draws = a + sigma * rng.standard_normal(10 ** 6)
    grid = normal_quantile_grid(draws, np.ones_like(draws), 21)
    assert np.max(np.abs(grid.mean(axis=0)
                         - normal_quantile_grid(a, 1.0, 21))) < 1e-3


def test_generated_objects_pass_invariants():
    rng = np.random.default_rng(2)
    for sc in simulate.SCENARIOS:
        data = generate(SimSetting(sc, p=2, n=30), rng)
        for y in data.Y:
            spaces.validate_object(data.space, y)
        for y in data.truth:
            spaces.validate_object(data.space, y)


def test_sym_matrix_normal_moments():
    rng = np.random.default_rng(3)
    M = np.zeros((2, 2))
    sigma = math.sqrt(0.2)
    assert np.allclose(sym_matrix_normal(M, 0.0, rng), M)
    draws = np.stack([sym_matrix_normal(M, sigma, rng)
                      for _ in range(100_000)])
    var_diag = draws[:, 0, 0].var()
    var_off = draws[:, 0, 1].var()
    assert var_diag == pytest.approx(sigma ** 4, rel=0.05)
    assert var_off == pytest.approx(sigma ** 4 / 2, rel=0.05)
    assert np.allclose(draws[:, 0, 1], draws[:, 1, 0])
    with pytest.raises(ValueError):
        sym_matrix_normal(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, rng)


def test_gen_spd_sigma_zero_and_closed_form():
    setting = SimSetting("II-1", p=2, n=15, sigma=0.0)
    data = gen_spd(setting, np.random.default_rng(4))
    assert np.allclose(data.Y, data.truth, atol=1e-10)
    # beta^T x = 0 -> rho = 1, D = exp([[1,1],[1,1]]), eigenvalues 1 and e^2
    D = spaces.matrix_exp(np.array([[1.0, 1.0], [1.0, 1.0]]))
    eig = np.linalg.eigvalsh(D)
    assert eig[0] == pytest.approx(1.0, abs=1e-10)
    assert eig[1] == pytest.approx(math.exp(2.0), abs=1e-8)


def test_gen_sphere_delta_zero_and_formula():
    setting = SimSetting("III-1", p=2, n=15, sigma=0.0)
    data = gen_sphere(setting, np.random.default_rng(5))
    assert np.allclose(data.Y, data.truth, atol=1e-10)
    assert np.allclose(np.linalg.norm(data.Y, axis=1), 1.0, atol=1e-10)
    # p = 2, x = (0, 0): m = (sqrt(1)*cos 0, sqrt(1)*sin 0, 0)
    m = simulate._sphere_target(setting, np.zeros(2))
    assert np.allclose(m, [1.0, 0.0, 0.0], atol=1e-12)


def test_tangent_basis_orthonormal():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        B = tangent_basis(p)
        assert B.shape == (2, 3)
        assert np.allclose(B @ B.T, np.eye(2), atol=1e-10)
        assert np.allclose(B @ p, 0.0, atol=1e-10)


def test_evaluate_mse():
    space = spaces.sphere_space(3)
    truths = np.tile([0.0, 0.0, 1.0], (100, 1))
    preds = truths.copy()
    assert evaluate_mse(preds, truths, space) == 0.0
    preds = truths.copy()
    preds[0] = [math.sin(1.0), 0.0, math.cos(1.0)]  # distance exactly 1
    assert evaluate_mse(preds, truths, space) == pytest.approx(0.01,
                                                               abs=1e-12)
    with pytest.raises(ValueError):
        evaluate_mse(preds[:3], truths, space)


def test_evaluate_mse_direct_sum_oracle():
    rng = np.random.default_rng(7)
    space = spaces.wasserstein_space(9)
    a = np.sort(rng.normal(size=(8, 9)), axis=1)
    b = np.sort(rng.normal(size=(8, 9)), axis=1)
    direct = np.mean([spaces.distance(space, x, y) ** 2
                      for x, y in zip(a, b)])
    assert evaluate_mse(a, b, space) == pytest.approx(direct, abs=1e-12)


def test_p3_setting_rejected():
    # the p > 2 coefficient vectors set four entries
    for scenario in ("I-1", "I-2", "II-1", "III-2"):
        with pytest.raises(ValueError, match="p = 2 or p >= 4"):
            SimSetting(scenario, p=3)
    SimSetting("I-2", p=4)


def test_generators_deterministic():
    s = SimSetting("I-2", p=2, n=20)
    d1 = generate(s, np.random.default_rng(11))
    d2 = generate(s, np.random.default_rng(11))
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.Y, d2.Y)


@pytest.mark.parametrize("field,value", [
    ("runs", 0), ("test_size", 0), ("num_trees", 0), ("cv_trees", 0),
    ("folds", 1)])
def test_monte_carlo_config_rejects_counts_that_cannot_run(field, value):
    with pytest.raises(ValueError, match=field):
        MonteCarloConfig(**{field: value})


_FAST = MonteCarloConfig(runs=2, test_size=20, num_trees=8, cv_trees=4,
                         folds=2, depth_grid=(3,), mtry_grid=(2,))


def test_monte_carlo_single_run():
    cfg = MonteCarloConfig(runs=1, test_size=20, num_trees=8,
                           depth_grid=(3,), mtry_grid=(2,))
    res = monte_carlo(SimSetting("I-1", p=2, n=40), ["gfr", "rfwlcfr"], cfg,
                      seed=5)
    for k in ("gfr", "rfwlcfr"):
        assert res.summary[k]["runs"] == 1
        assert res.summary[k]["sd_mse"] == 0.0
        run_vals = [m for r, kk, m in res.rows if kk == k]
        assert res.summary[k]["mean_mse"] == pytest.approx(run_vals[0])
    assert res.failures == []


def test_monte_carlo_parallel_matches_serial():
    setting = SimSetting("I-1", p=2, n=40)
    serial = monte_carlo(setting, ["gfr", "rfwlcfr"], _FAST, seed=9,
                         n_jobs=1)
    parallel = monte_carlo(setting, ["gfr", "rfwlcfr"], _FAST, seed=9,
                           n_jobs=4)
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary


def test_failing_cv_fit_scores_inf_instead_of_failing_the_run(monkeypatch):
    from frechetforest import regressors
    original = regressors.fit_forest

    def fit_or_raise(X, Y, space, config):
        # only the CV forests (cv_trees = 3) of the depth-2 cell fail
        if config.num_trees == 3 and config.tree.max_depth == 2:
            raise ValueError("deliberate CV failure")
        return original(X, Y, space, config)

    monkeypatch.setattr(regressors, "fit_forest", fit_or_raise)
    cfg = MonteCarloConfig(runs=1, test_size=20, num_trees=4, cv_trees=3,
                           folds=2, depth_grid=(2, 3), mtry_grid=(2,))
    res = monte_carlo(SimSetting("I-1", p=2, n=40), ["rfwlcfr", "frf"], cfg,
                      seed=5)
    assert res.failures == []
    assert all(math.isfinite(m) for _, _, m in res.rows)
    # listed fold by fold, each failed fit once per forest kind
    assert res.cv_failures == [
        {"run": 0, "estimator": k, "cell": {"max_depth": 2, "mtry": 2},
         "fold": f, "error": "deliberate CV failure"}
        for f in range(2) for k in ("rfwlcfr", "frf")]


def test_kernel_cv_failures_are_listed_the_same_for_any_jobs():
    # a 0.01 bandwidth leaves held-out points without kernel mass
    cfg = MonteCarloConfig(runs=2, test_size=20, folds=2,
                           bandwidth_grid=(0.01, 0.8))
    setting = SimSetting("I-1", p=2, n=40)
    serial = monte_carlo(setting, ["nw"], cfg, seed=3, n_jobs=1)
    parallel = monte_carlo(setting, ["nw"], cfg, seed=3, n_jobs=2)
    assert serial.failures == [] and serial.rows == parallel.rows
    assert serial.cv_failures == parallel.cv_failures
    assert [(e["run"], e["estimator"], e["cell"], e["fold"])
            for e in serial.cv_failures] == [
        (r, "nw", {"bandwidth": 0.01}, f) for r in range(2) for f in range(2)]
    assert all("no kernel mass" in e["error"] for e in serial.cv_failures)


def test_run_once_fits_the_cells_tune_cv_picks(monkeypatch):
    from frechetforest import regressors
    original = regressors.fit_cell
    final = []  # (kind, cell) of the final fits

    def recording(kind, X, Y, space, cell, num_trees, base_tree, seed):
        if num_trees == cfg.num_trees:
            final.append((kind, cell))
        return original(kind, X, Y, space, cell, num_trees, base_tree, seed)

    monkeypatch.setattr(regressors, "fit_cell", recording)
    setting = SimSetting("I-1", p=2, n=40)
    kinds = ["rfwlcfr", "frf", "nw", "lfr_kernel"]
    cfg = MonteCarloConfig(runs=1, test_size=20, num_trees=4, cv_trees=3,
                           folds=2, depth_grid=(2, 3), mtry_grid=(1, 2))
    simulate.run_once(setting, kinds, cfg, seed=4, run_index=1)
    # the training set and CV seed of run 1 under seed 4
    train = generate(setting, np.random.default_rng(
        np.random.SeedSequence(entropy=4, spawn_key=(1,))))
    base = TreeConfig(min_leaf=cfg.min_leaf)
    want, keys = [], set()
    for k in kinds:
        grid = (regressors.forest_grid(40, 2, (2, 3), (1, 2))
                if k in regressors.FOREST_KINDS else regressors.kernel_grid())
        best, _ = regressors.tune_cv(train.X, train.Y, train.space, k, grid,
                                     folds=2, seed=4 * 1000003 + 1,
                                     num_trees=3, base_tree=base)
        # the forest kinds share the final forest of one cell
        key = tuple(best.items()) if k in regressors.FOREST_KINDS else k
        if key not in keys:
            keys.add(key)
            want.append((k, best))
    assert final == want


def test_kernel_cv_failures_are_listed_fold_then_cell_then_kind():
    cfg = MonteCarloConfig(runs=1, test_size=20, folds=2,
                           bandwidth_grid=(0.01, 0.02, 0.8))
    res = monte_carlo(SimSetting("I-1", p=2, n=40), ["nw", "lfr_kernel"],
                      cfg, seed=3)
    assert res.failures == []
    assert [(e["fold"], e["cell"], e["estimator"])
            for e in res.cv_failures] == [
        (f, {"bandwidth": h}, k) for f in range(2) for h in (0.01, 0.02)
        for k in ("nw", "lfr_kernel")]


def test_chosen_bandwidth_gives_every_test_point_kernel_mass():
    # with the III-2 benchmark sizes, CV alone picks h = 0.2 for seed
    # 17000, which leaves 3 of the 100 test points without kernel mass
    res = monte_carlo(SimSetting("III-2", p=2, n=100), ["nw"],
                      MonteCarloConfig(runs=1, folds=3), seed=17000)
    assert res.failures == []
    assert math.isfinite(res.summary["nw"]["mean_mse"])


def test_no_bandwidth_with_kernel_mass_still_fails_the_run():
    cfg = MonteCarloConfig(runs=1, test_size=20, folds=2,
                           bandwidth_grid=(0.001, 0.002))
    res = monte_carlo(SimSetting("I-1", p=2, n=40), ["nw"], cfg, seed=3)
    assert [f["run"] for f in res.failures] == [0]
    assert "no kernel mass" in res.failures[0]["error"]


def test_affine_lfr_kernel_steps_do_not_overflow():
    # signed local-linear kernel weights propose affine steps whose
    # exp(step * lam / 2) overflows; such a step is halved, not evaluated
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = monte_carlo(SimSetting("II-1", p=2, n=50, spd_metric="affine"),
                          ["lfr_kernel"],
                          MonteCarloConfig(runs=2, num_trees=6, cv_trees=4,
                                           folds=3), seed=17)
    assert res.failures == []
    assert res.summary["lfr_kernel"]["runs"] == 2
