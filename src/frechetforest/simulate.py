"""Synthetic benchmark generators and the Monte-Carlo evaluation harness.

Scenarios (distribution responses on a fixed quantile grid, SPD matrices,
spherical data):

* ``I-1``  -- linear location signal, N(mu, 1) responses.
* ``I-2``  -- nonlinear location and heteroscedastic scale.
* ``I-3``  -- correlated Gaussian predictors, quadratic-by-linear signal.
* ``II-1`` -- 2x2 SPD responses, log-mean exp([[1, rho], [rho, 1]]).
* ``II-2`` -- 3x3 SPD responses with two oscillating correlations.
* ``III-1``-- sphere responses, tangent-space Gaussian noise.
* ``III-2``-- sphere responses, noisy spherical angles.

Each generator records a known regression target, so a fitted estimator can
be scored by the mean squared distance between predictions and targets on a
fresh test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import regressors
from .regressors import FOREST_KINDS, KERNEL_KINDS, evaluate_mse
from .spaces import (MetricSpace, matrix_exp, sphere_exp, spd_space,
                     sphere_space, wasserstein_space)
from .tree import TreeConfig

SCENARIOS = ("I-1", "I-2", "I-3", "II-1", "II-2", "III-1", "III-2")

_MIN_SIGMA_Y = 1e-6  # floor for the heteroscedastic scale in I-2


@dataclass(frozen=True)
class SimSetting:
    scenario: str
    p: int = 2
    n: int = 100
    sigma: Optional[float] = None  # None selects the scenario default
    grid_size: int = 21
    spd_metric: str = "logcholesky"  # II scenarios only

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        # p > 2 scenarios place four coefficients, so p = 3 has no design
        if not (self.p == 2 or self.p >= 4) or self.n < 1:
            raise ValueError("need p = 2 or p >= 4, and n >= 1")

    @property
    def noise(self) -> float:
        if self.sigma is not None:
            return self.sigma
        # SPD scenarios specify the noise as sigma^2 = 0.2
        return math.sqrt(0.2) if self.scenario.startswith("II-") else 0.2

    def space(self) -> MetricSpace:
        if self.scenario.startswith("I-"):
            return wasserstein_space(self.grid_size)
        if self.scenario.startswith("II-"):
            order = 2 if self.scenario == "II-1" else 3
            return spd_space(order, self.spd_metric)
        return sphere_space(3)


@dataclass
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    truth: Optional[np.ndarray]
    space: MetricSpace


# ---------------------------------------------------------------------------
# scenario coefficients


def single_beta(p: int) -> np.ndarray:
    """Coefficients of the single-index scenarios (I-1, I-3, II-1)."""
    if p == 2:
        return np.array([0.75, 0.25])
    beta = np.zeros(p)
    beta[:4] = [0.1, 0.2, 0.3, 0.4]
    if p == 20:
        beta[-4:] = [0.1, 0.2, 0.3, 0.4]
        beta = beta / 2.0
    return beta


def double_beta(p: int, scenario: str):
    """Coefficient pair of the two-index scenarios."""
    if scenario in ("III-1", "III-2") and p == 2:
        return np.array([1.0, 0.0]), np.array([0.0, 1.0])
    if p == 2:
        return np.array([0.75, 0.25]), np.array([0.25, 0.75])
    b1 = np.zeros(p)
    b1[:4] = [0.1, 0.2, 0.3, 0.4]
    b2 = np.zeros(p)
    b2[-4:] = [0.1, 0.2, 0.3, 0.4]
    return b1, b2


# ---------------------------------------------------------------------------
# quantile-grid helpers


def quantile_levels(m: int) -> np.ndarray:
    """Interior midpoint grid t_j = (2j - 1) / (2m) on (0, 1)."""
    return (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m)


def normal_quantile_grid(mu, sigma, m: int) -> np.ndarray:
    """Quantile vector(s) of N(mu, sigma^2) on the midpoint grid."""
    # imported here so that fit and predict never compile it; a scalar loop
    # over the levels, the same doubles as ``scipy.special.ndtri``
    from ._normal import ndtri

    z = np.array([ndtri(t) for t in quantile_levels(m).tolist()])
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return mu[..., None] + sigma[..., None] * z


# ---------------------------------------------------------------------------
# generators


def gen_distribution(setting: SimSetting, rng: np.random.Generator) -> Dataset:
    """Scenarios I-1 / I-2 / I-3 with quantile-grid responses."""
    p, n, m = setting.p, setting.n, setting.grid_size
    sc = setting.scenario
    if sc == "I-3":
        idx = np.arange(p)
        cov = 0.5 ** np.abs(idx[:, None] - idx[None, :])
        X = rng.multivariate_normal(np.zeros(p), cov, size=n)
    else:
        X = rng.uniform(size=(n, p))
    if sc == "I-1":
        beta = single_beta(p)
        loc = 5.0 * X @ beta - 2.5
        scale = np.ones(n)
        mu_sd = setting.noise
    elif sc == "I-2":
        b1, b2 = double_beta(p, sc)
        loc = np.sin(4.0 * np.pi * (X @ b1)) * (2.0 * X @ b2 - 1.0)
        scale = np.maximum(2.0 * np.abs(X[:, 0] - X[:, 1]), _MIN_SIGMA_Y)
        mu_sd = setting.noise
    else:  # I-3
        beta = single_beta(p)
        loc = 0.1 * X[:, 0] ** 2 * (2.0 * X @ beta - 1.0)
        scale = np.ones(n)
        mu_sd = 0.2 if setting.sigma is None else setting.sigma
    mu = loc + mu_sd * rng.standard_normal(n)
    Y = normal_quantile_grid(mu, scale, m)
    truth = normal_quantile_grid(loc, scale, m)
    return Dataset(X, Y, truth, setting.space())


def sym_matrix_normal(M: np.ndarray, sigma: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw sigma^2 * Z + M with Z symmetric Gaussian.

    Diagonal entries of Z are N(0, 1), off-diagonal N(0, 1/2).
    """
    M = np.asarray(M, dtype=float)
    m = M.shape[0]
    if M.shape != (m, m) or np.max(np.abs(M - M.T)) > 1e-10:
        raise ValueError("mean matrix must be symmetric")
    z = rng.standard_normal((m, m)) / 2.0
    Z = z + z.T  # off-diagonal variance 1/2
    Z[np.arange(m), np.arange(m)] = rng.standard_normal(m)
    return sigma ** 2 * Z + M


def _spd_log_mean(setting: SimSetting, x: np.ndarray) -> np.ndarray:
    """The symmetric matrix log D(X) of scenarios II-1 / II-2."""
    if setting.scenario == "II-1":
        rho = math.cos(4.0 * math.pi * float(x @ single_beta(setting.p)))
        return np.array([[1.0, rho], [rho, 1.0]])
    b1, b2 = double_beta(setting.p, setting.scenario)
    r1 = 0.8 * math.cos(4.0 * math.pi * float(x @ b1))
    r2 = 0.4 * math.cos(4.0 * math.pi * float(x @ b2))
    return np.array([[1.0, r1, r2], [r1, 1.0, r1], [r2, r1, 1.0]])


def gen_spd(setting: SimSetting, rng: np.random.Generator) -> Dataset:
    """Scenarios II-1 / II-2 with SPD responses."""
    p, n = setting.p, setting.n
    X = rng.uniform(size=(n, p))
    Y = []
    truth = []
    for i in range(n):
        log_mean = _spd_log_mean(setting, X[i])
        Y.append(matrix_exp(sym_matrix_normal(log_mean, setting.noise, rng)))
        truth.append(matrix_exp(log_mean))
    return Dataset(X, np.stack(Y), np.stack(truth), setting.space())


def _sphere_target(setting: SimSetting, x: np.ndarray) -> np.ndarray:
    b1, b2 = double_beta(setting.p, setting.scenario)
    a = float(x @ b1)
    b = float(x @ b2)
    if setting.scenario == "III-1":
        r = math.sqrt(max(1.0 - a * a, 0.0))
        return np.array([r * math.cos(math.pi * b),
                         r * math.sin(math.pi * b), a])
    return np.array([math.sin(a) * math.sin(b),
                     math.sin(a) * math.cos(b), math.cos(a)])


def tangent_basis(point: np.ndarray) -> np.ndarray:
    """Orthonormal tangent basis at a sphere point.

    Gram-Schmidt of the canonical axes against the point, lowest index
    first; returns a (d-1) x d array.
    """
    d = len(point)
    basis = []
    for j in range(d):
        v = np.zeros(d)
        v[j] = 1.0
        v = v - (v @ point) * point
        for u in basis:
            v = v - (v @ u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == d - 1:
            break
    return np.stack(basis)


def gen_sphere(setting: SimSetting, rng: np.random.Generator) -> Dataset:
    """Scenarios III-1 / III-2 with unit-vector responses."""
    p, n = setting.p, setting.n
    X = rng.uniform(size=(n, p))
    b1, b2 = double_beta(setting.p, setting.scenario)
    Y = []
    truth = []
    for i in range(n):
        target = _sphere_target(setting, X[i])
        truth.append(target)
        if setting.scenario == "III-1":
            basis = tangent_basis(target)
            delta = setting.noise * rng.standard_normal(2)
            eps = delta @ basis
            Y.append(sphere_exp(target, eps))
        else:
            e1, e2 = setting.noise * rng.standard_normal(2)
            a = float(X[i] @ b1) + e1
            b = float(X[i] @ b2) + e2
            Y.append(np.array([math.sin(a) * math.sin(b),
                               math.sin(a) * math.cos(b), math.cos(a)]))
    return Dataset(X, np.stack(Y), np.stack(truth), setting.space())


def generate(setting: SimSetting, rng: np.random.Generator) -> Dataset:
    if setting.scenario.startswith("I-"):
        return gen_distribution(setting, rng)
    if setting.scenario.startswith("II-"):
        return gen_spd(setting, rng)
    return gen_sphere(setting, rng)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class MonteCarloConfig:
    runs: int = 20
    test_size: int = 100
    num_trees: int = 100
    cv_trees: int = 50
    folds: int = 5
    depth_grid: Optional[tuple] = None  # None -> 3 .. ceil(log2 n)
    mtry_grid: Optional[tuple] = None   # None -> {1, p/3, sqrt(p), p}
    bandwidth_grid: Optional[tuple] = None  # None -> BANDWIDTH_GRID
    min_leaf: int = 5
    split_method: str = "two_means"
    honest: bool = False

    def __post_init__(self):
        for name in ("runs", "test_size", "num_trees", "cv_trees"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass
class MonteCarloResult:
    rows: list          # (run, estimator, mse)
    summary: dict       # estimator -> {"mean_mse", "sd_mse", "runs"}
    failures: list      # {"run", "error"} of each run that raised
    cv_failures: list   # {"run", "estimator", "cell", "fold", "error"}


def run_once(setting: SimSetting, estimators, cfg: MonteCarloConfig,
             seed: int, run_index: int):
    """One Monte-Carlo repetition: generate, tune, fit, score.

    Returns the test MSE per estimator and a list of the CV folds that
    raised and scored infinity (the ``cv_failures`` of the result).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(run_index,)))
    train = generate(setting, rng)
    test = generate(replace(setting, n=cfg.test_size), rng)
    cv_seed = seed * 1000003 + run_index
    base = TreeConfig(min_leaf=cfg.min_leaf,
                      split_method=cfg.split_method, honest=cfg.honest)
    failed = []  # the cv_failures entries of this run
    best = {}
    for family, grid in (
            (FOREST_KINDS, regressors.forest_grid(
                setting.n, setting.p, cfg.depth_grid, cfg.mtry_grid)),
            (KERNEL_KINDS, regressors.kernel_grid(cfg.bandwidth_grid))):
        kinds = [e for e in estimators if e in family]
        best.update(dict.fromkeys(kinds, grid[0]))
        if not kinds or len(grid) == 1:
            continue
        cv = []
        errors = regressors.cv_errors(
            train.X, train.Y, train.space, kinds, grid, cfg.folds, cv_seed,
            cfg.cv_trees, base, cv)
        failed += [{"run": run_index, "estimator": k, "cell": grid[ci],
                    "fold": f, "error": msg} for ci, f, k, msg in cv]
        if family is KERNEL_KINDS:  # every test point needs kernel mass
            for ci, h in enumerate(cell["bandwidth"] for cell in grid):
                try:
                    for x in test.X:
                        regressors.product_kernel_weights(train.X, x, h)
                except ValueError:
                    for k in kinds:
                        errors[k][ci] = math.inf
        for k in kinds:
            best[k] = regressors.best_cell(grid, errors[k])
    out, fitted = {}, {}
    for k in estimators:
        cell = best.get(k, {})
        # the forest kinds share one final forest per chosen cell
        key = tuple(cell.items()) if k in FOREST_KINDS else k
        if key not in fitted:
            fitted[key] = regressors.fit_cell(
                k, train.X, train.Y, train.space, cell, cfg.num_trees, base,
                seed * 7 + run_index)
        preds = regressors.predict_batch(k, fitted[key], test.X)
        out[k] = evaluate_mse(preds, test.truth, train.space)
    return out, failed


def _run_star(args):
    try:
        return run_once(*args)
    except Exception as exc:  # collected by the caller
        return exc


def monte_carlo(setting: SimSetting, estimators, cfg: MonteCarloConfig,
                seed: int = 0, n_jobs: int = 1) -> MonteCarloResult:
    """Repeat a scenario, aggregate mean and sd of the per-run MSE.

    Runs are independent with per-run derived seeds; the output does not
    depend on ``n_jobs``.  A failing run is recorded and excluded; the CV
    folds that scored infinity are listed in run order.
    """
    estimators = list(estimators)
    tasks = [(setting, estimators, cfg, seed, r) for r in range(cfg.runs)]
    if n_jobs > 1 and cfg.runs > 1:
        # imported here: it loads multiprocessing, which a serial run and
        # every other CLI command do without
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            raw = list(pool.map(_run_star, tasks))
    else:
        raw = [_run_star(t) for t in tasks]
    rows = []
    failures = []
    cv_failures = []
    per_est = {k: [] for k in estimators}
    for r, res in enumerate(raw):
        if isinstance(res, Exception):
            failures.append({"run": r, "error": str(res)})
            continue
        mse, cv = res
        cv_failures += cv
        for k in estimators:
            rows.append((r, k, mse[k]))
            per_est[k].append(mse[k])
    summary = {}
    for k in estimators:
        vals = np.asarray(per_est[k])
        summary[k] = {
            "mean_mse": float(np.mean(vals)) if len(vals) else math.nan,
            "sd_mse": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
            "runs": int(len(vals))}
    return MonteCarloResult(rows, summary, failures, cv_failures)
