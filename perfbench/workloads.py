"""The three benchmark workloads.

Each workload drives the package from outside, through its CLI or its
public library functions, on seeded synthetic data from ``simulate``.
Repetition ``rep`` of a run with seed ``s`` always gets the same inputs.

``cli-wasserstein``
    ``simulate`` writes an ``I-2`` training set and a query set, then
    ``fit --estimator rfwllfr --split-method exhaustive`` and ``predict``
    run, each as its own ``frechetforest`` process as users run them.
    Stresses interpreter start-up, model (de)serialisation, tree routing
    and the embedded-space exhaustive split; the Wasserstein mean is closed
    form, so a curved-solver change should not move it.
``lib-spd-affine``
    ``generate`` builds ``II-1`` with the affine-invariant metric in
    process, ``fit_forest`` fits the forest, then ``predict_rfwlcfr``,
    ``predict_rfwllfr`` and ``predict_frf`` run one call per query.  The
    Riemannian descent dominates; there is no CLI and no serialisation, so
    a load or routing change should not move it.
``mc-sphere``
    ``bench-table`` on ``III-2`` with five estimators and a reduced CV
    grid, called through the CLI entry point ``cli.main`` in process: the
    paper-reproduction path (generation, forest CV, ``tune_cv`` for
    ``nw``), and the only workload on the sphere descent.

CLI options are always passed as flags, never through ``--config``: the
CLI fills only options whose parsed value is ``None`` from a config file,
so a config document's ``num_trees``, ``split_method``, ``max_depth`` and
similar fields would be silently ignored and the run would measure the
100-tree two-means defaults instead.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from harness import median, percentile, probe

SUBPROCESS_TIMEOUT_S = 150
COLD_IMPORTS = 5  # fresh-interpreter imports timed per run for set-up
PROBES_PER_STEP = 6


class Context:
    """What one benchmark run shares with its workload."""

    def __init__(self, root: Path, work: Path, seed: int, ledger,
                 in_process: bool, calibrate: bool = False):
        self.root = root
        self.probes = [] if calibrate else None
        self.work = work
        self.seed = seed
        self.ledger = ledger
        self.in_process = in_process
        self.errors = []
        self.failures = []
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = (src + os.pathsep + self.env["PYTHONPATH"]
                                  if self.env.get("PYTHONPATH") else src)

    def fail(self, message: str) -> None:
        """Record a failed correctness check."""
        self.errors.append(message)

    def report(self, message: str) -> None:
        """Record why an operation failed (it is counted in the ledger)."""
        self.failures.append(message)

    def calibrate(self) -> None:
        """Time the machine-speed probe before a timed step."""
        if self.probes is not None:
            self.probes.extend(probe() for _ in range(PROBES_PER_STEP))

    def cli(self, *argv, in_process: bool = False) -> float:
        """Run one ``frechetforest`` subcommand; return its wall time.

        It runs as its own process unless ``in_process`` or the context
        says otherwise (traced runs call ``cli.main`` directly)."""
        argv = [str(a) for a in argv]
        self.calibrate()
        start = time.perf_counter()
        if in_process or self.in_process:
            from frechetforest import cli
            rc, err = cli.main(argv), ""
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "frechetforest.cli", *argv],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                timeout=SUBPROCESS_TIMEOUT_S)
            rc, err = proc.returncode, proc.stderr.strip()
        wall = time.perf_counter() - start
        if not self.ledger.record(rc == 0):
            self.report(f"frechetforest {argv[0]} exited {rc}: {err[-500:]}")
        return wall

    def cold_import(self, module: str) -> float:
        """Wall time of importing ``module`` in a fresh interpreter."""
        self.calibrate()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                              cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import {module}: {proc.stderr[-500:]}")
        return wall


def _read_csv(path: Path, header: bool):
    with open(path) as handle:
        rows = list(csv.reader(handle))
    head = rows[0] if header else None
    body = np.asarray(rows[1:] if header else rows, dtype=float)
    return head, body


def _affine_dist2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared affine-invariant distance, from the eigenvalues of a^-1 b."""
    vals = np.linalg.eigvals(np.linalg.solve(a, b)).real
    return float(np.sum(np.log(vals) ** 2))


def _is_spd(m: np.ndarray) -> bool:
    return (m.shape == (2, 2) and bool(np.all(np.isfinite(m)))
            and np.allclose(m, m.T, rtol=1e-8, atol=1e-12)
            and bool(np.all(np.linalg.eigvalsh(m) > 0)))


# ---------------------------------------------------------------------------


class CliWasserstein:
    name = "cli-wasserstein"
    why = ("CLI processes on I-2: start-up, per-row model load in predict, "
           "routing and the embedded exhaustive split")
    TRAIN_N = 300
    QUERY_N = 100
    NUM_TREES = 10
    DIM = 21
    DATASETS = 4  # set-ups per run; repetitions cycle through them
    in_process = False
    uses_cli = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.datasets = []
        self.setup_s = []

    def _simulate(self, k: int):
        """Write data set ``k``; return its directory and the wall time."""
        ctx = self.ctx
        d = ctx.work / f"data{k}-{time.perf_counter_ns()}"
        wall = sum(ctx.cli("simulate", "--scenario", "I-2", "--p", 2,
                           "--n", n, "--seed", ctx.seed * 1000 + 2 * k + j,
                           "--out-dir", d / part)
                   for part, n, j in (("train", self.TRAIN_N, 0),
                                      ("query", self.QUERY_N, 1)))
        return d, wall

    def start(self) -> None:
        for k in range(self.DATASETS):
            d, wall = self._simulate(k)
            self.datasets.append(d)
            self.setup_s.append(wall)

    def prepare(self, rep: int):
        k = rep % self.DATASETS
        data = self.datasets[k] if self.datasets else self._simulate(k)[0]
        return data, self.ctx.work / f"rep{rep}-{time.perf_counter_ns()}"

    def model_bytes(self, inputs) -> int:
        return (inputs[1] / "model.json").stat().st_size

    def job(self, inputs, rep: int) -> dict:
        data, out = inputs
        ctx = self.ctx
        fit_s = ctx.cli(
            "fit", "--estimator", "rfwllfr", "--space", "wasserstein",
            "--dim", self.DIM, "--split-method", "exhaustive",
            "--num-trees", self.NUM_TREES, "--x", data / "train" / "X.csv",
            "--y", data / "train" / "Y.csv", "--seed", ctx.seed * 1000 + rep,
            "--out", out / "model.json")
        predict_s = ctx.cli("predict", "--model", out / "model.json",
                            "--x", data / "query" / "X.csv",
                            "--out", out / "pred.csv")
        return {"fit_s": fit_s, "predict_s": predict_s,
                "job_s": fit_s + predict_s}

    def check(self, inputs, rep: int) -> dict:
        data, out = inputs
        ctx = self.ctx
        pred_path = out / "pred.csv"
        if not pred_path.exists():
            ctx.fail(f"rep {rep}: predict wrote no output")
            return {}
        head, pred = _read_csv(pred_path, header=True)
        _, truth = _read_csv(data / "query" / "truth.csv", header=False)
        p = 2
        width = p + self.DIM + 4
        if len(head) != width or pred.shape != (self.QUERY_N, width):
            ctx.fail(f"rep {rep}: predict output has shape {pred.shape}, "
                     f"expected ({self.QUERY_N}, {width})")
            return {}
        converged = pred[:, head.index("converged")]
        weight_sum = pred[:, head.index("weight_sum")]
        if not np.all(converged == 1):
            ctx.fail(f"rep {rep}: {int(np.sum(converged != 1))} rows "
                     "not converged")
        if not np.allclose(weight_sum, 1.0, rtol=0, atol=1e-9):
            ctx.fail(f"rep {rep}: weight sums deviate from 1 by up to "
                     f"{np.max(np.abs(weight_sum - 1.0)):.3g}")
        y = pred[:, p:p + self.DIM]
        # Riemann-normalised 2-Wasserstein distance between quantile vectors
        mse = float(np.mean(np.mean((y - truth) ** 2, axis=1)))
        return {"mse.rfwllfr": mse}

    def summarize(self, jobs, mse) -> dict:
        return {
            "setup_s": (median(self.setup_s), "s"),
            "job_s": (median([j["job_s"] for j in jobs]), "s"),
            "fit_s": (median([j["fit_s"] for j in jobs]), "s"),
            "predict_rows_per_s": (
                median([self.QUERY_N / j["predict_s"] for j in jobs]), "1/s"),
            "mse.rfwllfr": (mse.get("mse.rfwllfr"), "W2^2"),
        }


class LibSpdAffine:
    name = "lib-spd-affine"
    why = ("in-process II-1 affine SPD fit and per-query rfwlcfr, rfwllfr "
           "and frf: the Riemannian descent, no CLI or serialisation")
    TRAIN_N = 200
    QUERY_N = 70  # per repetition; three repetitions give a p95
    NUM_TREES = 10
    PREDICTORS = ("rfwlcfr", "rfwllfr", "frf")
    in_process = True
    uses_cli = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.import_s = []
        self.generate_s = []
        self.latency = {k: [] for k in self.PREDICTORS}
        self.model = None
        self.preds = {}

    def model_bytes(self, inputs) -> int:
        from frechetforest import forest
        return len(json.dumps(forest.model_to_dict(self.model)))

    def start(self) -> None:
        self.import_s = [self.ctx.cold_import("frechetforest")
                         for _ in range(COLD_IMPORTS)]

    def prepare(self, rep: int):
        from frechetforest import simulate
        self.ctx.calibrate()
        t0 = time.perf_counter()
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.ctx.seed, spawn_key=(rep,)))
        train = simulate.generate(simulate.SimSetting(
            "II-1", p=2, n=self.TRAIN_N, spd_metric="affine"), rng)
        query = simulate.generate(simulate.SimSetting(
            "II-1", p=2, n=self.QUERY_N, spd_metric="affine"), rng)
        self.generate_s.append(time.perf_counter() - t0)
        return train, query

    def job(self, inputs, rep: int) -> dict:
        from frechetforest import forest, regressors
        train, query = inputs
        ctx = self.ctx
        self.preds = {}
        ctx.calibrate()
        start = time.perf_counter()
        try:
            model = forest.fit_forest(
                train.X, train.Y, train.space,
                forest.ForestConfig(num_trees=self.NUM_TREES,
                                    master_seed=ctx.seed * 1000 + rep))
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            ctx.ledger.record(False)
            ctx.report(f"rep {rep}: fit_forest raised {exc!r}")
            return {"job_s": time.perf_counter() - start}
        fit_s = time.perf_counter() - start
        ctx.ledger.record(True)
        self.model = model
        preds = {}
        job_s = fit_s
        for kind in self.PREDICTORS:
            fn = getattr(regressors, f"predict_{kind}")
            ctx.calibrate()
            out = []
            for x in query.X:
                t0 = time.perf_counter()
                try:
                    y = fn(model, x)
                except Exception as exc:  # noqa: BLE001 - counted
                    ctx.ledger.record(False)
                    ctx.report(f"rep {rep}: predict_{kind} raised {exc!r}")
                    y = None
                else:
                    ctx.ledger.record(True)
                latency = time.perf_counter() - t0
                self.latency[kind].append(latency)
                job_s += latency
                out.append(y)
            preds[kind] = out
        self.preds = preds
        return {"fit_s": fit_s, "job_s": job_s}

    def check(self, inputs, rep: int) -> dict:
        _, query = inputs
        mse = {}
        for kind, ys in self.preds.items():
            bad = [i for i, y in enumerate(ys)
                   if y is None or not _is_spd(np.asarray(y))]
            if bad:
                self.ctx.fail(f"rep {rep}: {kind} gave {len(bad)} missing "
                              "or non-SPD predictions")
                continue
            mse[f"mse.{kind}"] = float(np.mean(
                [_affine_dist2(y, t) for y, t in zip(ys, query.truth)]))
        return mse

    def summarize(self, jobs, mse) -> dict:
        out = {"setup_s": (median(self.import_s) + median(self.generate_s),
                           "s"),
               "job_s": (median([j["job_s"] for j in jobs]), "s"),
               "fit_s": (median([j["fit_s"] for j in jobs if "fit_s" in j]),
                         "s")}
        for kind, samples in self.latency.items():
            p95 = percentile(samples, 95)
            out[f"query_p50_ms.{kind}"] = (1e3 * median(samples), "ms")
            out[f"query_p95_ms.{kind}"] = (
                None if p95 is None else 1e3 * p95, "ms")
        for kind in self.PREDICTORS:
            out[f"mse.{kind}"] = (mse.get(f"mse.{kind}"), "d^2")
        return out


class McSphere:
    name = "mc-sphere"
    why = ("bench-table on III-2 with gfr, rfwlcfr, rfwllfr, frf and nw: "
           "generation, forest CV, tune_cv and the sphere descent")
    ESTIMATORS = ("gfr", "rfwlcfr", "rfwllfr", "frf", "nw")
    RUNS = 1
    ARGS = ("--scenario", "III-2", "--p", 2, "--n", 100,
            "--estimators", ",".join(ESTIMATORS), "--num-trees", 20,
            "--cv-trees", 10, "--folds", 3, "--depth-grid", 3, 5, 7,
            "--jobs", 1)
    in_process = True
    uses_cli = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.import_s = []
        self.failures = 0

    def model_bytes(self, d: Path) -> int:
        return 0  # bench-table persists no model

    def start(self) -> None:
        self.import_s = [self.ctx.cold_import("frechetforest.cli")
                         for _ in range(COLD_IMPORTS)]
        from frechetforest import cli  # noqa: F401 - loaded before timing

    def prepare(self, rep: int) -> Path:
        return self.ctx.work / f"rep{rep}-{time.perf_counter_ns()}"

    def job(self, d: Path, rep: int) -> dict:
        # In process: the interpreter start-up is the set-up cost, measured
        # by the cold imports, and a Monte-Carlo run is pure computation.
        wall = self.ctx.cli("bench-table", *self.ARGS, "--runs", self.RUNS,
                            "--seed", self.ctx.seed * 1000 + rep,
                            "--out-dir", d, in_process=True)
        return {"job_s": wall / self.RUNS}

    def check(self, d: Path, rep: int) -> dict:
        ctx = self.ctx
        path = d / "metrics.json"
        if not path.exists():
            ctx.fail(f"rep {rep}: bench-table wrote no metrics.json")
            return {}
        doc = json.loads(path.read_text())
        # A repetition that raises is recorded by the program under
        # ``failures`` and excluded from the table: it counts as a failed
        # operation, not as a wrong output.
        failures = int(doc["failures"])
        self.failures += failures
        ctx.ledger.record(True, count=self.RUNS - failures)
        if failures:
            ctx.ledger.record(False, count=failures)
            ctx.report(f"rep {rep}: metrics.json lists {failures} failed "
                       "Monte-Carlo run(s)")
        mse = {}
        for kind in self.ESTIMATORS:
            est = doc["estimators"].get(kind, {})
            if est.get("runs") != self.RUNS - failures:
                ctx.fail(f"rep {rep}: {kind} has runs={est.get('runs')} "
                         f"with {failures} failures of {self.RUNS}")
            value = est.get("mean_mse")
            if failures == self.RUNS:
                continue
            if value is None or not math.isfinite(value):
                ctx.fail(f"rep {rep}: {kind} mean_mse is {value}")
            mse[f"mse.{kind}"] = value
        return mse

    def summarize(self, jobs, mse) -> dict:
        mc_run_s = median([j["job_s"] for j in jobs])
        out = {"setup_s": (median(self.import_s), "s"),
               "job_s": (mc_run_s, "s"),
               "mc_run_s": (mc_run_s, "s")}
        for kind in self.ESTIMATORS:
            out[f"mse.{kind}"] = (mse.get(f"mse.{kind}"), "d^2")
        return out


WORKLOADS = {w.name: w for w in (CliWasserstein, LibSpdAffine, McSphere)}
