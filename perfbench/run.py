"""Benchmark of the frechetforest package: one workload per invocation.

Run from the root of a source checkout (the package is used from ``src/``,
nothing is installed)::

    python3 perfbench/run.py --workload cli-wasserstein --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload for about ``--seconds`` seconds (at least
three repetitions) and reports the end-to-end metrics, every timing built
from medians over repetitions.  On a shared host the machine's speed
drifts from minute to minute, so a short probe of fixed work
(``harness.probe``) runs before every timed step and the timings are
reported at the reference speed: raw time divided by ``speed_factor``, the
mean probe time over ``harness.PROBE_REF_S``.  The raw medians and the
factor are printed too.

``--trace 1`` ignores ``--seconds``: it runs repetition 0 once to warm up,
then traced, untraced and traced again, with every layer's public functions
wrapped in spans (``tracing.py``).  It reports per-layer counts and self
times and the tracing overhead, and fails if the two traced passes
disagree on any count.

Every run checks the program's outputs (see each workload's ``check``) and
compares the Fréchet MSE of repetition 0 with the values recorded in
``reference.json``.  Lines before the last describe the environment and
every metric by name and unit; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is nonzero when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from harness import Ledger, median, speed_factor  # noqa: E402
from workloads import COLD_IMPORTS, WORKLOADS, Context  # noqa: E402

MIN_REPS = 3
REFERENCE = HERE / "reference.json"
# Seeds without a recorded reference are checked against the range of the
# recorded values widened by this factor; that catches gross errors only.
BAND = 3.0

END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# environment


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k, "default")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _peak_rss_mb(in_process: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if in_process:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------------------
# reference MSE values


def check_reference(name: str, seed: int, mse: dict, ctx: Context) -> str:
    """Compare repetition 0's MSE values with ``reference.json``."""
    doc = json.loads(REFERENCE.read_text())
    table = doc["workloads"].get(name, {})
    if not table:
        return "none recorded"
    tol = doc["rel_tol"][name]
    expected = table.get(str(seed))
    if expected is not None:
        for key, want in expected.items():
            got = mse.get(key)
            if got is None or abs(got - want) > tol * abs(want):
                ctx.fail(f"{key} = {got} differs from the reference {want} "
                         f"by more than {tol:g} relative")
        return f"seed {seed}, rel_tol {tol:g}"
    for key, got in mse.items():
        recorded = [row[key] for row in table.values() if key in row]
        lo, hi = min(recorded) / BAND, max(recorded) * BAND
        if got is None or not lo <= got <= hi:
            ctx.fail(f"{key} = {got} outside the recorded range widened "
                     f"{BAND:g}x [{lo:.6g}, {hi:.6g}]")
    return f"range of {len(table)} recorded seeds widened {BAND:g}x"


# ---------------------------------------------------------------------------
# runs


def _calibrated(value, unit: str, factor: float):
    """Express a timing at the reference machine speed."""
    if value is None or unit not in ("s", "ms", "1/s"):
        return value
    return value * factor if unit == "1/s" else value / factor


def run_untraced(workload, ctx: Context, seconds: float):
    """Repeat the workload for about ``seconds``; return (report, metrics)."""
    start = time.perf_counter()
    workload.start()
    loop_start = time.perf_counter()
    jobs, mse0 = [], {}
    rep = 0
    while True:
        inputs = workload.prepare(rep)
        jobs.append(workload.job(inputs, rep))
        mse = workload.check(inputs, rep)
        if rep == 0:
            mse0 = mse
        rep += 1
        now = time.perf_counter()
        per_rep = (now - loop_start) / rep
        if rep >= MIN_REPS and now - start + per_rep > seconds:
            break
    reference = check_reference(workload.name, ctx.seed, mse0, ctx)
    raw = workload.summarize(jobs, mse0)
    factor = speed_factor(ctx.probes)
    report = {name: (_calibrated(value, unit, factor), unit)
              for name, (value, unit) in raw.items()}
    report.update({
        "raw.setup_s": (raw["setup_s"][0], "s"),
        "raw.job_s": (raw["job_s"][0], "s"),
        "speed_factor": (factor, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(workload.in_process), "MB"),
        "error_frac": (ctx.ledger.error_frac, "ratio"),
        "repetitions": (rep, "count"),
    })
    metrics = {name: report[name][0] for name, _ in END_TO_END}
    return report, metrics, reference


def _one_pass(workload, tracer=None):
    start = time.perf_counter()
    if tracer is not None:
        tracer.install(_package_modules())
    try:
        inputs = workload.prepare(0)
        workload.job(inputs, 0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    failures_before = getattr(workload, "failures", 0)
    mse = workload.check(inputs, 0)
    model_bytes = workload.model_bytes(inputs)
    failures = getattr(workload, "failures", 0) - failures_before
    return wall, mse, model_bytes, failures


def _package_modules() -> dict:
    return {name: importlib.import_module(
        "frechetforest" if name == "__init__" else f"frechetforest.{name}")
        for name in tracing.PACKAGE_MODULES}


def run_traced(workload, ctx: Context):
    """Untraced and traced passes over repetition 0's inputs."""
    import_s = 0.0
    if workload.uses_cli:
        import_s = median([ctx.cold_import("frechetforest.cli")
                           for _ in range(COLD_IMPORTS)])
    # The first pass warms lazy imports and caches; the untraced wall time
    # comes from a pass between the two traced ones.
    _, mse0, _, _ = _one_pass(workload)
    passes = []
    for traced in (True, False, True):
        tracer = tracing.Tracer() if traced else None
        wall, mse, model_bytes, failures = _one_pass(workload, tracer)
        if mse != mse0:
            ctx.fail(f"pass changed the MSE values: {mse} vs {mse0}")
        if not traced:
            wall_plain = wall
            continue
        m = tracing.layer_metrics(tracer.spans, tracer.attrs)
        m["forest.model_bytes"] = model_bytes
        m["simulate.failures"] = failures
        passes.append((wall, m))
    (wall_a, a), (wall_b, b) = passes
    for name, _, _ in tracing.COUNT_METRICS:
        if a[name] != b[name]:
            ctx.fail(f"count {name} differs between traced passes: "
                     f"{a[name]} vs {b[name]}")
    metrics = dict(a)
    for name, _, _ in tracing.TIME_METRICS:
        metrics[name] = (a[name] + b[name]) / 2.0
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = ((wall_a + wall_b) / 2.0 - wall_plain) \
        / wall_plain
    reference = check_reference(workload.name, ctx.seed, mse0, ctx)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    report = {name: (metrics[name], units[name]) for name in units}
    report["error_frac"] = (ctx.ledger.error_frac, "ratio")
    return report, metrics, reference


# ---------------------------------------------------------------------------
# entry point


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    ctx = Context(ROOT, work, seed, ledger, in_process=trace,
                  calibrate=not trace)
    workload = WORKLOADS[name](ctx)
    try:
        if trace:
            report, metrics, reference = run_traced(workload, ctx)
            units = {n: u for n, u, _ in tracing.PER_LAYER}
        else:
            report, metrics, reference = run_untraced(workload, ctx, seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(f"# workload {name}, trace {int(trace)}, seed {seed}")
    print("# environment " + json.dumps(environment(seed), sort_keys=True))
    print(f"# reference check: {reference}")
    for key, (value, unit) in report.items():
        print(f"{key:<42} {_fmt(value):>14} {unit}")
    for message in ctx.failures:
        print(f"OPERATION FAILED: {message}")
        print(f"OPERATION FAILED: {message}", file=sys.stderr)
    for message in ctx.errors:
        print(f"CHECK FAILED: {message}")
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    correct = not ctx.errors
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Run every workload in its own process and merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            return proc.returncode or 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "frechetforest" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'frechetforest'}; "
              "run from the root of a frechetforest checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the harness and every process it starts, so the speed
    # probe and the timed steps share a core and its contention.  The
    # workloads are single-threaded Python; nothing runs concurrently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
