"""Self-tests of the benchmark harness arithmetic and tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from harness import Ledger, Span, error_frac, percentile, self_times  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [Span(0, "root", 0.0, 10.0, None),
             Span(1, "a", 1.0, 4.0, 0),
             Span(2, "b", 3.0, 6.0, 0),   # overlaps a: union is [1, 6]
             Span(3, "a.child", 2.0, 3.0, 1),
             Span(4, "late", 9.5, 11.0, 0)]  # only [9.5, 10] lies inside root
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(199)), 95) is None
    samples = list(range(200, 0, -1))
    assert percentile(samples, 95) == 190
    assert percentile(list(range(1, 21)), 50) == 10
    assert percentile([], 50) is None


def test_error_frac_counts_failures_against_attempts():
    ledger = Ledger()
    ledger.record(True)
    ledger.record(False)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.error_frac == 0.5
    with pytest.raises(ValueError):
        error_frac(0, 0)


def test_nonzero_cli_exit_is_a_failed_operation(tmp_path):
    ledger = Ledger()
    ctx = Context(ROOT, tmp_path, seed=0, ledger=ledger, in_process=False)
    ctx.cli("predict", "--model", tmp_path / "missing.json",
            "--x", tmp_path / "missing.csv", "--out", tmp_path / "out.csv")
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.error_frac == 1.0
    assert ctx.failures and "exited 1" in ctx.failures[0]


def test_tracer_patches_every_binding_and_restores_them():
    import frechetforest
    from frechetforest import cli, forest, regressors, tree
    modules = run._package_modules()
    originals = (tree.leaf_for, forest.leaf_for, regressors.kernel_weights,
                 regressors._FOREST_PREDICTORS["frf"], cli._DISPATCH["fit"],
                 frechetforest.fit_forest)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert tree.leaf_for is forest.leaf_for is not originals[0]
        assert regressors.kernel_weights is forest.kernel_weights
        assert regressors._FOREST_PREDICTORS["frf"] is regressors.predict_frf
        assert cli._DISPATCH["fit"] is cli.cmd_fit is not originals[4]
    finally:
        tracer.uninstall()
    assert (tree.leaf_for, forest.leaf_for, regressors.kernel_weights,
            regressors._FOREST_PREDICTORS["frf"], cli._DISPATCH["fit"],
            frechetforest.fit_forest) == originals


def _traced_counts():
    from frechetforest import forest, regressors, simulate
    rng = np.random.default_rng(3)
    data = simulate.generate(simulate.SimSetting("III-2", p=2, n=40), rng)
    tracer = tracing.Tracer()
    tracer.install(run._package_modules())
    try:
        model = forest.fit_forest(data.X, data.Y, data.space,
                                  forest.ForestConfig(num_trees=3))
        for kind in ("rfwlcfr", "rfwllfr", "frf"):
            regressors.predict_forest_batch(model, data.X[:4], kind)
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans, tracer.attrs)


def test_traced_counts_repeat_exactly():
    a, b = _traced_counts(), _traced_counts()
    counts = [name for name, _, _ in tracing.COUNT_METRICS]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["forest.fit.calls"] == 1
    assert a["tree.grow.calls"] == 3
    assert a["tree.leaf_for.calls"] == 3 * 4 * 3  # trees x queries x kinds
    assert a["regressors.predict.calls.frf"] == 4
    assert a["spaces.mean.calls.split"] > 0
    assert 0 < a["tree.best_split.useful_ratio"] <= 1


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(tracing.PER_LAYER)
