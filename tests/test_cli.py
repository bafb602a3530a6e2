"""CLI plumbing: dataset I/O, subcommands, determinism, error reporting."""

import dataclasses
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from frechetforest import cli, forest, regressors, simulate, spaces
from frechetforest.cli import (CliError, atomic_write, load_dataset,
                               rows_to_objects, save_dataset)
from frechetforest.spaces import (spd_space, sphere_space,
                                  wasserstein_space)
from frechetforest.tree import iter_nodes


def _write_csv(path, rows):
    atomic_write(str(path),
                 "\n".join(",".join(format(v, ".17g") for v in row)
                           for row in rows) + "\n")


def test_dataset_roundtrip(tmp_path):
    space = wasserstein_space(3)
    data = simulate.Dataset(np.array([[0.1, 0.2], [0.3, 0.4]]),
                            np.array([[0.0, 1.0, 2.0], [1.0, 1.5, 2.5]]),
                            None, space)
    save_dataset(data, str(tmp_path))
    back = load_dataset(str(tmp_path / "X.csv"), str(tmp_path / "Y.csv"),
                        space)
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.Y, data.Y)


def test_nonmonotone_quantile_row_names_row(tmp_path):
    space = wasserstein_space(3)
    with pytest.raises(CliError, match="row 2"):
        rows_to_objects(np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 3.0]]), space)


def test_non_spd_row_rejected():
    space = spd_space(2)
    with pytest.raises(CliError, match="row 1"):
        rows_to_objects(np.array([[1.0, 2.0, 2.0, 1.0]]), space)


def test_row_count_mismatch(tmp_path):
    _write_csv(tmp_path / "X.csv", [[0.1], [0.2], [0.3]])
    _write_csv(tmp_path / "Y.csv", [[0.0], [1.0]])
    with pytest.raises(CliError, match="mismatch"):
        load_dataset(str(tmp_path / "X.csv"), str(tmp_path / "Y.csv"),
                     wasserstein_space(1))


def test_parse_failure_names_line(tmp_path):
    (tmp_path / "bad.csv").write_text("1.0,2.0\nnope,3.0\n")
    with pytest.raises(CliError, match="line 2"):
        cli._parse_csv_matrix(str(tmp_path / "bad.csv"), header=False)


def test_simulate_command(tmp_path):
    out = tmp_path / "data"
    rc = cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "30",
                   "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    for name in ("X.csv", "Y.csv", "truth.csv", "space.json"):
        assert (out / name).exists()
    doc = json.loads((out / "space.json").read_text())
    assert doc["dim"] == 21


def test_fit_predict_interpolates_training_data(tmp_path):
    # single deep non-honest tree with min_leaf 1 reproduces training Y
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "25",
              "--seed", "4", "--out-dir", str(out)])
    rc = cli.main(["fit", "--estimator", "rfwlcfr", "--space", "wasserstein",
                   "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--seed", "1",
                   "--num-trees", "1", "--max-depth", "30",
                   "--min-leaf", "1", "--subsample-mode",
                   "without_replacement", "--out", str(tmp_path / "m.json")])
    assert rc == 0
    rc = cli.main(["predict", "--model", str(tmp_path / "m.json"),
                   "--x", str(out / "X.csv"),
                   "--out", str(tmp_path / "p.csv")])
    assert rc == 0
    pred = cli._parse_csv_matrix(str(tmp_path / "p.csv"), header=True)
    Y = cli._parse_csv_matrix(str(out / "Y.csv"), header=False)
    got = pred[:, 2:2 + 21]
    assert np.max(np.abs(got - Y)) < 1e-12
    # weight diagnostics: sums within 1e-8 of 1
    assert np.max(np.abs(pred[:, -1] - 1.0)) < 1e-8


def test_fit_rejects_identical_trees_drawn_without_replacement(tmp_path,
                                                               capsys):
    # subsamples of size n without replacement, mtry = p and no honesty
    # grow the same tree every time; honesty or mtry < p vary the trees
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-2", "--p", "2", "--n", "60",
              "--seed", "2", "--out-dir", str(out)])
    fit = ["fit", "--estimator", "rfwlcfr", "--space", "wasserstein",
           "--dim", "21", "--x", str(out / "X.csv"), "--y",
           str(out / "Y.csv"), "--seed", "2", "--max-depth", "3",
           "--subsample-mode", "without_replacement", "--num-trees", "5"]
    capsys.readouterr()
    assert cli.main(fit + ["--out", str(tmp_path / "copies.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "fit"
    assert "identical trees" in err["error"]
    assert not (tmp_path / "copies.json").exists()
    for extra in (["--honest"], ["--mtry", "1"]):
        model = tmp_path / f"m{len(extra)}.json"
        assert cli.main(fit + extra + ["--out", str(model)]) == 0
        trees = json.loads(model.read_text())["model"]["trees"]
        assert len({json.dumps(t) for t in trees}) > 1


def test_tune_best_matches_table_argmin(tmp_path):
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "40",
              "--seed", "6", "--out-dir", str(out)])
    rc = cli.main(["tune", "--estimator", "nw", "--space", "wasserstein",
                   "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--seed", "2",
                   "--folds", "3", "--bandwidth-grid", "0.2", "0.4", "0.8",
                   "--out", str(tmp_path / "cv.csv")])
    assert rc == 0
    table = np.loadtxt(tmp_path / "cv.csv", delimiter=",", skiprows=1)
    best = json.loads((tmp_path / "cv_best.json").read_text())
    assert best["bandwidth"] == pytest.approx(
        table[int(np.argmin(table[:, 1])), 0])


def test_tune_reports_each_failed_cv_fold(tmp_path, capsys):
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "40",
              "--seed", "6", "--out-dir", str(out)])
    capsys.readouterr()
    rc = cli.main(["tune", "--estimator", "nw", "--space", "wasserstein",
                   "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--seed", "2",
                   "--folds", "3", "--bandwidth-grid", "0.2", "0.4", "0.8",
                   "--out", str(tmp_path / "cv.csv")])
    assert rc == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().err.splitlines()]
    assert lines
    for line in lines:
        assert line["command"] == "tune"
        assert line["cell"] == {"bandwidth": 0.2}
        assert line["fold"] in range(3)
        assert "no kernel mass" in line["error"]
    assert len({line["fold"] for line in lines}) == len(lines)
    # the failed cell is left out of the table
    table = cli._parse_csv_matrix(str(tmp_path / "cv.csv"), header=True)
    assert table[:, 0].tolist() == [0.4, 0.8]


def test_tune_rejects_zero_trees(tmp_path, capsys):
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "40",
              "--seed", "6", "--out-dir", str(out)])
    capsys.readouterr()
    rc = cli.main(["tune", "--estimator", "rfwlcfr", "--space",
                   "wasserstein", "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--seed", "2", "--folds", "2",
                   "--num-trees", "0", "--out", str(tmp_path / "cv.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["command"] == "tune"
    assert "num_trees" in json.loads(err[0])["error"]
    assert sorted(os.listdir(tmp_path)) == ["data"]


def _tune_sphere_nw(tmp_path, bandwidths):
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "III-2", "--p", "2", "--n", "40",
              "--seed", "1", "--out-dir", str(out)])
    return cli.main(["tune", "--estimator", "nw", "--space", "sphere",
                     "--dim", "3", "--x", str(out / "X.csv"),
                     "--y", str(out / "Y.csv"), "--seed", "2",
                     "--bandwidth-grid", *map(str, bandwidths),
                     "--out", str(tmp_path / "cv.csv")])


def test_tune_writes_a_table_its_own_parser_reads(tmp_path, capsys):
    assert _tune_sphere_nw(tmp_path, [0.01, 0.4]) == 0
    assert "no kernel mass" in capsys.readouterr().err
    table = cli._parse_csv_matrix(str(tmp_path / "cv.csv"), header=True)
    assert table[:, 0].tolist() == [0.4]
    assert json.loads((tmp_path / "cv_best.json").read_text()) == \
        {"bandwidth": 0.4}


@pytest.mark.parametrize("bandwidths", [[-0.2, -0.4], [0.4, 0], ["inf"]],
                         ids=["negative", "zero", "inf"])
def test_tune_rejects_a_bad_bandwidth(tmp_path, capsys, monkeypatch,
                                      bandwidths):
    # a negative bandwidth scored as its absolute value and could be best
    monkeypatch.setattr(regressors, "tune_cv", None)  # no fit may start
    assert _tune_sphere_nw(tmp_path, bandwidths) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["command"] == "tune"
    assert "bandwidth must be finite and > 0" in json.loads(err[0])["error"]
    assert sorted(os.listdir(tmp_path)) == ["data"]


def test_tune_exits_1_when_no_cell_scores(tmp_path, capsys):
    assert _tune_sphere_nw(tmp_path, [0.01, 0.02]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "no grid cell scored" in json.loads(err[-1])["error"]
    assert not (tmp_path / "cv.csv").exists()
    assert not (tmp_path / "cv_best.json").exists()


def test_tune_rejects_more_folds_than_rows(tmp_path, capsys):
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "12",
              "--seed", "6", "--out-dir", str(out)])
    capsys.readouterr()
    rc = cli.main(["tune", "--estimator", "nw", "--space", "wasserstein",
                   "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--seed", "2",
                   "--folds", "20", "--out", str(tmp_path / "cv.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["command"] == "tune"
    assert "need 2 to 12 folds for 12 samples" in json.loads(err[0])["error"]
    assert sorted(os.listdir(tmp_path)) == ["data"]


def test_bench_table_byte_identical(tmp_path):
    args = ["bench-table", "--scenario", "I-1", "--p", "2", "--n", "30",
            "--runs", "1", "--estimators", "gfr", "--seed", "8",
            "--folds", "2", "--out-dir"]
    assert cli.main(args + [str(tmp_path / "a")]) == 0
    assert cli.main(args + [str(tmp_path / "b")]) == 0
    for name in ("summary.csv", "long.csv", "metrics.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_bench_table_lists_failed_runs_the_same_for_any_jobs(
        tmp_path, monkeypatch):
    original = simulate.run_once

    def fail_run_1(setting, estimators, cfg, seed, run_index):
        if run_index == 1:
            raise ValueError("deliberate run failure")
        return original(setting, estimators, cfg, seed, run_index)

    # the worker processes fork after the patch, so they see it too
    monkeypatch.setattr(simulate, "run_once", fail_run_1)
    args = ["bench-table", "--scenario", "I-1", "--p", "2", "--n", "30",
            "--runs", "3", "--estimators", "gfr", "--seed", "8",
            "--folds", "2"]
    docs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(args + ["--jobs", jobs, "--out-dir", str(out)]) == 0
        docs.append((out / "metrics.json").read_bytes())
    assert docs[0] == docs[1]
    doc = json.loads(docs[0])
    assert doc["failures"] == 1
    assert doc["failed_runs"] == [{"run": 1,
                                   "error": "deliberate run failure"}]
    assert doc["estimators"]["gfr"]["runs"] == 2


@pytest.mark.parametrize("command", ["simulate", "bench-table"])
def test_p3_setting_exits_nonzero(tmp_path, capsys, command):
    extra = (["--estimators", "gfr", "--runs", "2"]
             if command == "bench-table" else [])
    rc = cli.main([command, "--scenario", "I-2", "--p", "3", "--n", "30",
                   "--seed", "0", "--out-dir", str(tmp_path / "out")]
                  + extra)
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == command
    assert "p = 2 or p >= 4" in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_simulate_rejects_a_bad_sigma(tmp_path, capsys, sigma):
    rc = cli.main(["simulate", "--scenario", "I-1", "--sigma", sigma,
                   "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "simulate"
    assert "sigma must be finite and >= 0" in err["error"]
    assert not (tmp_path / "out").exists()


def test_bench_table_rejects_a_repeated_estimator(tmp_path, capsys):
    # a repeated name would be run and counted once per occurrence
    rc = cli.main(["bench-table", "--scenario", "I-1", "--p", "2", "--n",
                   "30", "--runs", "2", "--estimators", "gfr, gfr",
                   "--seed", "8", "--folds", "2",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "bench-table"
    assert err["estimator"] == "gfr"
    assert "more than once" in err["error"]
    assert not (tmp_path / "out").exists()


def test_bench_table_rejects_more_folds_than_rows(tmp_path, capsys,
                                                 monkeypatch):
    # every fold's CV cell scored infinity, and the first cell was used
    monkeypatch.setattr(simulate, "run_once", None)  # no run may start
    rc = cli.main(["bench-table", "--scenario", "I-1", "--p", "2", "--n",
                   "12", "--runs", "1", "--estimators", "nw", "--seed",
                   "8", "--folds", "20", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "bench-table"
    assert "need 2 to 12 folds for 12 samples" in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--runs", "--num-trees", "--jobs"])
def test_bench_table_rejects_a_zero_count(tmp_path, capsys, flag):
    # no run, or forests of no trees, would write NaN summaries; no jobs
    # ran serially, as if one job were asked for
    rc = cli.main(["bench-table", "--scenario", "I-1", "--p", "2", "--n",
                   "30", "--runs", "1", "--estimators", "gfr",
                   "--seed", "8", "--folds", "2", flag, "0",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "bench-table"
    assert "must be >= 1" in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,message", [
    (["--min-leaf", "0"], "min_leaf must be >= 1"),
    (["--depth-grid", "0", "3"], "max_depth must be >= 1"),
    (["--mtry-grid", "1", "3"], "mtry must lie in [1, 2]")],
    ids=["min-leaf", "depth", "mtry"])
def test_bench_table_rejects_tree_settings_every_fit_fails(
        tmp_path, capsys, monkeypatch, flags, message):
    # each wrote a summary of failed runs or infinite CV cells, and exited 0
    monkeypatch.setattr(simulate, "run_once", None)  # no run may start
    rc = cli.main(["bench-table", "--scenario", "I-1", "--p", "2", "--n",
                   "30", "--runs", "1", "--estimators", "rfwlcfr",
                   "--seed", "8", "--folds", "2", *flags,
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "bench-table"
    assert message in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,message", [
    (["--depth-grid", "0", "3"], "max_depth must be >= 1"),
    (["--mtry-grid", "5"], "mtry must lie in [1, 2]")],
    ids=["depth", "mtry"])
def test_tune_rejects_tree_settings_every_fit_fails(tmp_path, capsys,
                                                    monkeypatch, flags,
                                                    message):
    # depth 0 was dropped with a warning per fold; mtry 5 at p = 2 failed
    # every fold and exited with "no grid cell scored"
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "40",
              "--seed", "6", "--out-dir", str(out)])
    capsys.readouterr()
    monkeypatch.setattr(regressors, "tune_cv", None)  # no fit may start
    rc = cli.main(["tune", "--estimator", "rfwlcfr", "--space",
                   "wasserstein", "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--seed", "2", "--folds", "2",
                   "--num-trees", "3", *flags,
                   "--out", str(tmp_path / "cv.csv")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["command"] == "tune"
    assert message in json.loads(err[0])["error"]
    assert sorted(os.listdir(tmp_path)) == ["data"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "out_dir": str(tmp_path / "d")}))
    rc = cli.main(["simulate", "--scenario", "I-1", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "e")])
    assert rc == 0
    assert (tmp_path / "e" / "X.csv").exists()  # flag wins over config
    assert not (tmp_path / "d").exists()


def test_missing_seed_is_an_error(tmp_path, capsys):
    rc = cli.main(["simulate", "--scenario", "I-1",
                   "--out-dir", str(tmp_path / "x")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "seed" in err["error"]
    assert not (tmp_path / "x").exists()  # no partial outputs


def test_missing_file_error_json(tmp_path, capsys):
    rc = cli.main(["fit", "--estimator", "gfr", "--space", "wasserstein",
                   "--dim", "21", "--x", str(tmp_path / "nope.csv"),
                   "--y", str(tmp_path / "nope2.csv"), "--seed", "1",
                   "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "not found" in err["error"]
    assert err["command"] == "fit"


def test_config_num_trees_takes_effect(tmp_path):
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "30",
              "--seed", "5", "--out-dir", str(out)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_trees": 3, "split-method": "exhaustive",
                               "seed": 1}))
    rc = cli.main(["fit", "--estimator", "rfwlcfr", "--space", "wasserstein",
                   "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--config", str(cfg),
                   "--out", str(tmp_path / "m.json")])
    assert rc == 0
    model = json.loads((tmp_path / "m.json").read_text())["model"]
    assert len(model["trees"]) == 3
    assert model["config"]["tree"]["split_method"] == "exhaustive"
    # a flag still wins over the config document
    rc = cli.main(["fit", "--estimator", "rfwlcfr", "--space", "wasserstein",
                   "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--config", str(cfg),
                   "--num-trees", "2", "--out", str(tmp_path / "m2.json")])
    assert rc == 0
    model = json.loads((tmp_path / "m2.json").read_text())["model"]
    assert len(model["trees"]) == 2


def _fit_with_config(tmp_path, fields):
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-1", "--p", "2", "--n", "30",
              "--seed", "5", "--out-dir", str(out)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    return cli.main(["fit", "--estimator", "rfwlcfr", "--space",
                     "wasserstein", "--dim", "21", "--x", str(out / "X.csv"),
                     "--y", str(out / "Y.csv"), "--seed", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "m.json")])


@pytest.mark.parametrize("fields,field", [
    ({"num_tress": 3}, "num_tress"),        # names no option
    ({"honest": "false"}, "honest"),        # a switch takes true or false
    ({"num_trees": 3.7}, "num_trees"),      # not an integer
    ({"num_trees": "abc"}, "num_trees"),    # not a number
], ids=["unknown-field", "string-switch", "float-count", "text-count"])
def test_bad_config_field_is_an_error(tmp_path, capsys, fields, field):
    assert _fit_with_config(tmp_path, fields) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "fit"
    assert err["field"] == field
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("honest", [False, True])
def test_config_switch_takes_json_booleans(tmp_path, honest):
    assert _fit_with_config(tmp_path, {"num_trees": 2, "honest": honest}) == 0
    model = json.loads((tmp_path / "m.json").read_text())["model"]
    assert model["config"]["tree"]["honest"] is honest
    # a bootstrap subsample has n indices; an honest tree's leaves hold
    # its prediction half, n // 2 of them, and any other tree's all n
    n = len(model["X"])
    for t in model["trees"]:
        held = sum(len(v["leaf"]) for v in iter_nodes(t["root"])
                   if "leaf" in v)
        assert held == (n // 2 if honest else n)


def test_config_supplies_required_options(tmp_path):
    flags, config = tmp_path / "flags", tmp_path / "config"
    assert cli.main(["simulate", "--scenario", "I-1", "--seed", "1",
                     "--out-dir", str(flags / "data")]) == 0
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({"scenario": "I-1", "seed": 1,
                               "out_dir": str(config / "data")}))
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    names = sorted(os.listdir(flags / "data"))
    assert names == sorted(os.listdir(config / "data"))
    for name in names:
        assert ((flags / "data" / name).read_bytes()
                == (config / "data" / name).read_bytes())
    fields = {"estimator": "rfwlcfr", "space": "wasserstein", "dim": 21,
              "x": str(flags / "data" / "X.csv"),
              "y": str(flags / "data" / "Y.csv"), "seed": 1}
    argv = ["fit"]
    for key, value in fields.items():
        argv += [f"--{key}", str(value)]
    assert cli.main(argv + ["--out", str(flags / "m.json")]) == 0
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({**fields, "out": str(config / "m.json")}))
    assert cli.main(["fit", "--config", str(cfg)]) == 0
    assert ((flags / "m.json").read_bytes()
            == (config / "m.json").read_bytes())


@pytest.mark.parametrize("form", [["--config", "{}"], ["--config={}"],
                                  ["--conf={}"], ["--conf", "{}"]],
                         ids=["config", "config=", "conf=", "conf"])
def test_config_flag_forms_and_override(tmp_path, form):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "I-1", "seed": 1, "n": 30,
                               "out_dir": str(tmp_path / "d")}))
    assert cli.main(["simulate", *(t.format(cfg) for t in form),
                     "--n", "20"]) == 0
    X = cli._parse_csv_matrix(str(tmp_path / "d" / "X.csv"), header=False)
    assert len(X) == 20  # the flag wins over the config field


@pytest.mark.parametrize("argv,command", [
    ([], None),
    (["bogus"], None),
    (["simulate", "--scenario", "I-9", "--seed", "1", "--out-dir", "o"],
     "simulate"),
    (["fit", "--num-trees", "abc"], "fit"),
    (["predict", "--x", "q.csv", "--out", "p.csv"], "predict"),
    (["simulate", "--scenario", "I-1", "--seed", "1", "--out-dir", "o",
      "--header"], "simulate"),
], ids=["no-command", "unknown-command", "bad-choice", "bad-int",
        "missing-required", "removed-option"])
def test_usage_error_is_an_error_json(tmp_path, capsys, monkeypatch, argv,
                                      command):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["command"] == command
    assert "usage:" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: frechetforest")


def test_readme_cli_examples_parse():
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as handle:
        section = handle.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", "").splitlines()
             if line.startswith("frechetforest ")]
    parser = cli.build_parser()
    commands = [parser.parse_args(shlex.split(line)[1:]).command
                for line in lines]
    assert sorted(commands) == sorted(cli._DISPATCH)


def _fit_small_model(tmp_path, estimator="rfwllfr"):
    out = tmp_path / "data"
    cli.main(["simulate", "--scenario", "I-2", "--p", "2", "--n", "40",
              "--seed", "7", "--out-dir", str(out)])
    model = tmp_path / f"{estimator}.json"
    rc = cli.main(["fit", "--estimator", estimator, "--space", "wasserstein",
                   "--dim", "21", "--x", str(out / "X.csv"),
                   "--y", str(out / "Y.csv"), "--seed", "1",
                   "--num-trees", "4", "--out", str(model)])
    assert rc == 0
    return model


def test_nonfinite_csv_value_names_line(tmp_path):
    for token in ("nan", "inf", "-Infinity"):
        (tmp_path / "bad.csv").write_text(f"0.1,0.2\n0.3,{token}\n")
        with pytest.raises(CliError, match="line 2") as info:
            cli._parse_csv_matrix(str(tmp_path / "bad.csv"), header=False)
        assert "non-finite" in str(info.value)
        assert info.value.details == {"path": str(tmp_path / "bad.csv"),
                                      "line": 2}
    _write_csv(tmp_path / "X.csv", [[0.1], [0.2]])
    (tmp_path / "Y.csv").write_text("0.0\nnan\n")
    with pytest.raises(CliError, match="line 2"):
        load_dataset(str(tmp_path / "X.csv"), str(tmp_path / "Y.csv"),
                     wasserstein_space(1))


def _one_split_model(rule, leaves=([0], [1])):
    """A one-tree forest document (n = p = 2) whose root splits by ``rule``
    into two leaves holding ``leaves``."""
    return json.dumps({"estimator": "frf", "model": {
        "space": wasserstein_space(1).to_dict(),
        "config": dataclasses.asdict(forest.ForestConfig(num_trees=1)),
        "trees": [{"root": {"rule": rule, "left": {"leaf": leaves[0]},
                            "right": {"leaf": leaves[1]}},
                   "subsample": [0, 1]}],
        "X": [[0.1, 0.2], [0.3, 0.4]], "Y": [[0.0], [1.0]]}})


def _dim_model(dim):
    """A one-split forest document whose space ``dim`` is ``dim``, with
    ``Y`` rows of the width ``int(dim)``, so only the type of ``dim`` is
    wrong."""
    doc = json.loads(_one_split_model({"feature": 0, "threshold": 0.25}))
    doc["model"]["space"]["dim"] = dim
    doc["model"]["Y"] = [[v] * int(dim) for v in (0.0, 1.0)]
    return json.dumps(doc)


# a split rule that lacks its threshold
_NO_THRESHOLD = _one_split_model({"feature": 0, "kind": "threshold"})


def _nonfinite_model(estimator, key):
    """A forest or GFR document (n = p = 2) with a non-finite ``key``:
    infinity in ``X``, NaN in ``Y``."""
    doc = json.loads(_one_split_model({"feature": 0, "threshold": 0.25}))
    if estimator == "gfr":
        doc = {"estimator": "gfr",
               **{k: doc["model"][k] for k in ("space", "X", "Y")}}
    data = doc if estimator == "gfr" else doc["model"]
    data[key][1][0] = float("inf") if key == "X" else float("nan")
    return json.dumps(doc)


def _sphere_model(estimator, edit):
    """A forest or GFR document (n = p = 2) on the unit sphere in R^3 whose
    ``Y`` rows are changed by ``edit``."""
    doc = json.loads(_one_split_model({"feature": 0, "threshold": 0.25}))
    data = doc["model"]
    data["space"] = sphere_space(3).to_dict()
    data["Y"] = edit([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    if estimator == "gfr":
        doc = {k: data[k] for k in ("space", "X", "Y")}
    doc["estimator"] = estimator
    return json.dumps(doc)


@pytest.mark.parametrize("text, field", [
    ("{}", "estimator"),
    ("[1, 2]", None),
    ('{"estimator": "rfwlcfr"}', "model"),
    ('{"estimator": "gfr"}', "space"),
    ('{"estimator": "frf", "model": []}', None),
    ("not json", None),
    (_NO_THRESHOLD, "threshold"),
    # a two-means rule written before rules were thresholds
    pytest.param(_one_split_model({"feature": 0, "kind": "representatives",
                                   "c_left": 0.2, "c_right": 0.8}),
                 "threshold", id="representatives-threshold"),
    *(pytest.param(_one_split_model({"feature": 0, "threshold": c}),
                   "threshold", id=f"threshold-{name}")
      for name, c in [("nan", float("nan")), ("inf", float("inf")),
                      ("text", "0.5"), ("bool", True)]),
    *(pytest.param(_nonfinite_model(estimator, key), key,
                   id=f"{estimator}-nonfinite-{key}")
      for estimator in ("frf", "gfr") for key in ("X", "Y")),
    *(pytest.param(_sphere_model(estimator, edit), "Y",
                   id=f"{estimator}-{name}")
      for estimator in ("rfwlcfr", "gfr")
      for name, edit in [("off-sphere", lambda Y: [[2.0, 0.0, 0.0]] * 2),
                         ("fourth-coordinate",
                          lambda Y: [y + [0.0] for y in Y]),
                         ("missing-row", lambda Y: Y[:1])]),
    *(pytest.param(_dim_model(dim), None, id=f"dim-{name}")
      for name, dim in [("float", 2.5), ("text", "2"), ("bool", True)]),
    pytest.param(_one_split_model({"feature": 7, "threshold": 0.5}),
                 "feature", id="feature-7-of-2"),
    pytest.param(_one_split_model({"feature": -1, "threshold": 0.5}),
                 "feature", id="feature-negative"),
    pytest.param(_one_split_model({"feature": 1.0, "threshold": 0.5}),
                 "feature", id="feature-float"),
    pytest.param(_one_split_model({"feature": True, "threshold": 0.5}),
                 "feature", id="feature-bool"),
    *(pytest.param(_one_split_model({"feature": 0, "threshold": 0.5},
                                    ([0], leaf)), "leaf", id=f"leaf-{name}")
      for name, leaf in [("5-of-2", [0, 5]), ("negative", [-1]),
                         ("empty", []), ("float", [0.5]), ("bool", [True]),
                         ("not-a-list", 1)]),
])
def test_predict_rejects_malformed_model_file(tmp_path, capsys, text, field):
    model = tmp_path / "model.json"
    model.write_text(text)
    _write_csv(tmp_path / "q.csv", [[0.1, 0.2]])
    rc = cli.main(["predict", "--model", str(model),
                   "--x", str(tmp_path / "q.csv"),
                   "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "predict"
    assert err["path"] == str(model)
    assert err.get("field") == field
    assert "model file" in err["error"]
    for leaked in ("KeyError", "TypeError", "JSONDecodeError"):
        assert leaked not in err["error"]


def test_predict_rejects_nonfinite_query(tmp_path, capsys):
    model = _fit_small_model(tmp_path)
    _write_csv(tmp_path / "q.csv", [[0.1, 0.2], [0.3, float("nan")]])
    rc = cli.main(["predict", "--model", str(model),
                   "--x", str(tmp_path / "q.csv"),
                   "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["line"] == 2 and "non-finite" in err["error"]
    assert not (tmp_path / "p.csv").exists()


def test_predict_rejects_predictor_count_mismatch(tmp_path, capsys):
    model = _fit_small_model(tmp_path)
    _write_csv(tmp_path / "q.csv", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    rc = cli.main(["predict", "--model", str(model),
                   "--x", str(tmp_path / "q.csv"),
                   "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["expected"], err["given"]) == (2, 3)
    assert not (tmp_path / "p.csv").exists()


def test_model_document_data_keys(tmp_path, capsys):
    path = _fit_small_model(tmp_path, "frf")
    doc = json.loads(path.read_text())
    assert "data_included" not in doc["model"]
    # two-means and exhaustive rules alike are a feature and a threshold
    exhaustive = tmp_path / "exhaustive.json"
    data = tmp_path / "data"
    assert cli.main(["fit", "--estimator", "frf", "--space", "wasserstein",
                     "--dim", "21", "--x", str(data / "X.csv"),
                     "--y", str(data / "Y.csv"), "--seed", "1",
                     "--num-trees", "4", "--split-method", "exhaustive",
                     "--out", str(exhaustive)]) == 0
    for d in (doc, json.loads(exhaustive.read_text())):
        stack = [t["root"] for t in d["model"]["trees"]]
        rules = 0
        while stack:
            node = stack.pop()
            if "rule" in node:
                assert set(node["rule"]) == {"feature", "threshold"}
                stack += (node["left"], node["right"])
                rules += 1
        assert rules > 0
    _write_csv(tmp_path / "q.csv", [[0.1, 0.2]])
    argv = ["predict", "--model", str(path), "--x", str(tmp_path / "q.csv"),
            "--out", str(tmp_path / "p.csv")]
    # files written with the older "data_included" key still load
    doc["model"]["data_included"] = True
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 0
    del doc["model"]["X"]
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["field"], err["path"]) == ("X", str(path))


_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("name", ["old_forest_rfwllfr",
                                  "old_forest_frf_honest", "old_gfr"])
def test_older_model_file_predicts_as_a_new_one(tmp_path, name):
    # files written before model documents held only what predict reads:
    # a space "normalization", a tree-config "seed" and each tree's
    # "subsample" (and honest "structure" and "prediction_half") lists
    old_path = os.path.join(_DATA, f"{name}.json")
    with open(old_path) as handle:
        old = json.load(handle)
    data = old if old["estimator"] == "gfr" else old["model"]
    assert data["space"].pop("normalization") == "riemann"
    X, Y = np.asarray(data["X"]), np.asarray(data["Y"])
    space = spaces.MetricSpace.from_dict(data["space"])
    if old["estimator"] == "gfr":
        new = {"estimator": "gfr", "X": X.tolist(), "Y": Y.tolist(),
               "space": space.to_dict()}
    else:
        assert data["config"]["tree"].pop("seed") == 0
        honest = data["config"]["tree"]["honest"]
        for t in data["trees"]:
            keys = ["subsample"] + ["structure", "prediction_half"] * honest
            for key in keys:
                assert t.pop(key)
        cfg = forest.ForestConfig.from_dict(data["config"])
        new = {"estimator": old["estimator"], "model": forest.model_to_dict(
            forest.fit_forest(X, Y, space, cfg))}
    # the new code writes the older document without those keys
    assert json.dumps(new) == json.dumps(old)
    new_path = tmp_path / "new.json"
    new_path.write_text(json.dumps(new) + "\n")
    _write_csv(tmp_path / "q.csv",
               np.random.default_rng(0).uniform(size=(6, 2)))
    out = {}
    for label, path in (("old", old_path), ("new", new_path)):
        out[label] = tmp_path / f"{label}.csv"
        assert cli.main(["predict", "--model", str(path),
                         "--x", str(tmp_path / "q.csv"),
                         "--out", str(out[label])]) == 0
    assert out["old"].read_bytes() == out["new"].read_bytes()


@pytest.mark.parametrize("estimator,loader",
                         [("rfwllfr", (forest, "model_from_dict")),
                          ("frf", (forest, "model_from_dict")),
                          ("gfr", (regressors, "fit_gfr"))])
def test_predict_loads_model_once(tmp_path, monkeypatch, estimator, loader):
    model = _fit_small_model(tmp_path, estimator)
    rng = np.random.default_rng(0)
    _write_csv(tmp_path / "q.csv", rng.uniform(size=(5, 2)))
    calls = []
    module, name = loader
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    rc = cli.main(["predict", "--model", str(model),
                   "--x", str(tmp_path / "q.csv"),
                   "--out", str(tmp_path / "p.csv")])
    assert rc == 0
    assert calls == [name]
    pred = cli._parse_csv_matrix(str(tmp_path / "p.csv"), header=True)
    assert pred.shape == (5, 2 + 21 + 4)


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, frechetforest.cli; "
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_does_not_load_multiprocessing():
    # only bench-table --jobs > 1 needs a process pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, frechetforest.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' "
            "or m == 'concurrent.futures.process'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("space,scenario,dim",
                         [("wasserstein", "I-2", 21), ("sphere", "III-2", 3)],
                         ids=["wasserstein", "sphere"])
@pytest.mark.parametrize("kind", ["rfwlcfr", "rfwllfr", "frf", "gfr"])
def test_cli_predict_rows_equal_library_predictions(tmp_path, kind, space,
                                                    scenario, dim):
    data = tmp_path / "data"
    cli.main(["simulate", "--scenario", scenario, "--p", "2", "--n", "40",
              "--seed", "7", "--out-dir", str(data)])
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--estimator", kind, "--space", space,
                     "--dim", str(dim), "--x", str(data / "X.csv"),
                     "--y", str(data / "Y.csv"), "--seed", "1",
                     "--num-trees", "4", "--out", str(model_path)]) == 0
    queries = np.random.default_rng(3).uniform(size=(6, 2))
    _write_csv(tmp_path / "q.csv", queries)
    assert cli.main(["predict", "--model", str(model_path),
                     "--x", str(tmp_path / "q.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 0
    pred = cli._parse_csv_matrix(str(tmp_path / "p.csv"), header=True)
    _, model = cli._load_model(str(model_path))
    predict = getattr(regressors, f"predict_{kind}")
    for row, x in zip(pred, queries):
        obj, info = predict(model, x, return_info=True)
        assert np.array_equal(predict(model, x), obj)
        w = info["weights"]
        # 17 significant digits round-trip every double exactly
        assert np.array_equal(row[2:2 + dim], np.ravel(obj))
        assert list(row[-4:]) == [int(info["converged"]), np.min(w),
                                  np.max(w), np.sum(w)]
        if kind == "frf":
            assert np.array_equal(w, np.full(4, 0.25))


_BLOCK_SCIPY = """
import importlib.abc, sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
"""


def test_simulate_runs_with_scipy_unimportable(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    commands = {sc: ["simulate", "--scenario", sc, "--p", "2", "--n", "20",
                     "--seed", "1"] for sc in ("I-1", "I-2", "I-3")}
    code = _BLOCK_SCIPY + (
        "from frechetforest import cli\n"
        f"for sc, cmd in {commands!r}.items():\n"
        f"    out = {str(tmp_path / 'blocked')!r} + '/' + sc\n"
        "    print(cli.main(cmd + ['--out-dir', out]))\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["0", "0", "0", "[]"]
    for sc, cmd in commands.items():
        ref = tmp_path / "in-process" / sc
        assert cli.main(cmd + ["--out-dir", str(ref)]) == 0
        names = sorted(os.listdir(ref))
        assert sorted(os.listdir(tmp_path / "blocked" / sc)) == names
        assert "Y.csv" in names
        for name in names:
            assert ((tmp_path / "blocked" / sc / name).read_bytes()
                    == (ref / name).read_bytes())
