"""Command-line interface: dataset I/O, fit/predict, tuning, benchmarks.

Subcommands: ``fit``, ``predict``, ``tune``, ``simulate``, ``bench-table``.
Options can come from a JSON config document (``--config``), whose fields
are read as the command's flags of the same name; explicit flags override
config fields.  All numeric output uses 17 significant digits and
files are written atomically (temp file + rename), so a fixed seed yields
byte-identical artifacts regardless of parallelism.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import forest as forest_mod
from . import regressors, simulate, spaces
from .forest import ForestConfig
from .tree import TreeConfig, iter_nodes

class CliError(Exception):
    """User-facing failure; rendered as an error JSON and nonzero exit."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


def _fmt(value) -> str:
    return format(float(value), ".17g")


def atomic_write(path: str, text: str) -> None:
    """Write a file via a temporary sibling and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-cli-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows, header=None) -> str:
    lines = []
    if header is not None:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            _fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
            for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dataset I/O


def _parse_csv_matrix(path: str, header: bool) -> np.ndarray:
    if not os.path.exists(path):
        raise CliError(f"file not found: {path}", path=path)
    rows = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or (header and lineno == 1):
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise CliError(f"parse failure in {path} at line {lineno}",
                               path=path, line=lineno)
            if not all(map(math.isfinite, row)):
                raise CliError(f"non-finite value in {path} at line {lineno}",
                               path=path, line=lineno)
            rows.append(row)
    if not rows:
        raise CliError(f"no data rows in {path}", path=path)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise CliError(f"ragged CSV rows in {path}", path=path)
    return np.asarray(rows)


def rows_to_objects(rows: np.ndarray, space: spaces.MetricSpace) -> np.ndarray:
    """Decode per-space CSV rows (quantiles / row-major matrix / vector)."""
    width = math.prod(space.shape)
    if rows.shape[1] != width:
        raise CliError(f"expected {width} values per row, "
                       f"got {rows.shape[1]}")
    objs = rows.reshape((len(rows),) + space.shape)
    for i, obj in enumerate(objs):
        try:
            spaces.validate_object(space, obj)
        except ValueError as exc:
            raise CliError(f"invalid response at row {i + 1}: {exc}",
                           row=i + 1)
    return objs


def objects_to_rows(ystack: np.ndarray) -> np.ndarray:
    return np.asarray(ystack).reshape(len(ystack), -1)


def load_dataset(x_path: str, y_path: str, space: spaces.MetricSpace,
                 header: bool = False) -> simulate.Dataset:
    X = _parse_csv_matrix(x_path, header)
    Y = rows_to_objects(_parse_csv_matrix(y_path, header), space)
    if len(X) != len(Y):
        raise CliError(
            f"row-count mismatch: {len(X)} X rows vs {len(Y)} Y rows")
    return simulate.Dataset(X, Y, None, space)


def save_dataset(dataset: simulate.Dataset, out_dir: str) -> None:
    atomic_write(os.path.join(out_dir, "X.csv"), _csv_text(dataset.X))
    atomic_write(os.path.join(out_dir, "Y.csv"),
                 _csv_text(objects_to_rows(dataset.Y)))
    if dataset.truth is not None:
        atomic_write(os.path.join(out_dir, "truth.csv"),
                     _csv_text(objects_to_rows(dataset.truth)))
    atomic_write(os.path.join(out_dir, "space.json"),
                 json.dumps(dataset.space.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# config plumbing


def _space_from_args(args) -> spaces.MetricSpace:
    if args.space is None:
        raise CliError("--space is required")
    if args.space not in spaces.KINDS:
        raise CliError(f"unknown space {args.space!r}",
                       choices=sorted(spaces.KINDS))
    if args.dim is None:
        raise CliError("--dim is required")
    return spaces.MetricSpace(args.space, int(args.dim), args.normalization)


def _config_tokens(parser: argparse.ArgumentParser, args) -> list:
    """The fields of the ``--config`` document as the command's own flags.

    Each field is checked as its flag's value would be: a switch takes
    only JSON ``true`` or ``false``, a list option a JSON list, and a field
    that names no option of the command is an error.
    """
    if not os.path.exists(args.config):
        raise CliError(f"config file not found: {args.config}")
    with open(args.config) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CliError(f"config parse failure: {exc}")
    if not isinstance(doc, dict):
        raise CliError("config document is not a JSON object")
    commands = next(a for a in parser._actions if a.dest == "command")
    options = {a.dest: a for a in commands.choices[args.command]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    tokens = []
    for key, value in doc.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise CliError(f"config field {key!r} is not an option of "
                           f"{args.command}", field=key)
        flag = action.option_strings[0]
        if action.nargs == 0:
            if type(value) is not bool:
                raise CliError(f"config field {key!r} is a switch: it must "
                               "be true or false", field=key)
            if value:
                tokens.append(flag)
            continue
        values = value if action.nargs == "+" else [value]
        if not (type(values) is list and values
                and all(_parses_as(action, v) for v in values)):
            raise CliError(f"config field {key!r} has a bad value "
                           f"{json.dumps(value)} for {flag}", field=key)
        tokens += ([flag, *map(str, values)] if action.nargs == "+"
                   else [f"{flag}={value}"])
    return tokens


def _parses_as(action: argparse.Action, value) -> bool:
    """Whether a JSON scalar is a valid value of ``action``'s flag."""
    if type(value) not in (str, int, float):
        return False
    try:
        parsed = (action.type or str)(str(value))
    except ValueError:
        return False
    return action.choices is None or parsed in action.choices


def _require_seed(args) -> int:
    if args.seed is None:
        raise CliError("--seed is mandatory (no wall-clock seeding)")
    return int(args.seed)


def _sim_setting(args) -> simulate.SimSetting:
    return simulate.SimSetting(
        scenario=args.scenario, p=int(args.p), n=int(args.n),
        sigma=None if args.sigma is None else float(args.sigma),
        spd_metric=args.spd_metric)


def _forest_config(args, seed: int) -> ForestConfig:
    tree = TreeConfig(
        max_depth=int(args.max_depth), min_leaf=int(args.min_leaf),
        mtry=None if args.mtry is None else int(args.mtry),
        split_method=args.split_method, honest=bool(args.honest))
    return ForestConfig(num_trees=int(args.num_trees), tree=tree,
                        subsample_mode=args.subsample_mode,
                        master_seed=seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> None:
    space = _space_from_args(args)
    seed = _require_seed(args)
    data = load_dataset(args.x, args.y, space, args.header)
    if args.estimator == "gfr":
        model = regressors.fit_gfr(data.X, data.Y, space)
        doc = {"estimator": "gfr",
               "X": data.X.tolist(),
               "Y": objects_to_rows(data.Y).tolist(),
               "space": space.to_dict()}
    elif args.estimator in regressors.FOREST_KINDS:
        fmodel = forest_mod.fit_forest(data.X, data.Y, space,
                                       _forest_config(args, seed))
        doc = {"estimator": args.estimator,
               "model": forest_mod.model_to_dict(fmodel)}
    else:
        raise CliError(f"fit does not support estimator {args.estimator!r}")
    atomic_write(args.out, json.dumps(doc) + "\n")


def _finite(path, field: str, values) -> np.ndarray:
    """``values`` of a model file's ``field`` as floats, all finite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise CliError(f"model file {path} has a non-finite {field}",
                       path=path, field=field)
    return values


def _load_model(path):
    """The estimator kind and fitted model (GFR or forest) of a model file."""
    if not os.path.exists(path):
        raise CliError(f"model file not found: {path}")
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CliError(f"model file {path} is not JSON: {exc}", path=path)
    if not isinstance(doc, dict):
        raise CliError(f"model file {path} is not a JSON object", path=path)
    try:
        kind = doc["estimator"]
        if kind == "gfr":
            space = spaces.MetricSpace.from_dict(doc["space"])
            X = _finite(path, "X", doc["X"])
            Y = rows_to_objects(_finite(path, "Y", doc["Y"]), space)
            return kind, regressors.fit_gfr(X, Y, space)
        if kind not in regressors.FOREST_KINDS:
            raise CliError(f"unknown estimator {kind!r} in model file",
                           path=path)
        model = forest_mod.model_from_dict(doc["model"])
        _finite(path, "X", model.X)
        _finite(path, "Y", model.Y)
        n, p = model.X.shape
        # checked on the document: loading reads a leaf index 0.5 as 0
        for v in (v for t in doc["model"]["trees"]
                  for v in iter_nodes(t["root"])):
            c = v["rule"]["threshold"] if "rule" in v else 0.0  # leaf
            if type(c) not in (int, float) or not math.isfinite(c):
                raise CliError(f"model file {path} has a bad threshold: it "
                               "must be a finite number",
                               path=path, field="threshold")
            field, size = ("feature", p) if "rule" in v else ("leaf", n)
            values = [v["rule"]["feature"]] if "rule" in v else v["leaf"]
            if not (type(values) is list and values and all(
                    type(i) is int and 0 <= i < size for i in values)):
                raise CliError(f"model file {path} has a bad {field}: it "
                               f"must be integers in [0, {size})",
                               path=path, field=field)
        return kind, model
    except KeyError as exc:
        raise CliError(f"model file {path} lacks field {exc.args[0]!r}",
                       path=path, field=exc.args[0])
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise CliError(f"malformed model file {path}: {exc}", path=path)


def cmd_predict(args) -> None:
    kind, model = _load_model(args.model)
    X = _parse_csv_matrix(args.x, args.header)
    p = X.shape[1]
    if p != model.X.shape[1]:
        raise CliError(f"{args.x} has {p} predictor columns, the model "
                       f"expects {model.X.shape[1]}",
                       expected=model.X.shape[1], given=p)
    rows = []
    first = None
    predict = getattr(regressors, f"predict_{kind}")
    for x in X:
        obj, info = predict(model, x, return_info=True)
        flat = np.asarray(obj).ravel()
        if first is None:
            first = len(flat)
        w = info["weights"]
        rows.append(list(x) + list(flat)
                    + [int(info["converged"]), float(np.min(w)),
                       float(np.max(w)), float(np.sum(w))])
    header = ([f"x{j + 1}" for j in range(p)]
              + [f"y{j + 1}" for j in range(first)]
              + ["converged", "weight_min", "weight_max", "weight_sum"])
    atomic_write(args.out, _csv_text(rows, header))


def cmd_tune(args) -> None:
    space = _space_from_args(args)
    seed = _require_seed(args)
    data = load_dataset(args.x, args.y, space, args.header)
    if args.estimator in regressors.FOREST_KINDS:
        grid = regressors.forest_grid(len(data.X), data.X.shape[1],
                                      args.depth_grid, args.mtry_grid)
    elif args.estimator in regressors.KERNEL_KINDS:
        grid = regressors.kernel_grid(args.bandwidth_grid)
    else:
        raise CliError(f"tune does not support estimator {args.estimator!r}")
    best, table = regressors.tune_cv(
        data.X, data.Y, space, args.estimator, grid,
        folds=int(args.folds), seed=seed, num_trees=int(args.num_trees))
    for row in table:
        for fold, message in row["failures"]:
            print(json.dumps({"warning": "CV fold failed; scored inf",
                              "command": "tune", "cell": row["cell"],
                              "fold": fold, "error": message}),
                  file=sys.stderr)
    # a cell with a failed fold has no finite score: it is left out
    scored = [row for row in table if math.isfinite(row["mean_error"])]
    if not scored:
        raise CliError("no grid cell scored: every cell has a failed CV fold",
                       cells=len(grid))
    keys = sorted(grid[0])
    rows = [[row["cell"][k] for k in keys]
            + [row["mean_error"], row["sd_error"]] for row in scored]
    atomic_write(args.out, _csv_text(rows, keys + ["mean_error", "sd_error"]))
    atomic_write(os.path.splitext(args.out)[0] + "_best.json",
                 json.dumps(best) + "\n")


def cmd_simulate(args) -> None:
    seed = _require_seed(args)
    setting = _sim_setting(args)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    dataset = simulate.generate(setting, rng)
    save_dataset(dataset, args.out_dir)


def cmd_bench_table(args) -> None:
    seed = _require_seed(args)
    setting = _sim_setting(args)
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    for i, e in enumerate(estimators):
        if e not in regressors.ALL_KINDS:
            raise CliError(f"unknown estimator {e!r}",
                           choices=list(regressors.ALL_KINDS))
        if e in estimators[:i]:
            raise CliError(f"estimator {e!r} is listed more than once",
                           estimator=e)
    cfg = simulate.MonteCarloConfig(
        runs=int(args.runs), num_trees=int(args.num_trees),
        cv_trees=int(args.cv_trees), folds=int(args.folds),
        depth_grid=tuple(args.depth_grid) if args.depth_grid else None,
        mtry_grid=tuple(args.mtry_grid) if args.mtry_grid else None,
        min_leaf=int(args.min_leaf), split_method=args.split_method,
        honest=bool(args.honest))
    result = simulate.monte_carlo(setting, estimators, cfg, seed=seed,
                                  n_jobs=int(args.jobs))
    label = f"{setting.scenario}_p{setting.p}_n{setting.n}"
    summary_rows = [[label, k, result.summary[k]["mean_mse"],
                     result.summary[k]["sd_mse"], result.summary[k]["runs"]]
                    for k in estimators]
    atomic_write(os.path.join(args.out_dir, "summary.csv"),
                 _csv_text(summary_rows,
                           ["setting", "method", "mean_mse", "sd_mse",
                            "runs"]))
    long_rows = [[label, k, r, mse] for r, k, mse in result.rows]
    atomic_write(os.path.join(args.out_dir, "long.csv"),
                 _csv_text(long_rows, ["setting", "method", "run", "mse"]))
    metrics = {
        "setting": label,
        "estimators": result.summary,
        "failures": len(result.failures),
        "failed_runs": result.failures,
        "cv_failures": result.cv_failures}
    atomic_write(os.path.join(args.out_dir, "metrics.json"),
                 json.dumps(metrics, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", help="JSON config; flags override fields")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--header", action="store_true",
                     help="input CSV files carry a header row")


def _add_space(sub):
    sub.add_argument("--space", choices=sorted(spaces.KINDS), default=None)
    sub.add_argument("--dim", type=int, default=None)
    sub.add_argument("--normalization", default="riemann",
                     choices=("riemann", "euclidean"))


def _add_forest(sub):
    sub.add_argument("--num-trees", type=int, default=100)
    sub.add_argument("--max-depth", type=int, default=7)
    sub.add_argument("--mtry", type=int, default=None)
    _add_split(sub)
    sub.add_argument("--subsample-mode", default="bootstrap_with_replacement",
                     choices=("bootstrap_with_replacement",
                              "without_replacement"))


def _add_split(sub):
    sub.add_argument("--min-leaf", type=int, default=5)
    sub.add_argument("--split-method", default="two_means",
                     choices=("two_means", "exhaustive"))
    sub.add_argument("--honest", action="store_true")


def _add_cv(sub):
    sub.add_argument("--folds", type=int, default=5)
    sub.add_argument("--depth-grid", type=int, nargs="+", default=None)
    sub.add_argument("--mtry-grid", type=int, nargs="+", default=None)


def _add_setting(sub):
    sub.add_argument("--scenario", required=True,
                     choices=simulate.SCENARIOS)
    sub.add_argument("--p", type=int, default=2)
    sub.add_argument("--n", type=int, default=100)
    sub.add_argument("--sigma", type=float, default=None)
    sub.add_argument("--spd-metric", default="logcholesky",
                     choices=("logcholesky", "affine"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frechetforest",
        description="Random-forest-weighted Fréchet regression toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit a model and persist it as JSON")
    _add_common(fit)
    _add_space(fit)
    _add_forest(fit)
    fit.add_argument("--estimator", required=True,
                     choices=tuple(regressors.FOREST_KINDS) + ("gfr",))
    fit.add_argument("--x", required=True)
    fit.add_argument("--y", required=True)
    fit.add_argument("--out", required=True)

    pred = subs.add_parser("predict", help="predict at query points")
    _add_common(pred)
    pred.add_argument("--model", required=True)
    pred.add_argument("--x", required=True)
    pred.add_argument("--out", required=True)

    tune = subs.add_parser("tune", help="cross-validated grid search")
    _add_common(tune)
    _add_space(tune)
    tune.add_argument("--estimator", required=True,
                      choices=regressors.ALL_KINDS)
    tune.add_argument("--x", required=True)
    tune.add_argument("--y", required=True)
    tune.add_argument("--out", required=True)
    _add_cv(tune)
    tune.add_argument("--num-trees", type=int, default=50)
    tune.add_argument("--bandwidth-grid", type=float, nargs="+",
                      default=None)

    sim = subs.add_parser("simulate", help="emit a synthetic dataset")
    _add_common(sim)
    _add_setting(sim)
    sim.add_argument("--out-dir", required=True)

    bench = subs.add_parser("bench-table",
                            help="Monte-Carlo benchmark table")
    _add_common(bench)
    _add_setting(bench)
    bench.add_argument("--estimators", required=True,
                       help="comma-separated estimator kinds")
    bench.add_argument("--runs", type=int, default=20)
    bench.add_argument("--num-trees", type=int, default=100)
    bench.add_argument("--cv-trees", type=int, default=50)
    _add_cv(bench)
    _add_split(bench)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out-dir", required=True)
    return parser


_DISPATCH = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "tune": cmd_tune,
    "simulate": cmd_simulate,
    "bench-table": cmd_bench_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config fields go before the command line's flags, which so
            # override them; the command is the first token
            argv = sys.argv[1:] if argv is None else list(argv)
            args = parser.parse_args(
                argv[:1] + _config_tokens(parser, args) + argv[1:])
        _DISPATCH[args.command](args)
    except CliError as exc:
        payload = {"error": str(exc), "command": args.command}
        payload.update(exc.details)
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - uniform machine-readable exit
        payload = {"error": f"{type(exc).__name__}: {exc}",
                   "command": args.command}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
