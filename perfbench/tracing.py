"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces the public functions of each layer (``cli``,
``simulate``, ``regressors``, ``forest``, ``tree``, ``spaces``) with wrappers
that record a span per call: name, start, end and parent span.  Spans are
kept in memory; :func:`layer_metrics` turns them into per-layer counts and
self times at the end of the run.  Nothing under ``src/`` is modified.

A function is replaced at every binding the package looks it up through:
module attributes, names imported with ``from ... import`` (such as
``forest.leaf_for`` or ``regressors.kernel_weights``) and module-level
dispatch tables (``regressors._FOREST_PREDICTORS``, ``cli._DISPATCH``).
"""

from __future__ import annotations

import time

import numpy as np

from harness import Span, self_times

PACKAGE_MODULES = ("__init__", "spaces", "tree", "forest", "regressors",
                   "simulate", "cli")

ESTIMATORS = ("rfwlcfr", "rfwllfr", "frf", "gfr", "nw")
CLI_COMMANDS = {"cmd_simulate": "simulate", "cmd_fit": "fit",
                "cmd_predict": "predict", "cmd_bench_table": "bench-table"}

# (module, function, span name)
TARGETS = (
    [("spaces", "weighted_frechet_mean", "spaces.mean"),
     ("spaces", "distance", "spaces.distance"),
     ("tree", "grow_tree", "tree.grow"),
     ("tree", "best_split", "tree.best_split"),
     ("tree", "two_means_1d", "tree.two_means_1d"),
     ("tree", "leaf_for", "tree.leaf_for"),
     ("tree", "tree_predict", "tree.tree_predict"),
     ("forest", "fit_forest", "forest.fit"),
     ("forest", "kernel_weights", "forest.kernel_weights"),
     ("forest", "model_to_dict", "forest.model_to_dict"),
     ("forest", "model_from_dict", "forest.model_from_dict")]
    + [("regressors", f"predict_{e}", f"regressors.predict.{e}")
       for e in ESTIMATORS]
    + [("regressors", "local_linear_weights",
        "regressors.local_linear_weights"),
       ("regressors", "tune_cv", "regressors.tune_cv"),
       ("regressors", "fit_gfr", "regressors.fit_gfr"),
       ("regressors", "predict_forest_batch",
        "regressors.predict_forest_batch"),
       ("simulate", "generate", "simulate.generate"),
       ("simulate", "run_once", "simulate.run_once"),
       ("simulate", "evaluate_mse", "simulate.evaluate_mse"),
       ("cli", "load_dataset", "cli.load_dataset"),
       ("cli", "atomic_write", "cli.atomic_write")]
    + [("cli", fn, f"cli.cmd.{cmd}") for fn, cmd in CLI_COMMANDS.items()])

# Per-layer metrics: (name, unit, better).  Counts are deterministic for a
# fixed seed; ``*_s`` entries are wall-clock self times.
COUNT_METRICS = (
    [(f"spaces.mean.calls.{k}", "count", "lower") for k in ("unsigned", "signed")]
    + [(f"spaces.mean.iters.{k}", "count", "lower") for k in ("unsigned", "signed")]
    + [("spaces.mean.calls.split", "count", "lower"),
       ("spaces.mean.nonconverged", "count", "lower"),
       ("spaces.distance.calls", "count", "lower"),
       ("tree.grow.calls", "count", "lower"),
       ("tree.best_split.calls", "count", "lower"),
       ("tree.best_split.found", "count", "higher"),
       ("tree.two_means_1d.calls", "count", "lower"),
       ("tree.leaf_for.calls", "count", "lower"),
       ("tree.tree_predict.calls", "count", "lower"),
       ("forest.fit.calls", "count", "lower"),
       ("forest.kernel_weights.calls", "count", "lower"),
       ("forest.model_from_dict.calls", "count", "lower"),
       ("forest.model_bytes", "bytes", "lower")]
    + [(f"regressors.predict.calls.{e}", "count", "lower") for e in ESTIMATORS]
    + [("regressors.local_linear_weights.calls", "count", "lower"),
       ("regressors.tune_cv.calls", "count", "lower"),
       ("regressors.predict_forest_batch.calls", "count", "lower"),
       ("simulate.generate.calls", "count", "lower"),
       ("simulate.run_once.calls", "count", "lower"),
       ("simulate.failures", "count", "lower"),
       ("cli.atomic_write.calls", "count", "lower"),
       ("cli.atomic_write.bytes", "bytes", "lower")])

TIME_METRICS = (
    [(f"spaces.mean.self_s.{k}", "s", "lower") for k in ("unsigned", "signed")]
    + [("spaces.distance.self_s", "s", "lower"),
       ("tree.grow.self_s", "s", "lower"),
       ("tree.best_split.self_s", "s", "lower"),
       ("tree.leaf_for.self_s", "s", "lower"),
       ("tree.tree_predict.self_s", "s", "lower"),
       ("forest.fit.self_s", "s", "lower"),
       ("forest.kernel_weights.self_s", "s", "lower"),
       ("forest.model_to_dict.self_s", "s", "lower"),
       ("forest.model_from_dict.self_s", "s", "lower")]
    + [(f"regressors.predict.self_s.{e}", "s", "lower") for e in ESTIMATORS]
    + [("regressors.local_linear_weights.self_s", "s", "lower"),
       ("regressors.tune_cv.self_s", "s", "lower"),
       ("regressors.fit_gfr.self_s", "s", "lower"),
       ("simulate.generate.self_s", "s", "lower"),
       ("simulate.run_once.self_s", "s", "lower"),
       ("simulate.evaluate_mse.self_s", "s", "lower"),
       ("cli.import_s", "s", "lower")]
    + [(f"cli.cmd.self_s.{cmd}", "s", "lower") for cmd in CLI_COMMANDS.values()]
    + [("cli.load_dataset.self_s", "s", "lower")])

RATIO_METRICS = [("tree.best_split.useful_ratio", "ratio", "higher"),
                 ("trace.overhead_frac", "ratio", "lower")]

PER_LAYER = COUNT_METRICS + TIME_METRICS + RATIO_METRICS


class Tracer:
    """Records spans in memory while installed over the package."""

    def __init__(self):
        self.spans = []
        self.attrs = {}
        self._stack = []
        self._next_id = 0
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name, parent, time.perf_counter()))
        return sid

    def _close(self):
        sid, name, parent, start = self._stack.pop()
        self.spans.append(Span(sid, name, start, time.perf_counter(), parent))

    def _wrap(self, name, fn):
        if name == "spaces.mean":
            return self._wrap_mean(fn)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if name == "tree.best_split":
                self.attrs[sid] = {"found": result is not None}
            elif name == "cli.atomic_write":
                text = args[1] if len(args) > 1 else kwargs["text"]
                self.attrs[sid] = {"bytes": len(text.encode())}
            return result

        return traced

    def _wrap_mean(self, fn):
        # Always ask the solver for its info so iterations and convergence
        # are recorded, then hand back what the caller asked for.
        def traced(space, ystack, weights, return_info=False):
            sid = self._open("spaces.mean")
            try:
                out, info = fn(space, ystack, weights, return_info=True)
            finally:
                self._close()
            self.attrs[sid] = {
                "signed": bool(np.any(np.asarray(weights) < 0)),
                "iterations": int(info.get("iterations", 0)),
                "converged": bool(info.get("converged", True))}
            return (out, info) if return_info else out

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, package_modules: dict) -> None:
        """Replace every target function at each binding that refers to it."""
        for mod_name, fn_name, span_name in TARGETS:
            original = getattr(package_modules[mod_name], fn_name)
            wrapper = self._wrap(span_name, original)
            for module in package_modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((vars(module), key, original))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is original:
                                self._undo.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            container[key] = original
        self._undo.clear()


def layer_metrics(spans, attrs) -> dict:
    """Counts and self times per layer from a list of finished spans."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out = {name: 0 for name, _, _ in COUNT_METRICS + TIME_METRICS}

    def add(key, value):
        out[key] = out[key] + value

    for s in spans:
        a = attrs.get(s.id, {})
        if s.name == "spaces.mean":
            kind = "signed" if a["signed"] else "unsigned"
            add(f"spaces.mean.calls.{kind}", 1)
            add(f"spaces.mean.iters.{kind}", a["iterations"])
            add(f"spaces.mean.self_s.{kind}", own[s.id])
            add("spaces.mean.nonconverged", 0 if a["converged"] else 1)
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "tree.best_split":
                add("spaces.mean.calls.split", 1)
            continue
        if s.name.startswith("regressors.predict."):
            est = s.name.rsplit(".", 1)[1]
            calls, self_key = (f"regressors.predict.calls.{est}",
                               f"regressors.predict.self_s.{est}")
        elif s.name.startswith("cli.cmd."):
            calls, self_key = None, f"cli.cmd.self_s.{s.name[len('cli.cmd.'):]}"
        else:
            calls, self_key = f"{s.name}.calls", f"{s.name}.self_s"
        if calls in out:
            add(calls, 1)
        if self_key in out:
            add(self_key, own[s.id])
        if s.name == "tree.best_split" and a["found"]:
            add("tree.best_split.found", 1)
        elif s.name == "cli.atomic_write":
            add("cli.atomic_write.bytes", a["bytes"])
    calls = out["tree.best_split.calls"]
    out["tree.best_split.useful_ratio"] = (
        out["tree.best_split.found"] / calls if calls else 0.0)
    return out
