"""Single Frechet tree: variance-reduction splitting, honesty, routing.

A tree recursively partitions the predictor cube.  Split quality is the drop
in sample Frechet variance: the node's sum of squared distances to its
Frechet mean, minus the same quantity for the two children, scaled by the
node size.  Two split searches are available:

* ``"exhaustive"`` -- scan midpoints between consecutive sorted unique
  values of the candidate feature and pick the threshold with the largest
  gain.  Spaces with a Euclidean embedding score all thresholds of a
  feature in one prefix-sum pass and re-score only the near-best ones.
* ``"two_means"`` -- run 1-D 2-means on the candidate feature and split at
  the midpoint of the two centres, so each point goes to the closer centre
  (ties go left).  This is the default used in simulations.

With ``honest=True`` the subsample is split into a structure half (used to
place splits) and a prediction half (the only indices stored in leaves, and
thus the only ones that can carry kernel weight).

A split engine keeps one record per distinct index set: its sum of
squares, each feature's best split, and on curved spaces the Frechet mean
the sum was measured from.  Inside :func:`shared_node_sums` the trees grown
on the same responses share one engine, so cross-validation pays once per
distinct node, not once per grid cell.  A tree's one store of leaf means,
``FrechetTree.leaf_means``, holds those growth solved and those
:func:`tree_predict` solved since, so a leaf is solved at most once.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import spaces
from .spaces import MetricSpace

_TWO_MEANS_EXACT = 64  # two_means_1d scans every partition up to this size
_TWO_MEANS_ITERS = 50  # Lloyd iterations above it


def goes_left(rule: dict, x: np.ndarray) -> bool:
    """Whether ``rule`` sends ``x`` to its left child."""
    return x[rule["feature"]] < rule["threshold"]


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 7
    min_leaf: int = 5
    mtry: Optional[int] = None  # None means all features
    split_method: str = "two_means"
    honest: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.split_method not in ("exhaustive", "two_means"):
            raise ValueError(f"unknown split method {self.split_method!r}")


def _nodes(node: dict, leaf) -> dict:
    """Copy of a node tree with ``leaf`` applied to every leaf's indices.

    Each rule is rebuilt from its two fields, so a document whose rule
    lacks one raises ``KeyError`` naming it.
    """
    if "leaf" in node:
        return {"leaf": leaf(node["leaf"])}
    rule = {k: node["rule"][k] for k in ("feature", "threshold")}
    return {"rule": rule, "left": _nodes(node["left"], leaf),
            "right": _nodes(node["right"], leaf)}


def _indices(values) -> np.ndarray:
    return np.asarray(values, dtype=np.intp)


@dataclass
class FrechetTree:
    """A grown tree, whose nodes are already its model document.

    A node is a leaf ``{"leaf": indices}``, the training indices (an
    ``intp`` array, repeated under bootstrap) that share the leaf's kernel
    weight, or a split ``{"rule": rule, "left": node, "right": node}``.
    A rule ``{"feature": j, "threshold": c}`` sends ``x[j] < c`` left.
    ``to_dict`` writes the same nodes with the indices as lists.
    """

    root: dict
    subsample_indices: np.ndarray
    structure_indices: Optional[np.ndarray] = None
    prediction_half: Optional[np.ndarray] = None
    # leaf means by index bytes, from growth or tree_predict; not serialised
    leaf_means: dict = field(default_factory=dict, repr=False, compare=False)

    def to_dict(self) -> dict:
        d = {"root": _nodes(self.root, np.ndarray.tolist),
             "subsample": self.subsample_indices.tolist()}
        if self.structure_indices is not None:
            d["structure"] = self.structure_indices.tolist()
            d["prediction_half"] = self.prediction_half.tolist()
        return d

    @staticmethod
    def from_dict(d: dict) -> "FrechetTree":
        tree = FrechetTree(_nodes(d["root"], _indices),
                           _indices(d["subsample"]))
        if "structure" in d:
            tree.structure_indices = _indices(d["structure"])
            tree.prediction_half = _indices(d["prediction_half"])
        return tree


# ---------------------------------------------------------------------------
# node impurity engines


def _valid_thresholds(sorted_values: np.ndarray, min_leaf: int):
    """Midpoint thresholds that leave ``min_leaf`` samples on each side.

    Returns the midpoints between consecutive unique values, in increasing
    order, with the left-child size of each.
    """
    uniq = np.unique(sorted_values)
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    n_left = np.searchsorted(sorted_values, mids, side="left")
    n = len(sorted_values)
    ok = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    return mids[ok], n_left[ok]


@dataclass(slots=True)
class _Node:
    """What an engine knows of one index set: its sum of squares, the mean
    that sum was measured from where the engine solved one (curved spaces),
    and each feature's best ``(gain, threshold)`` (None if no gain is
    positive) by ``(id(X), split_method, min_leaf, feature)``."""

    ss: float
    mean: Optional[np.ndarray] = None
    splits: dict = field(default_factory=dict)


class _Responses:
    """One record per distinct index set.  Holding every ``X`` scored
    against keeps its ``id`` from being reused while the engine lives, so a
    split score keyed by that ``id`` is never stale."""

    def __init__(self, space: MetricSpace, ystack: np.ndarray):
        self.space = space
        self.ystack = ystack
        self._ss = {}  # index bytes -> _Node
        self._xs = {}

    def node(self, idx: np.ndarray) -> _Node:
        key = idx.tobytes()
        rec = self._ss.get(key)
        if rec is None:
            rec = self._ss[key] = self._solve(idx)
        return rec

    def split_key(self, X: np.ndarray, config: TreeConfig, j: int) -> tuple:
        self._xs.setdefault(id(X), X)
        return id(X), config.split_method, config.min_leaf, j

    def solved_means(self, leaves) -> dict:
        """The means already solved for these index sets, by index bytes."""
        keys = (idx.tobytes() for idx in leaves)
        return {k: self._ss[k].mean for k in keys
                if k in self._ss and self._ss[k].mean is not None}


class _EmbeddedResponses(_Responses):
    """Sum-of-squares engine for spaces with a Euclidean embedding.

    Sums are cheap here, so only the nodes that ``best_split`` scores get
    a record.
    """

    # Prefix-sum gains only screen thresholds: those within
    # SCREEN_RTOL * (uncentred sum of squares) / n of the best are re-scored
    # with ``node_ss``, whose rounding error scales with that sum.
    SCREEN_RTOL = 1e-9

    def __init__(self, space: MetricSpace, ystack: np.ndarray):
        super().__init__(space, ystack)
        self.emb = spaces.embed(space, ystack)

    def _solve(self, idx: np.ndarray) -> _Node:
        return _Node(self.node_ss(idx))

    def node_ss(self, idx: np.ndarray) -> float:
        e = self.emb[idx]
        mu = e.mean(axis=0)
        return float(np.sum(e * e) - len(e) * (mu @ mu))

    def threshold_candidates(self, samples: np.ndarray, values: np.ndarray,
                             min_leaf: int) -> np.ndarray:
        """Thresholds whose gain may be the best, in increasing order.

        Scores every valid threshold in one pass from prefix sums of the
        node-centred embedding, then keeps those within the rounding
        tolerance of the best so that exact re-scoring picks the same one.
        """
        order = np.argsort(values, kind="stable")
        mids, n_left = _valid_thresholds(values[order], min_leaf)
        if mids.size <= 1:
            return mids
        e = self.emb[samples[order]]
        n = len(e)
        sumsq = float(np.sum(e * e))
        cs = np.cumsum(e - e.mean(axis=0), axis=0)
        left = cs[n_left - 1]
        right = cs[-1] - left
        gain = (np.einsum("ij,ij->i", left, left) / n_left
                + np.einsum("ij,ij->i", right, right) / (n - n_left)
                - (cs[-1] @ cs[-1]) / n) / n
        return mids[gain >= gain.max() - self.SCREEN_RTOL * sumsq / n]


class _MetricResponses(_Responses):
    """Sum-of-squares engine via explicit Frechet-mean solves.

    Each index set is solved once per engine: a winning split's children
    come back as the next nodes' totals, and different features often
    induce the same partition.  A record keeps the solved mean, which is a
    leaf's prediction when the set becomes a leaf.
    """

    def _solve(self, idx: np.ndarray) -> _Node:
        return _Node(*spaces.sum_sq_to_mean(self.space, self.ystack[idx]))

    def node_ss(self, idx: np.ndarray) -> float:
        return self.node(idx).ss

    def threshold_candidates(self, samples: np.ndarray, values: np.ndarray,
                             min_leaf: int) -> np.ndarray:
        """Every valid threshold: curved spaces have no prefix-sum shortcut."""
        return _valid_thresholds(np.sort(values), min_leaf)[0]


_SHARED_ENGINES = contextvars.ContextVar("shared_node_sums", default=None)


@contextmanager
def shared_node_sums():
    """Scope in which trees grown on the same responses share node records.

    Inside the scope, every tree grown on the same space and the same
    ``ystack`` object uses one engine, so work done for an index set in one
    tree is not done again for another: the cross-validation forests of
    one fold draw the same bootstraps in every grid cell, and so grow the
    same top nodes.  What is shared per index set is its sum of squares,
    each feature's best split for a given ``X``, ``split_method`` and
    ``min_leaf``, and on curved spaces the mean solved for the sum.  The
    responses and every ``X`` must not be modified inside the scope.
    Sums, split scores, and so trees, are those of unshared engines, bit
    for bit.
    """
    token = _SHARED_ENGINES.set({})
    try:
        yield
    finally:
        _SHARED_ENGINES.reset(token)


def _responses_for(space: MetricSpace, ystack: np.ndarray):
    # outside a scope every call makes a fresh engine; inside one, the scope
    # holds each engine and each engine its ystack, so the id of a live
    # ystack is not reused within the scope
    shared = _SHARED_ENGINES.get()
    if shared is None:
        shared = {}
    key = (space, id(ystack))
    engine = shared.get(key)
    if engine is None or engine.ystack is not ystack:
        engine = shared[key] = (_EmbeddedResponses
                                if spaces.has_embedding(space)
                                else _MetricResponses)(space, ystack)
    return engine


# ---------------------------------------------------------------------------
# split search


def _gain(resp, samples: np.ndarray, mask: np.ndarray,
          total_ss: float) -> float:
    """Frechet-variance reduction of splitting ``samples`` by ``mask``."""
    return (total_ss - resp.node_ss(samples[mask])
            - resp.node_ss(samples[~mask])) / len(samples)


def split_gain_exhaustive(samples: np.ndarray, feature: int, threshold: float,
                          X: np.ndarray, ystack, space: MetricSpace) -> float:
    """Frechet-variance reduction of a threshold split at a node."""
    resp = _responses_for(space, ystack)
    samples = np.asarray(samples, dtype=np.intp)
    mask = X[samples, feature] < threshold
    if mask.all() or not mask.any():
        raise ValueError("threshold induces an empty child")
    return _gain(resp, samples, mask, resp.node_ss(samples))


def two_means_1d(values: np.ndarray):
    """1-D 2-means centers ``(c_low, c_high)``.

    Up to ``_TWO_MEANS_EXACT`` values are solved exactly by scanning all
    contiguous partitions of the sorted values; larger inputs use at most
    ``_TWO_MEANS_ITERS`` Lloyd iterations started from the min and max.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n < 2 or v[0] == v[-1]:
        raise ValueError("need at least two distinct values")
    if n <= _TWO_MEANS_EXACT:
        cs = np.cumsum(v)
        total = cs[-1]
        k = np.arange(1, n)
        left_mean = cs[:-1] / k
        right_mean = (total - cs[:-1]) / (n - k)
        cs2 = np.cumsum(v * v)
        wcss = (cs2[:-1] - k * left_mean ** 2) \
            + (cs2[-1] - cs2[:-1] - (n - k) * right_mean ** 2)
        best = int(np.argmin(wcss))
        return float(left_mean[best]), float(right_mean[best])
    lo, hi = v[0], v[-1]
    for _ in range(_TWO_MEANS_ITERS):
        mid = (lo + hi) / 2.0
        left = v[v <= mid]
        right = v[v > mid]
        if len(left) == 0 or len(right) == 0:
            break
        new_lo, new_hi = left.mean(), right.mean()
        if new_lo == lo and new_hi == hi:
            break
        lo, hi = new_lo, new_hi
    return float(lo), float(hi)


def _midpoint_threshold(c_lo: float, c_hi: float) -> float:
    """Threshold ``c``: ``v < c`` exactly when ``v <= (c_lo + c_hi) / 2``."""
    return math.nextafter((c_lo + c_hi) / 2.0, math.inf)


def _feature_split(resp, samples: np.ndarray, values: np.ndarray,
                   total_ss: float, config: TreeConfig) -> Optional[tuple]:
    """Best ``(gain, threshold)`` of one feature, the lowest cutpoint on
    ties, or None when no valid threshold has a positive gain."""
    k = config.min_leaf
    n = len(samples)
    if config.split_method == "exhaustive":
        thresholds = resp.threshold_candidates(samples, values, k)
    elif np.all(values == values[0]):
        return None
    else:
        thresholds = [_midpoint_threshold(*two_means_1d(values))]
    best = None
    best_gain = 0.0
    for c in thresholds:
        mask = values < c
        nl = int(mask.sum())
        if nl < k or n - nl < k:
            continue
        gain = _gain(resp, samples, mask, total_ss)
        if gain > best_gain:
            best_gain = gain
            best = (gain, float(c))
    return best


def best_split(samples: np.ndarray, candidate_features, X: np.ndarray,
               ystack, space: MetricSpace, config: TreeConfig,
               resp=None) -> Optional[dict]:
    """Best valid split rule over candidate features, or None.

    Validity requires both children to hold at least ``min_leaf`` samples
    and a strictly positive gain.  Ties break toward the lowest feature
    index, then the lowest cutpoint.  Each feature's best split is scored
    once per engine and index set, and kept in the node's record.
    """
    if resp is None:
        resp = _responses_for(space, ystack)
    samples = np.asarray(samples, dtype=np.intp)
    node = resp.node(samples)
    best_rule = None
    best_gain = 0.0
    for j in sorted(int(f) for f in candidate_features):
        key = resp.split_key(X, config, j)
        if key not in node.splits:
            node.splits[key] = _feature_split(resp, samples, X[samples, j],
                                              node.ss, config)
        score = node.splits[key]
        if score is not None and score[0] > best_gain:
            best_gain = score[0]
            best_rule = {"feature": j, "threshold": score[1]}
    return best_rule


# ---------------------------------------------------------------------------
# tree growth


def grow_tree(X: np.ndarray, ystack: np.ndarray, space: MetricSpace,
              subsample_indices: np.ndarray, config: TreeConfig,
              rng: Optional[np.random.Generator] = None) -> FrechetTree:
    """Grow a Frechet tree on a subsample (a multiset of training indices)."""
    subsample = np.asarray(subsample_indices, dtype=np.intp)
    if len(subsample) == 0:
        raise ValueError("subsample is empty")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    p = X.shape[1]
    mtry = config.mtry if config.mtry is not None else p
    if not 1 <= mtry <= p:
        raise ValueError("mtry must lie in [1, p]")
    resp = _responses_for(space, ystack)

    structure = prediction = subsample
    struct_half = pred_half = None
    if config.honest:
        if len(subsample) < 2 * config.min_leaf:
            raise ValueError(
                "honest tree needs a subsample of size >= 2*min_leaf")
        perm = rng.permutation(len(subsample))
        half = math.ceil(len(subsample) / 2)
        struct_half = subsample[perm[:half]]
        pred_half = subsample[perm[half:]]
        structure, prediction = struct_half, pred_half

    def build(struct_idx: np.ndarray, pred_idx: np.ndarray,
              depth: int) -> dict:
        if (depth >= config.max_depth
                or len(struct_idx) < 2 * config.min_leaf
                or len(pred_idx) == 0):
            return {"leaf": pred_idx}
        if mtry < p:
            feats = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            feats = np.arange(p)
        rule = best_split(struct_idx, feats, X, ystack, space, config, resp)
        if rule is None:
            return {"leaf": pred_idx}
        smask = X[struct_idx, rule["feature"]] < rule["threshold"]
        pmask = X[pred_idx, rule["feature"]] < rule["threshold"]
        left = build(struct_idx[smask], pred_idx[pmask], depth + 1)
        right = build(struct_idx[~smask], pred_idx[~pmask], depth + 1)
        # a side whose prediction set came up empty is merged into its sibling
        if "leaf" in left and len(left["leaf"]) == 0:
            return right
        if "leaf" in right and len(right["leaf"]) == 0:
            return left
        return {"rule": rule, "left": left, "right": right}

    root = build(structure, prediction, depth=1)
    if "leaf" in root and len(root["leaf"]) == 0:
        # only possible for pathological honest subsamples
        root = {"leaf": prediction}
    tree = FrechetTree(root, subsample, struct_half, pred_half)
    tree.leaf_means = resp.solved_means(iter_leaves(tree))
    return tree


def leaf_for(tree: FrechetTree, x: np.ndarray) -> np.ndarray:
    """Prediction indices of the leaf that contains ``x``."""
    node = tree.root
    while "leaf" not in node:
        node = node["left"] if goes_left(node["rule"], x) else node["right"]
    return node["leaf"]


def tree_predict(tree: FrechetTree, x: np.ndarray, ystack: np.ndarray,
                 space: MetricSpace) -> np.ndarray:
    """Equal-weight Frechet mean of the leaf that contains ``x``, solved as
    growth solves a node (``sum_sq_to_mean``) and kept in ``tree.leaf_means``,
    so a loaded tree predicts as the fitted one.  ``ystack`` must be the
    responses ``tree`` was grown on."""
    idx = leaf_for(tree, x)
    key = idx.tobytes()
    mean = tree.leaf_means.get(key)
    if mean is None:
        mean = tree.leaf_means[key] = spaces.sum_sq_to_mean(space,
                                                            ystack[idx])[1]
    return mean


def iter_nodes(root: dict):
    """Yield every node under ``root`` depth-first, splits before children."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if "leaf" not in node:
            stack += (node["right"], node["left"])


def iter_leaves(tree: FrechetTree):
    """Yield the prediction-index arrays of every leaf."""
    return (node["leaf"] for node in iter_nodes(tree.root) if "leaf" in node)


def depth_grid(n: int) -> list:
    """Tuning range for tree depth: 3 .. ceil(log2 n)."""
    hi = max(3, math.ceil(math.log2(max(n, 2))))
    return list(range(3, hi + 1))
