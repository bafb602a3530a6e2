"""Single Frechet tree: variance-reduction splitting, honesty, routing.

A tree recursively partitions the predictor cube.  Split quality is the drop
in sample Frechet variance: the node's sum of squared distances to its
Frechet mean, minus the same quantity for the two children, scaled by the
node size.  Two split searches are available:

* ``"exhaustive"`` -- scan midpoints between consecutive sorted unique
  values of the candidate feature and pick the threshold with the largest
  gain.  Spaces with a Euclidean embedding score all thresholds of a
  feature in one prefix-sum pass and re-score only the near-best ones.
* ``"two_means"`` -- run 1-D 2-means on the candidate feature; the two
  cluster centers become representatives and points are routed to the closer
  one.  This is the default used in simulations.

With ``honest=True`` the subsample is split into a structure half (used to
place splits) and a prediction half (the only indices stored in leaves, and
thus the only ones that can carry kernel weight).
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spaces
from .spaces import MetricSpace

THRESHOLD = "threshold"
REPRESENTATIVES = "representatives"


@dataclass(frozen=True)
class SplitRule:
    feature: int
    kind: str
    threshold: float = math.nan
    c_left: float = math.nan
    c_right: float = math.nan

    def goes_left(self, x: np.ndarray) -> bool:
        v = x[self.feature]
        if self.kind == THRESHOLD:
            return v < self.threshold
        return abs(v - self.c_left) <= abs(v - self.c_right)

    def mask_left(self, values: np.ndarray) -> np.ndarray:
        if self.kind == THRESHOLD:
            return values < self.threshold
        return np.abs(values - self.c_left) <= np.abs(values - self.c_right)

    def to_dict(self) -> dict:
        d = {"feature": int(self.feature), "kind": self.kind}
        if self.kind == THRESHOLD:
            d["threshold"] = float(self.threshold)
        else:
            d["c_left"] = float(self.c_left)
            d["c_right"] = float(self.c_right)
        return d

    @staticmethod
    def from_dict(d: dict) -> "SplitRule":
        if d["kind"] == THRESHOLD:
            return SplitRule(d["feature"], THRESHOLD, threshold=d["threshold"])
        return SplitRule(d["feature"], REPRESENTATIVES,
                         c_left=d["c_left"], c_right=d["c_right"])


@dataclass
class TreeNode:
    rule: Optional[SplitRule] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    prediction_indices: Optional[np.ndarray] = None  # leaf only

    @property
    def is_leaf(self) -> bool:
        return self.rule is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"leaf": [int(i) for i in self.prediction_indices]}
        return {"rule": self.rule.to_dict(),
                "left": self.left.to_dict(), "right": self.right.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "TreeNode":
        if "leaf" in d:
            return TreeNode(prediction_indices=np.asarray(d["leaf"], dtype=np.intp))
        return TreeNode(rule=SplitRule.from_dict(d["rule"]),
                        left=TreeNode.from_dict(d["left"]),
                        right=TreeNode.from_dict(d["right"]))


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


@dataclass
class FrechetTree:
    root: TreeNode
    config: TreeConfig
    subsample_indices: np.ndarray
    structure_indices: Optional[np.ndarray] = None
    prediction_half: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        d = {"root": self.root.to_dict(),
             "subsample": [int(i) for i in self.subsample_indices]}
        if self.structure_indices is not None:
            d["structure"] = [int(i) for i in self.structure_indices]
            d["prediction_half"] = [int(i) for i in self.prediction_half]
        return d

    @staticmethod
    def from_dict(d: dict, config: TreeConfig) -> "FrechetTree":
        tree = FrechetTree(TreeNode.from_dict(d["root"]), config,
                           np.asarray(d["subsample"], dtype=np.intp))
        if "structure" in d:
            tree.structure_indices = np.asarray(d["structure"], dtype=np.intp)
            tree.prediction_half = np.asarray(d["prediction_half"], dtype=np.intp)
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


class _EmbeddedResponses:
    """Sum-of-squares engine for spaces with a Euclidean embedding."""

    # Prefix-sum gains only screen thresholds: those within
    # SCREEN_RTOL * (uncentred sum of squares) / n of the best are re-scored
    # with ``node_ss``, whose rounding error scales with that sum.
    SCREEN_RTOL = 1e-9

    def __init__(self, space: MetricSpace, ystack: np.ndarray):
        self.ystack = ystack
        self.emb = spaces.embed(space, ystack)

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


class _MetricResponses:
    """Sum-of-squares engine via explicit Frechet-mean solves.

    Each index set is solved once per engine: a winning split's children
    come back as the next nodes' totals, and different features often
    induce the same partition.
    """

    def __init__(self, space: MetricSpace, ystack: np.ndarray):
        self.space = space
        self.ystack = ystack
        self._ss = {}

    def node_ss(self, idx: np.ndarray) -> float:
        key = idx.tobytes()
        ss = self._ss.get(key)
        if ss is None:
            ss = self._ss[key] = spaces.sum_sq_to_mean(self.space,
                                                       self.ystack[idx])
        return ss

    def threshold_candidates(self, samples: np.ndarray, values: np.ndarray,
                             min_leaf: int) -> np.ndarray:
        """Every valid threshold: curved spaces have no prefix-sum shortcut."""
        return _valid_thresholds(np.sort(values), min_leaf)[0]


_SHARED_ENGINES = contextvars.ContextVar("shared_node_sums", default=None)


@contextmanager
def shared_node_sums():
    """Scope in which trees grown on the same responses share node sums.

    Inside the scope, every tree grown on the same space and the same
    ``ystack`` object uses one engine, so an index set solved for one tree
    is not solved again for another: the cross-validation forests of one
    fold draw the same bootstraps in every grid cell.  The responses must
    not be modified inside the scope.  Sums, and so trees, are those of
    unshared engines, bit for bit.
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


def _gain(resp, samples: np.ndarray, mask: np.ndarray, total_ss: float) -> float:
    """Frechet-variance reduction of splitting ``samples`` by ``mask``."""
    return (total_ss - resp.node_ss(samples[mask])
            - resp.node_ss(samples[~mask])) / len(samples)


def split_gain_exhaustive(samples: np.ndarray, feature: int, threshold: float,
                          X: np.ndarray, ystack, space: MetricSpace,
                          resp=None) -> float:
    """Frechet-variance reduction of a threshold split at a node."""
    if resp is None:
        resp = _responses_for(space, ystack)
    samples = np.asarray(samples, dtype=np.intp)
    mask = X[samples, feature] < threshold
    if mask.all() or not mask.any():
        raise ValueError("threshold induces an empty child")
    return _gain(resp, samples, mask, resp.node_ss(samples))


def two_means_1d(values: np.ndarray, exhaustive_limit: int = 64,
                 max_iter: int = 50):
    """1-D 2-means centers ``(c_low, c_high)``.

    Small inputs are solved exactly by scanning all contiguous partitions of
    the sorted values; larger inputs use Lloyd iterations started from the
    min and max.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n < 2 or v[0] == v[-1]:
        raise ValueError("need at least two distinct values")
    if n <= exhaustive_limit:
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
    for _ in range(max_iter):
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


def split_two_means(samples: np.ndarray, feature: int, X: np.ndarray,
                    ystack, space: MetricSpace, resp=None):
    """Representative split of a node along one feature.

    Returns ``(c_left, c_right, gain)``.
    """
    if resp is None:
        resp = _responses_for(space, ystack)
    samples = np.asarray(samples, dtype=np.intp)
    values = X[samples, feature]
    c_lo, c_hi = two_means_1d(values)
    mask = np.abs(values - c_lo) <= np.abs(values - c_hi)
    if mask.all() or not mask.any():
        raise ValueError("degenerate 2-means partition")
    return c_lo, c_hi, _gain(resp, samples, mask, resp.node_ss(samples))


def best_split(samples: np.ndarray, candidate_features, X: np.ndarray,
               ystack, space: MetricSpace, config: TreeConfig,
               resp=None) -> Optional[SplitRule]:
    """Best valid split over candidate features, or None.

    Validity requires both children to hold at least ``min_leaf`` samples
    and a strictly positive gain.  Ties break toward the lowest feature
    index, then the lowest cutpoint.
    """
    if resp is None:
        resp = _responses_for(space, ystack)
    samples = np.asarray(samples, dtype=np.intp)
    k = config.min_leaf
    total_ss = resp.node_ss(samples)
    n = len(samples)
    best_rule = None
    best_gain = 0.0

    for j in sorted(int(f) for f in candidate_features):
        values = X[samples, j]
        if config.split_method == "exhaustive":
            for c in resp.threshold_candidates(samples, values, k):
                gain = _gain(resp, samples, values < c, total_ss)
                if gain > best_gain:
                    best_gain = gain
                    best_rule = SplitRule(j, THRESHOLD, threshold=float(c))
        else:
            if np.all(values == values[0]):
                continue
            c_lo, c_hi = two_means_1d(values)
            mask = np.abs(values - c_lo) <= np.abs(values - c_hi)
            nl = int(mask.sum())
            if nl < k or n - nl < k:
                continue
            gain = _gain(resp, samples, mask, total_ss)
            if gain > best_gain:
                best_gain = gain
                best_rule = SplitRule(j, REPRESENTATIVES,
                                      c_left=c_lo, c_right=c_hi)
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
            raise ValueError("honest tree needs a subsample of size >= 2*min_leaf")
        perm = rng.permutation(len(subsample))
        half = math.ceil(len(subsample) / 2)
        struct_half = subsample[perm[:half]]
        pred_half = subsample[perm[half:]]
        structure, prediction = struct_half, pred_half

    def build(struct_idx: np.ndarray, pred_idx: np.ndarray, depth: int) -> TreeNode:
        if (depth >= config.max_depth
                or len(struct_idx) < 2 * config.min_leaf
                or len(pred_idx) == 0):
            return TreeNode(prediction_indices=pred_idx)
        if mtry < p:
            feats = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            feats = np.arange(p)
        rule = best_split(struct_idx, feats, X, ystack, space, config, resp=resp)
        if rule is None:
            return TreeNode(prediction_indices=pred_idx)
        smask = rule.mask_left(X[struct_idx, rule.feature])
        pmask = rule.mask_left(X[pred_idx, rule.feature])
        left = build(struct_idx[smask], pred_idx[pmask], depth + 1)
        right = build(struct_idx[~smask], pred_idx[~pmask], depth + 1)
        # a side whose prediction set came up empty is merged into its sibling
        if left.is_leaf and len(left.prediction_indices) == 0:
            return right
        if right.is_leaf and len(right.prediction_indices) == 0:
            return left
        return TreeNode(rule=rule, left=left, right=right)

    root = build(structure, prediction, depth=1)
    if root.is_leaf and len(root.prediction_indices) == 0:
        # only possible for pathological honest subsamples
        root = TreeNode(prediction_indices=prediction)
    return FrechetTree(root, config, subsample, struct_half, pred_half)


def leaf_for(tree: FrechetTree, x: np.ndarray) -> np.ndarray:
    """Prediction indices of the leaf that contains ``x``."""
    node = tree.root
    while not node.is_leaf:
        node = node.left if node.rule.goes_left(x) else node.right
    return node.prediction_indices


def tree_predict(tree: FrechetTree, x: np.ndarray, ystack: np.ndarray,
                 space: MetricSpace) -> np.ndarray:
    """Equal-weight Frechet mean of the leaf responses at ``x``."""
    idx = leaf_for(tree, x)
    return spaces.weighted_frechet_mean(space, ystack[idx], np.ones(len(idx)))


def iter_leaves(tree: FrechetTree):
    """Yield the prediction-index arrays of every leaf."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            yield node.prediction_indices
        else:
            stack.append(node.right)
            stack.append(node.left)


def depth_grid(n: int) -> list:
    """Tuning range for tree depth: 3 .. ceil(log2 n)."""
    hi = max(3, math.ceil(math.log2(max(n, 2))))
    return list(range(3, hi + 1))
