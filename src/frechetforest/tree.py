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

A tree grows in rounds.  With ``mtry == p`` growth draws no features, so a
round is a whole level of open nodes; otherwise it is the depth-first head
alone, and the feature draws keep their order.  On a curved space the
engine queues every index set a round's split searches will solve, and its
first miss hands them all to one ``spaces.sum_sq_to_means`` call, which
decides how the queue is solved.  :func:`grow_trees` grows a forest and
picks how: where ``spaces.solves_sets_together`` (the affine space), in
lockstep rounds, each tree's batch in one round, on one engine, so one
call solves a round of the whole forest; elsewhere tree by tree.
Trees are those of a node-by-node recursion, bit for bit.

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
    ``to_dict`` writes only ``{"root": nodes}``, the indices as lists.
    """

    root: dict
    subsample_indices: Optional[np.ndarray] = None
    structure_indices: Optional[np.ndarray] = None
    prediction_half: Optional[np.ndarray] = None
    # leaf means by index bytes, from growth or tree_predict; not serialised
    leaf_means: dict = field(default_factory=dict, repr=False, compare=False)
    # kernel-weight vectors by index bytes, from forest.leaf_weights
    leaf_weights: dict = field(default_factory=dict, repr=False,
                               compare=False)

    def to_dict(self) -> dict:
        return {"root": _nodes(self.root, np.ndarray.tolist)}

    @staticmethod
    def from_dict(d: dict) -> "FrechetTree":
        return FrechetTree(_nodes(d["root"], _indices))


# ---------------------------------------------------------------------------
# node impurity engines


def _valid_thresholds(sorted_values: np.ndarray, min_leaf: int):
    """Midpoint thresholds that leave ``min_leaf`` samples on each side.

    Returns the midpoints between consecutive unique values, in increasing
    order, with the left-child size of each.  The values, a node's, are
    never empty; ``np.unique`` would load ``numpy.ma``.
    """
    v = sorted_values
    uniq = v[np.concatenate(([True], v[1:] != v[:-1]))]
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
    """Sum-of-squares engine, one record per distinct index set.

    With a Euclidean embedding sums are cheap, so only the nodes that
    ``best_split`` scores get a record.  A curved space solves each set
    once per engine and keeps its mean, a leaf's prediction if the set
    becomes a leaf; growth queues a round's sets with :meth:`expect`, and
    the first miss hands them all to one ``spaces.sum_sq_to_means`` call.
    Holding every ``X`` scored against keeps its ``id`` from being reused
    while the engine lives, so a split score keyed by that ``id`` is never
    stale."""

    # Prefix-sum gains only screen thresholds: those within
    # SCREEN_RTOL * (uncentred sum of squares) / n of the best are re-scored
    # with ``node_ss``, whose rounding error scales with that sum.
    SCREEN_RTOL = 1e-9

    def __init__(self, space: MetricSpace, ystack: np.ndarray):
        self.space = space
        self.ystack = ystack
        self.emb = (spaces.embed(space, ystack)
                    if spaces.has_embedding(space) else None)
        self._ss = {}  # index bytes -> _Node
        self._xs = {}
        self._pending = {}  # index bytes -> index set, solved at a miss
        self.parts = {}  # (index bytes, split key) -> partitions of expect

    def node(self, idx: np.ndarray) -> _Node:
        """The set's record; a curved miss solves every queued set too."""
        key = idx.tobytes()
        if key not in self._ss and self.emb is not None:
            self._ss[key] = _Node(self.node_ss(idx))
        elif key not in self._ss:
            self._pending[key] = idx
            sums = spaces.sum_sq_to_means(self.space, self.ystack,
                                          list(self._pending.values()))
            self._ss.update(zip(self._pending, (_Node(*s) for s in sums)))
            self._pending = {}
        return self._ss[key]

    def expect(self, nodes, X: np.ndarray, config: TreeConfig) -> None:
        """Queue the sets ``best_split`` will solve at these ``(samples,
        features)`` nodes: each node, and both sides of each candidate
        split of every feature it has no score for.  The partitions are
        kept in ``parts`` for ``best_split``, so a feature's candidates are
        still found once per node.  Embedded sums need no solve, so then
        nothing is queued."""
        if self.emb is not None:
            return
        for samples, feats in nodes:
            key, sets = samples.tobytes(), [samples]
            rec = self._ss.get(key)
            for j in feats:
                skey = self.split_key(X, config, j)
                if ((rec is None or skey not in rec.splits)
                        and (key, skey) not in self.parts):
                    parts = self.parts[key, skey] = _partitions(
                        self, samples, X[samples, j], config)
                    sets += [samples[s] for _, m in parts for s in (m, ~m)]
            for idx in sets:
                if idx.tobytes() not in self._ss:
                    self._pending[idx.tobytes()] = idx

    def split_key(self, X: np.ndarray, config: TreeConfig, j: int) -> tuple:
        self._xs.setdefault(id(X), X)
        return id(X), config.split_method, config.min_leaf, j

    def solved_means(self, leaves) -> dict:
        """The means already solved for these index sets, by index bytes."""
        keys = (idx.tobytes() for idx in leaves)
        return {k: self._ss[k].mean for k in keys
                if k in self._ss and self._ss[k].mean is not None}

    def node_ss(self, idx: np.ndarray) -> float:
        if self.emb is None:
            return self.node(idx).ss
        e = self.emb[idx]
        mu = e.mean(axis=0)
        return float(np.sum(e * e) - len(e) * (mu @ mu))

    def threshold_candidates(self, samples: np.ndarray, values: np.ndarray,
                             min_leaf: int) -> np.ndarray:
        """Thresholds whose gain may be the best, in increasing order: on a
        curved space every valid one.  With an embedding, every valid one
        is scored in one pass from prefix sums of the node-centred
        embedding, and those within the rounding tolerance of the best are
        kept, so that exact re-scoring picks the same one."""
        if self.emb is None:
            return _valid_thresholds(np.sort(values), min_leaf)[0]
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
        engine = shared[key] = _Responses(space, ystack)
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


def _partitions(resp, samples: np.ndarray, values: np.ndarray,
                config: TreeConfig) -> list:
    """``(threshold, left mask)`` of each candidate cut of one feature at a
    node that leaves ``min_leaf`` samples a side, in increasing order."""
    k = config.min_leaf
    if config.split_method == "exhaustive":
        cuts = resp.threshold_candidates(samples, values, k)
    elif np.all(values == values[0]):
        cuts = ()
    else:
        cuts = (_midpoint_threshold(*two_means_1d(values)),)
    masks = ((c, values < c) for c in cuts)
    return [(c, m) for c, m in masks if k <= m.sum() <= len(values) - k]


def _feature_split(resp, samples: np.ndarray, parts: list,
                   total_ss: float) -> Optional[tuple]:
    """Best ``(gain, threshold)`` over one feature's ``parts``, the lowest
    cutpoint on ties, or None when no gain is positive."""
    best = None
    best_gain = 0.0
    for c, mask in parts:
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
    once per engine and index set, and kept in the node's record, from
    the partitions ``resp.expect`` found if it was asked.
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
            parts = resp.parts.pop((samples.tobytes(), key), None)
            if parts is None:
                parts = _partitions(resp, samples, X[samples, j], config)
            node.splits[key] = _feature_split(resp, samples, parts, node.ss)
        score = node.splits[key]
        if score is not None and score[0] > best_gain:
            best_gain = score[0]
            best_rule = {"feature": j, "threshold": score[1]}
    return best_rule


# ---------------------------------------------------------------------------
# tree growth


def grow_tree(X: np.ndarray, ystack: np.ndarray, space: MetricSpace,
              subsample_indices: np.ndarray, config: TreeConfig,
              rng: np.random.Generator) -> FrechetTree:
    """Grow a Frechet tree on a subsample (a multiset of training indices);
    ``rng`` draws the honest halves and the candidate features.  The
    one-tree case of :func:`grow_trees`."""
    return grow_trees(X, ystack, space, [subsample_indices], config, [rng])[0]


def grow_trees(X: np.ndarray, ystack: np.ndarray, space: MetricSpace,
               subsamples: list, config: TreeConfig, rngs: list) -> list:
    """Grow a tree on each subsample, tree ``b`` drawing from ``rngs[b]``;
    each is the tree :func:`grow_tree` grows from its subsample and
    stream, bit for bit.  Where ``spaces.solves_sets_together``, they grow
    in lockstep rounds on one engine, so a round queues the split sums of
    all of them, and a set two trees reach is solved once; elsewhere one
    by one, as lockstep would save no solve and hold every tree's records."""
    if len(subsamples) > 1 and not spaces.solves_sets_together(space):
        return [grow_tree(X, ystack, space, sub, config, rng)
                for sub, rng in zip(subsamples, rngs)]
    subsamples = [np.asarray(s, dtype=np.intp) for s in subsamples]
    if any(len(s) == 0 for s in subsamples):
        raise ValueError("subsample is empty")
    p = X.shape[1]
    mtry = config.mtry if config.mtry is not None else p
    if not 1 <= mtry <= p:
        raise ValueError("mtry must lie in [1, p]")
    resp = _responses_for(space, ystack)

    trees, frontiers = [], []
    for subsample, rng in zip(subsamples, rngs):
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
        trees.append(FrechetTree({"leaf": prediction}, subsample, struct_half,
                                 pred_half))
        frontiers.append([(trees[-1].root, structure, 1)])

    # a round searches, in every tree, every open node (a level) when
    # growth draws no features, else only the depth-first head, so each
    # tree's draws keep their order
    while any(frontiers):
        search = []
        for b, rng in enumerate(rngs):
            batch = frontiers[b] if mtry == p else frontiers[b][:1]
            frontiers[b] = frontiers[b][len(batch):]
            search += [(b, node, idx, depth, np.sort(rng.choice(
                p, size=mtry, replace=False)) if mtry < p else np.arange(p))
                for node, idx, depth in batch
                if depth < config.max_depth
                and len(idx) >= 2 * config.min_leaf]
        resp.expect([(idx, feats) for _, _, idx, _, feats in search], X,
                    config)
        children = [[] for _ in trees]
        for b, node, idx, depth, feats in search:
            rule = best_split(idx, feats, X, ystack, space, config, resp)
            if rule is None:
                continue
            pred = node["leaf"]
            left = X[idx, rule["feature"]] < rule["threshold"]
            pleft = X[pred, rule["feature"]] < rule["threshold"]
            if pleft.all() or not pleft.any():
                # the side with no prediction indices is merged into its
                # sibling, which grows in this node's place; so no open
                # node has an empty prediction set
                children[b].append((node, idx[left if pleft.any() else ~left],
                                    depth + 1))
                continue
            del node["leaf"]
            node.update(rule=rule, left={"leaf": pred[pleft]},
                        right={"leaf": pred[~pleft]})
            children[b] += [(node["left"], idx[left], depth + 1),
                            (node["right"], idx[~left], depth + 1)]
        frontiers = [c + f for c, f in zip(children, frontiers)]
    for tree in trees:
        tree.leaf_means = resp.solved_means(iter_leaves(tree))
    return trees


def leaf_for(tree: FrechetTree, x: np.ndarray) -> np.ndarray:
    """Prediction indices of the leaf that contains ``x``."""
    node = tree.root
    while "leaf" not in node:
        node = node["left"] if goes_left(node["rule"], x) else node["right"]
    return node["leaf"]


def tree_predict(tree: FrechetTree, x: np.ndarray, ystack: np.ndarray,
                 space: MetricSpace) -> np.ndarray:
    """Equal-weight Frechet mean of the leaf that contains ``x``, solved as
    growth solves a node (``sum_sq_to_means``) and kept in
    ``tree.leaf_means``, so a loaded tree predicts as the fitted one.
    ``ystack`` must be the responses ``tree`` was grown on."""
    idx = leaf_for(tree, x)
    key = idx.tobytes()
    mean = tree.leaf_means.get(key)
    if mean is None:
        mean = tree.leaf_means[key] = spaces.sum_sq_to_means(
            space, ystack, [idx])[0][1]
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
