"""Ensembles of Frechet trees and the forest kernel weights.

The forest kernel assigns training sample ``i`` the weight

    alpha_i(x) = (1/B) * sum_b 1{i in leaf_b(x)} / |leaf_b(x)|,

averaged over the ``B`` trees.  Under bootstrap resampling a sample drawn
twice counts as two leaf occupants.  Weights are nonnegative and sum to one.
``fit_forest`` draws every tree's subsample and hands them all to one
``tree.grow_trees`` call, which picks how the forest grows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .spaces import MetricSpace
from .tree import FrechetTree, TreeConfig, grow_trees, leaf_for

BOOTSTRAP = "bootstrap_with_replacement"
WITHOUT_REPLACEMENT = "without_replacement"


@dataclass(frozen=True)
class ForestConfig:
    num_trees: int = 100
    subsample_mode: str = BOOTSTRAP
    subsample_size: Optional[int] = None  # s_n, without-replacement mode only
    master_seed: int = 0
    tree: TreeConfig = field(default_factory=TreeConfig)  # last in model.json

    def __post_init__(self):
        if self.num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        if self.subsample_mode not in (BOOTSTRAP, WITHOUT_REPLACEMENT):
            raise ValueError(f"unknown subsample mode {self.subsample_mode!r}")
        if self.subsample_size is None:
            return
        if self.subsample_mode == BOOTSTRAP:
            raise ValueError("subsample_size is for without-replacement "
                             "subsamples; a bootstrap draws n")
        if self.subsample_size < 2 * self.tree.min_leaf:
            raise ValueError(f"subsample_size must be >= 2*min_leaf = "
                             f"{2 * self.tree.min_leaf}, got "
                             f"{self.subsample_size}")

    @staticmethod
    def from_dict(d: dict) -> "ForestConfig":
        # older files carry a tree seed, which no tree read
        tree = {k: v for k, v in d["tree"].items() if k != "seed"}
        return ForestConfig(num_trees=d["num_trees"],
                            subsample_mode=d["subsample_mode"],
                            subsample_size=d["subsample_size"],
                            master_seed=d["master_seed"],
                            tree=TreeConfig(**tree))


@dataclass
class ForestModel:
    trees: list
    X: np.ndarray
    Y: np.ndarray
    space: MetricSpace
    config: ForestConfig

    @property
    def n_samples(self) -> int:
        return len(self.X)


def _tree_rng(master_seed: int, index: int) -> np.random.Generator:
    # counter-based mix so that tree b is reproducible in isolation
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.default_rng(ss)


def fit_forest(X: np.ndarray, Y: np.ndarray, space: MetricSpace,
               config: ForestConfig) -> ForestModel:
    """Grow the ensemble on deterministic per-tree subsamples.

    Tree ``b`` draws its subsample, then its growth, from its own stream
    ``_tree_rng(master_seed, b)``.  ``tree.grow_trees`` picks how the
    trees grow, in lockstep rounds or one by one; they are the same trees
    either way.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = len(X)
    if n != len(Y):
        raise ValueError("X and Y have different lengths")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("X and Y must be finite")
    if n < 2 * config.tree.min_leaf:
        raise ValueError("need at least 2*min_leaf training samples")
    s = n if config.subsample_size is None else config.subsample_size
    if config.subsample_mode == WITHOUT_REPLACEMENT:
        if s > n:
            raise ValueError("subsample_size exceeds the training size")
        if (s == n and config.num_trees > 1 and not config.tree.honest
                and config.tree.mtry in (None, X.shape[1])):
            raise ValueError("without-replacement subsamples of size n grow "
                             "identical trees unless honest or mtry < p")
    rngs = [_tree_rng(config.master_seed, b) for b in range(config.num_trees)]
    subs = [np.sort(rng.integers(0, n, size=n)
                    if config.subsample_mode == BOOTSTRAP
                    else rng.choice(n, size=s, replace=False))
            for rng in rngs]
    return ForestModel(grow_trees(X, Y, space, subs, config.tree, rngs),
                       X, Y, space, config)


def leaf_weights(tree: FrechetTree, leaf: np.ndarray) -> tuple:
    """``(indices, values)``: the nonzero entries of the leaf's weight
    vector ``bincount(leaf) / len(leaf)``, kept in ``tree.leaf_weights``.
    Raises ``ValueError`` for an empty leaf, which has no such vector."""
    key = leaf.tobytes()
    vec = tree.leaf_weights.get(key)
    if vec is None:
        if not len(leaf):
            raise ValueError("a leaf holds no training sample")
        counts = np.bincount(leaf)
        idx = np.flatnonzero(counts)
        vec = tree.leaf_weights[key] = (idx, counts[idx] / len(leaf))
    return vec


def forest_weights(model: ForestModel, X_query: np.ndarray) -> np.ndarray:
    """Kernel weights alpha(x) of every row of ``X_query``, one per row.

    Each query is routed through each tree once, as a list of floats,
    which compare as its float64 values do but faster.  A row gets its
    trees' leaf weights added in tree order, so it is ``kernel_weights`` of
    its query, bit for bit.
    """
    X_query = np.asarray(X_query, dtype=float)
    A = np.zeros((len(X_query), model.n_samples))
    rows = X_query.tolist()
    for t in model.trees:
        for a, x in zip(A, rows):
            idx, values = leaf_weights(t, leaf_for(t, x))
            a[idx] += values
    return A / len(model.trees)


def kernel_weights(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Forest kernel weights alpha_i(x) over the training samples."""
    return forest_weights(model, np.asarray(x, dtype=float)[None])[0]


# ---------------------------------------------------------------------------
# persistence


def model_to_dict(model: ForestModel) -> dict:
    return {"space": model.space.to_dict(),
            "config": asdict(model.config),
            "trees": [t.to_dict() for t in model.trees],
            "X": model.X.tolist(),
            "Y": model.Y.tolist()}


def model_from_dict(d: dict) -> ForestModel:
    config = ForestConfig.from_dict(d["config"])
    space = MetricSpace.from_dict(d["space"])
    X = np.asarray(d["X"], dtype=float)
    Y = np.asarray(d["Y"], dtype=float)
    trees = [FrechetTree.from_dict(td) for td in d["trees"]]
    return ForestModel(trees, X, Y, space, config)
