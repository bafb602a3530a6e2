"""Ensembles of Frechet trees and the forest kernel weights.

The forest kernel assigns training sample ``i`` the weight

    alpha_i(x) = (1/B) * sum_b 1{i in leaf_b(x)} / |leaf_b(x)|,

averaged over the ``B`` trees.  Under bootstrap resampling a sample drawn
twice counts as two leaf occupants.  Weights are nonnegative and sum to one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .spaces import MetricSpace
from .tree import FrechetTree, TreeConfig, grow_tree, leaf_for

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

    @staticmethod
    def from_dict(d: dict) -> "ForestConfig":
        return ForestConfig(num_trees=d["num_trees"],
                            subsample_mode=d["subsample_mode"],
                            subsample_size=d["subsample_size"],
                            master_seed=d["master_seed"],
                            tree=TreeConfig(**d["tree"]))


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
    """Grow the ensemble on deterministic per-tree subsamples."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = len(X)
    if n != len(Y):
        raise ValueError("X and Y have different lengths")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("X and Y must be finite")
    if n < 2 * config.tree.min_leaf:
        raise ValueError("need at least 2*min_leaf training samples")
    if config.subsample_mode == WITHOUT_REPLACEMENT:
        s = config.subsample_size if config.subsample_size is not None else n
        if s > n:
            raise ValueError("subsample_size exceeds the training size")
    trees = []
    for b in range(config.num_trees):
        rng = _tree_rng(config.master_seed, b)
        if config.subsample_mode == BOOTSTRAP:
            sub = rng.integers(0, n, size=n)
        else:
            s = n if config.subsample_size is None else config.subsample_size
            sub = rng.choice(n, size=s, replace=False)
        trees.append(grow_tree(X, Y, space, np.sort(sub), config.tree, rng))
    return ForestModel(trees, X, Y, space, config)


def kernel_weights(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Forest kernel weights alpha_i(x) over the training samples."""
    x = np.asarray(x, dtype=float)
    n = model.n_samples
    w = np.zeros(n)
    for t in model.trees:
        leaf = leaf_for(t, x)
        w += np.bincount(leaf, minlength=n) / len(leaf)
    return w / len(model.trees)


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
