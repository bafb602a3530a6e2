"""Forest construction and the random-forest kernel weights."""

import numpy as np
import pytest

from frechetforest.forest import (ForestConfig, ForestModel, fit_forest,
                                  kernel_weights, model_from_dict,
                                  model_to_dict)
from frechetforest.spaces import wasserstein_space
from frechetforest.tree import FrechetTree, TreeConfig, tree_predict

SCALAR = wasserstein_space(1)


def scalar_data(y):
    return np.asarray(y, dtype=float).reshape(-1, 1)


def single_leaf_tree(indices, config=TreeConfig()):
    from frechetforest.tree import TreeNode
    return FrechetTree(TreeNode(prediction_indices=np.asarray(indices)),
                       config, np.asarray(indices), None, None)


def test_kernel_weights_two_tree_example():
    # tree-1 leaf at x holds samples {0,1}, tree-2 leaf holds {1,2}, n = 4
    X = scalar_data([0.0, 1.0, 2.0, 3.0])
    Y = scalar_data([0.0, 0.0, 0.0, 0.0])
    cfg = ForestConfig(num_trees=2)
    model = ForestModel([single_leaf_tree([0, 1]), single_leaf_tree([1, 2])],
                        X, Y, SCALAR, cfg)
    w = kernel_weights(model, np.array([0.0]))
    assert np.allclose(w, [0.25, 0.5, 0.25, 0.0], atol=1e-15)


def test_kernel_weights_single_leaf_uniform():
    X = scalar_data([0.0, 1.0, 2.0])
    Y = scalar_data([0.0, 0.0, 0.0])
    model = ForestModel([single_leaf_tree([0, 2])], X, Y, SCALAR,
                        ForestConfig(num_trees=1))
    w = kernel_weights(model, np.array([5.0]))
    assert np.allclose(w, [0.5, 0.0, 0.5], atol=1e-15)


def test_kernel_weights_sum_to_one():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(60, 3))
    Y = scalar_data(rng.normal(size=60))
    model = fit_forest(X, Y, SCALAR,
                       ForestConfig(num_trees=25,
                                    tree=TreeConfig(max_depth=5, min_leaf=3,
                                                    mtry=2),
                                    master_seed=1))
    for x in rng.uniform(size=(100, 3)):
        w = kernel_weights(model, x)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_fit_forest_deterministic():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(40, 2))
    Y = scalar_data(rng.normal(size=40))
    cfg = ForestConfig(num_trees=8, tree=TreeConfig(max_depth=4, min_leaf=3,
                                                    mtry=1, honest=True),
                       master_seed=42)
    m1 = fit_forest(X, Y, SCALAR, cfg)
    m2 = fit_forest(X, Y, SCALAR, cfg)
    assert model_to_dict(m1) == model_to_dict(m2)


def test_without_replacement_subsample_audit():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(50, 2))
    Y = scalar_data(rng.normal(size=50))
    cfg = ForestConfig(num_trees=10, subsample_mode="without_replacement",
                       subsample_size=20,
                       tree=TreeConfig(max_depth=3, min_leaf=2))
    model = fit_forest(X, Y, SCALAR, cfg)
    for t in model.trees:
        assert len(t.subsample_indices) == 20
        assert len(set(t.subsample_indices.tolist())) == 20


def test_bootstrap_multiset_convention():
    # duplicate bootstrap draws count as distinct leaf occupants
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(20, 1))
    Y = scalar_data(rng.normal(size=20))
    cfg = ForestConfig(num_trees=5, tree=TreeConfig(max_depth=1))
    model = fit_forest(X, Y, SCALAR, cfg)
    for t in model.trees:
        # single leaf: weights proportional to bootstrap multiplicity
        counts = np.bincount(t.root.prediction_indices, minlength=20)
        single = ForestModel([t], X, Y, SCALAR, cfg)
        w = kernel_weights(single, np.array([0.5]))
        assert np.allclose(w, counts / counts.sum(), atol=1e-14)


def test_single_tree_forest_matches_tree_predict():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(rng.normal(size=30))
    cfg = ForestConfig(num_trees=1, tree=TreeConfig(max_depth=4, min_leaf=3))
    model = fit_forest(X, Y, SCALAR, cfg)
    assert len(model.trees) == 1
    x = np.array([0.4, 0.6])
    from frechetforest.regressors import predict_frf
    assert predict_frf(model, x)[0] == pytest.approx(
        tree_predict(model.trees[0], x, Y, SCALAR)[0], abs=1e-12)


def test_honest_forest_zero_structure_weight():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(40, 2))
    Y = scalar_data(rng.normal(size=40))
    cfg = ForestConfig(num_trees=6,
                       tree=TreeConfig(max_depth=4, min_leaf=2, honest=True),
                       subsample_mode="without_replacement",
                       subsample_size=30, master_seed=7)
    model = fit_forest(X, Y, SCALAR, cfg)
    for x in rng.uniform(size=(10, 2)):
        w = kernel_weights(model, x)
        assert abs(w.sum() - 1.0) <= 1e-12
    for t in model.trees:
        single = ForestModel([t], X, Y, SCALAR, cfg)
        for x in rng.uniform(size=(5, 2)):
            w = kernel_weights(single, x)
            assert np.all(w[np.asarray(t.structure_indices)] == 0.0)


def test_insufficient_data_rejected():
    X = scalar_data([0.0, 1.0])
    Y = scalar_data([0.0, 1.0])
    with pytest.raises(ValueError):
        fit_forest(X, Y, SCALAR,
                   ForestConfig(num_trees=1, tree=TreeConfig(min_leaf=5)))


def test_nonfinite_training_data_rejected():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(20, 2))
    Y = scalar_data(rng.normal(size=20))
    cfg = ForestConfig(num_trees=1, tree=TreeConfig(min_leaf=2))
    for bad in (np.nan, np.inf):
        X_bad = X.copy()
        X_bad[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_forest(X_bad, Y, SCALAR, cfg)
        Y_bad = Y.copy()
        Y_bad[7, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_forest(X, Y_bad, SCALAR, cfg)


def test_model_serialization_roundtrip():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(rng.normal(size=30))
    cfg = ForestConfig(num_trees=5, tree=TreeConfig(max_depth=4, min_leaf=3))
    model = fit_forest(X, Y, SCALAR, cfg)
    back = model_from_dict(model_to_dict(model))
    assert model_to_dict(back) == model_to_dict(model)
    for x in rng.uniform(size=(10, 2)):
        assert np.allclose(kernel_weights(back, x),
                           kernel_weights(model, x), atol=1e-15)
