"""Forest construction and the random-forest kernel weights."""

import dataclasses
import json

import numpy as np
import pytest

from frechetforest.forest import (ForestConfig, ForestModel, fit_forest,
                                  forest_weights, kernel_weights,
                                  leaf_weights, model_from_dict,
                                  model_to_dict)
from frechetforest.spaces import wasserstein_space
from frechetforest.tree import FrechetTree, TreeConfig, leaf_for, tree_predict

SCALAR = wasserstein_space(1)


def scalar_data(y):
    return np.asarray(y, dtype=float).reshape(-1, 1)


def single_leaf_tree(indices):
    return FrechetTree({"leaf": np.asarray(indices)}, np.asarray(indices))


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
        counts = np.bincount(t.root["leaf"], minlength=20)
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


@pytest.mark.parametrize("mode,size,message", [
    ("bootstrap_with_replacement", 10, "without-replacement"),
    ("without_replacement", 3, "subsample_size must be >= 2"),
    ("without_replacement", -2, "subsample_size must be >= 2")])
def test_bad_subsample_size_rejected(mode, size, message):
    # a bootstrap drew n regardless, a size below 2*min_leaf grew one-leaf
    # trees, and a negative size failed inside numpy
    with pytest.raises(ValueError, match=message):
        ForestConfig(num_trees=3, subsample_mode=mode, subsample_size=size)


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


@pytest.mark.parametrize("tree_kw, mode", [
    ({"split_method": "exhaustive", "honest": True}, "without_replacement"),
    ({"split_method": "two_means"}, "bootstrap_with_replacement")])
def test_model_document_roundtrip_is_byte_identical(tree_kw, mode):
    # byte level, so key order and value types are checked too
    rng = np.random.default_rng(16)
    X = rng.uniform(size=(40, 2))
    Y = scalar_data(rng.normal(size=40))
    cfg = ForestConfig(num_trees=4, subsample_mode=mode, master_seed=2,
                       tree=TreeConfig(max_depth=4, min_leaf=3, **tree_kw))
    doc = model_to_dict(fit_forest(X, Y, SCALAR, cfg))
    assert any("rule" in t["root"] for t in doc["trees"])
    assert json.dumps(model_to_dict(model_from_dict(doc))) == json.dumps(doc)


def _dense_kernel_weights(model, x):
    # the dense form: each tree adds bincount(leaf, minlength=n) / |leaf|
    w = np.zeros(model.n_samples)
    for t in model.trees:
        leaf = leaf_for(t, x)
        w += np.bincount(leaf, minlength=model.n_samples) / len(leaf)
    return w / len(model.trees)


@pytest.mark.parametrize("scenario, metric", [
    ("I-2", "logcholesky"), ("II-1", "logcholesky"), ("II-1", "affine"),
    ("III-2", "logcholesky")])
@pytest.mark.parametrize("mode, honest", [
    ("bootstrap_with_replacement", False),
    ("bootstrap_with_replacement", True),
    ("without_replacement", False), ("without_replacement", True)])
def test_forest_weights_equal_per_query_weights_bit_for_bit(scenario, metric,
                                                            mode, honest):
    from frechetforest import simulate
    rng = np.random.default_rng(21)
    data = simulate.generate(simulate.SimSetting(scenario, p=2, n=30,
                                                 spd_metric=metric), rng)
    cfg = ForestConfig(num_trees=4, subsample_mode=mode, master_seed=2,
                       subsample_size=None if mode.startswith("boot") else 24,
                       tree=TreeConfig(max_depth=4, min_leaf=2, honest=honest))
    model = fit_forest(data.X, data.Y, data.space, cfg)
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    Xq = np.concatenate([rng.uniform(size=(7, 2)), data.X[:3]])
    for m in (model, loaded):
        A = forest_weights(m, Xq)
        assert A.shape == (len(Xq), len(data.X))
        for a, x in zip(A, Xq):
            assert np.array_equal(a, kernel_weights(m, x))
            assert np.array_equal(a, _dense_kernel_weights(m, x))
    assert np.array_equal(forest_weights(loaded, Xq),
                          forest_weights(model, Xq))


def test_leaf_weights_are_kept_per_tree_and_not_serialised():
    rng = np.random.default_rng(22)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(rng.normal(size=30))
    model = fit_forest(X, Y, SCALAR, ForestConfig(
        num_trees=2, tree=TreeConfig(max_depth=3, min_leaf=3)))
    doc = model_to_dict(model)
    t = model.trees[0]
    leaf = leaf_for(t, X[0])
    idx, values = leaf_weights(t, leaf)
    assert leaf_weights(t, leaf) is t.leaf_weights[leaf.tobytes()]
    dense = np.bincount(leaf, minlength=30) / len(leaf)
    assert np.array_equal(idx, np.flatnonzero(dense))
    assert np.array_equal(values, dense[idx])
    assert model_to_dict(model) == doc
    field = {f.name: f for f in dataclasses.fields(FrechetTree)}
    assert not field["leaf_weights"].compare


def test_an_empty_leaf_fails_every_forest_kind():
    # a loaded document may hold a leaf with no index; the dense form's
    # 0 / 0 made alpha non-finite, so no forest kind may predict from it
    from frechetforest import regressors
    rng = np.random.default_rng(23)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(X[:, 0] + 0.1 * rng.normal(size=30))
    doc = model_to_dict(fit_forest(X, Y, SCALAR, ForestConfig(
        num_trees=3, tree=TreeConfig(max_depth=2, min_leaf=3))))
    node = doc["trees"][1]["root"]
    while "rule" in node:
        node = node["left"]
    node["leaf"] = []
    model = model_from_dict(doc)
    x = np.array([0.0, 0.0])  # routed left in every tree
    with pytest.raises(ValueError, match="a leaf holds no training sample"):
        kernel_weights(model, x)
    for kind in regressors.FOREST_KINDS:
        with pytest.raises(ValueError):
            regressors._FOREST_PREDICTORS[kind](model, x)
    out = regressors.predict_batches(regressors.FOREST_KINDS, model, x[None])
    assert all(isinstance(e, ValueError) for e in out.values())
