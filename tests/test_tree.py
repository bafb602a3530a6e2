"""Fréchet tree growth: splits, gains, honesty, routing."""

import numpy as np
import pytest

from frechetforest import spaces, tree
from frechetforest.spaces import wasserstein_space, sphere_space
from frechetforest.tree import (FrechetTree, TreeConfig, best_split,
                                goes_left, grow_tree, iter_leaves, leaf_for,
                                split_gain_exhaustive, tree_predict,
                                two_means_1d)

SCALAR = wasserstein_space(1)  # Euclidean-degenerate space


def scalar_data(y):
    return np.asarray(y, dtype=float).reshape(-1, 1)


def test_gain_classical_variance_reduction():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    Y = scalar_data([0.0, 0.0, 10.0, 10.0])
    gain = split_gain_exhaustive(np.arange(4), 0, 0.5, X, Y, SCALAR)
    assert gain == pytest.approx(25.0, abs=1e-12)


def test_gain_zero_for_identical_responses():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(10, 2))
    Y = np.tile(np.sort(rng.normal(size=5)), (10, 1))
    space = wasserstein_space(5)
    for c in (0.3, 0.5, 0.7):
        assert split_gain_exhaustive(np.arange(10), 0, c, X, Y,
                                     space) == pytest.approx(0.0, abs=1e-10)


def test_gain_matches_direct_formula():
    # brute-force recomputation with explicit Frechet-mean solves
    rng = np.random.default_rng(1)
    space = wasserstein_space(6)
    X = rng.uniform(size=(12, 2))
    Y = np.sort(rng.normal(size=(12, 6)), axis=1)
    samples = np.arange(12)
    c = 0.5
    gain = split_gain_exhaustive(samples, 0, c, X, Y, space)

    def node_ss(idx):
        w = np.ones(len(idx))
        mu = spaces.weighted_frechet_mean(space, Y[idx], w)
        return spaces.frechet_objective(space, Y[idx], w, mu)

    left = samples[X[samples, 0] < c]
    right = samples[X[samples, 0] >= c]
    direct = (node_ss(samples) - node_ss(left) - node_ss(right)) / 12
    assert gain == pytest.approx(direct, abs=1e-9)


def test_two_means_separated_clusters():
    assert two_means_1d(np.array([0.0, 0.0, 1.0, 1.0])) == (0.0, 1.0)


def test_two_means_matches_contiguous_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        v = np.sort(rng.normal(size=rng.integers(2, 30)))
        if v[0] == v[-1]:
            continue
        c_lo, c_hi = two_means_1d(v)
        best = None
        for k in range(1, len(v)):
            lm, rm = v[:k].mean(), v[k:].mean()
            wcss = np.sum((v[:k] - lm) ** 2) + np.sum((v[k:] - rm) ** 2)
            if best is None or wcss < best[0]:
                best = (wcss, lm, rm)
        assert c_lo == pytest.approx(best[1], abs=1e-12)
        assert c_hi == pytest.approx(best[2], abs=1e-12)


def test_two_means_identical_values():
    with pytest.raises(ValueError):
        two_means_1d(np.full(5, 3.0))


def test_split_two_means_zero_gain_identical_y():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(10, 1))
    Y = scalar_data(np.full(10, 4.0))
    c = tree._midpoint_threshold(*two_means_1d(X[:, 0]))
    gain = split_gain_exhaustive(np.arange(10), 0, c, X, Y, SCALAR)
    assert gain == pytest.approx(0.0, abs=1e-12)


def test_midpoint_threshold_sends_values_to_the_closer_centre():
    rng = np.random.default_rng(16)
    for _ in range(500):
        a, b = np.sort(rng.uniform(size=2))
        if a == b:
            continue
        m = (a + b) / 2.0
        c = tree._midpoint_threshold(a, b)
        near = m + np.spacing(m) * np.arange(-8, 9)
        values = np.concatenate([rng.uniform(size=200), near])
        # exact: below the threshold means at most the computed midpoint
        assert np.array_equal(values < c, values <= m)
        far = np.abs(values - m) > 4 * np.spacing(m)
        closer = np.abs(values - a) <= np.abs(values - b)
        assert np.array_equal((values < c)[far], closer[far])
    for _ in range(200):
        a, b = np.sort(rng.choice(np.arange(-50, 51), size=2, replace=False))
        if (a + b) % 2:
            b += 1
        grid = np.arange(a - 3, b + 4, dtype=float)
        c = tree._midpoint_threshold(float(a), float(b))
        assert (a + b) / 2.0 < c  # the equidistant integer goes left
        assert np.array_equal(grid < c, np.abs(grid - a) <= np.abs(grid - b))


def test_best_split_pure_node():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(12, 2))
    Y = scalar_data(np.full(12, 1.0))
    cfg = TreeConfig(min_leaf=2, split_method="exhaustive")
    assert best_split(np.arange(12), [0, 1], X, Y, SCALAR, cfg) is None


def test_best_split_tie_breaks_to_lowest_feature():
    # two identical features: the lower index must win
    x = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([x, x])
    Y = scalar_data([0.0, 0.0, 10.0, 10.0])
    cfg = TreeConfig(min_leaf=1, split_method="exhaustive")
    rule = best_split(np.arange(4), [0, 1], X, Y, SCALAR, cfg)
    assert rule["feature"] == 0


def test_best_split_tie_breaks_to_lowest_cutpoint():
    # equal gain at both candidate thresholds: the lower one must win
    X = np.array([[0.0], [1.0], [2.0]])
    Y = scalar_data([0.0, 0.0, 0.0])
    cfg = TreeConfig(min_leaf=1, split_method="exhaustive")
    assert best_split(np.arange(3), [0], X, Y, SCALAR, cfg) is None
    Y = scalar_data([0.0, 5.0, 5.0])
    rule = best_split(np.arange(3), [0], X, Y, SCALAR, cfg)
    assert rule["threshold"] == pytest.approx(0.5)


def test_best_split_recovers_signal_feature():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(200, 3))
    Y = scalar_data(np.where(X[:, 1] < 0.5, 0.0, 10.0)
                    + 0.1 * rng.normal(size=200))
    cfg = TreeConfig(min_leaf=5, split_method="exhaustive")
    rule = best_split(np.arange(200), [0, 1, 2], X, Y, SCALAR, cfg)
    assert rule["feature"] == 1


def _reference_best_split(samples, features, X, Y, space, cfg):
    """Per-threshold scan scored with ``split_gain_exhaustive``."""
    best, best_gain = None, 0.0
    for j in sorted(features):
        values = X[samples, j]
        uniq = np.unique(values)
        for c in (uniq[:-1] + uniq[1:]) / 2.0:
            n_left = int(np.sum(values < c))
            if min(n_left, len(samples) - n_left) < cfg.min_leaf:
                continue
            gain = split_gain_exhaustive(samples, j, c, X, Y, space)
            if gain > best_gain:
                best, best_gain = (j, float(c)), gain
    return best


def _random_responses(space, n, rng):
    if space.kind == spaces.WASSERSTEIN:
        return np.sort(rng.normal(size=(n, space.dim)), axis=1) \
            + rng.normal(size=(n, 1))
    A = rng.normal(size=(n, space.dim, space.dim))
    return A @ np.transpose(A, (0, 2, 1)) + 0.1 * np.eye(space.dim)


@pytest.mark.parametrize("space", [wasserstein_space(5),
                                   spaces.spd_space(2, "logcholesky")],
                         ids=["wasserstein", "logcholesky"])
def test_prefix_sum_split_matches_per_threshold_reference(space):
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(4, 40))
        X = rng.uniform(size=(n, 3))
        if trial % 3 == 0:  # tied predictor values
            X = np.round(X * rng.integers(1, 5)) / 4.0
        Y = _random_responses(space, n, rng)
        samples = np.sort(rng.integers(0, n, size=n))  # bootstrap duplicates
        # min_leaf from 1 to one past the largest that still allows a split
        min_leaf = int(rng.integers(1, n // 2 + 2))
        cfg = TreeConfig(min_leaf=min_leaf, split_method="exhaustive")
        rule = best_split(samples, [0, 1, 2], X, Y, space, cfg)
        want = _reference_best_split(samples, [0, 1, 2], X, Y, space, cfg)
        got = None if rule is None else (rule["feature"], rule["threshold"])
        assert got == want, (trial, n, min_leaf)


def test_mirrored_responses_tie_toward_lower_threshold():
    # thresholds i + 0.5 and n - 1.5 - i split off mirror-image children,
    # so their gains tie up to rounding; the exact re-score must decide
    rng = np.random.default_rng(14)
    space = wasserstein_space(3)
    for trial in range(100):
        half = np.round(np.sort(rng.normal(size=(int(rng.integers(3, 12)), 3)),
                                axis=1), 1)
        Y = np.concatenate([half, half[::-1]])
        n = len(Y)
        X = np.arange(n, dtype=float).reshape(-1, 1)
        cfg = TreeConfig(min_leaf=1, split_method="exhaustive")
        rule = best_split(np.arange(n), [0], X, Y, space, cfg)
        want = _reference_best_split(np.arange(n), [0], X, Y, space, cfg)
        assert (rule["feature"], rule["threshold"]) == want, trial


def test_identical_partitions_break_toward_lower_feature():
    # feature 1 orders the samples differently inside each side, but both
    # features induce the same best partition: the lower feature must win
    rng = np.random.default_rng(12)
    space = wasserstein_space(4)
    for trial in range(20):
        n = 60
        x0 = rng.uniform(size=n)
        side = x0 < 0.5
        x1 = np.where(side, 0.4, 0.6) + 0.3 * rng.uniform(size=n) \
            * np.where(side, -1.0, 1.0)
        X = np.column_stack([x0, x1])
        Y = np.sort(rng.normal(size=(n, 4)), axis=1) + 5.0 * side[:, None]
        samples = np.sort(rng.integers(0, n, size=n))
        cfg = TreeConfig(min_leaf=3, split_method="exhaustive")
        rule = best_split(samples, [0, 1], X, Y, space, cfg)
        assert rule["feature"] == 0, trial
        assert (rule["feature"], rule["threshold"]) == _reference_best_split(
            samples, [0, 1], X, Y, space, cfg)


def test_curved_space_split_matches_per_threshold_reference():
    rng = np.random.default_rng(13)
    space = sphere_space(3)
    for trial in range(3):
        n = 14
        X = np.round(rng.uniform(size=(n, 2)) * 6) / 6
        Y = rng.normal(size=(n, 3))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        cfg = TreeConfig(min_leaf=2, split_method="exhaustive")
        rule = best_split(np.arange(n), [0, 1], X, Y, space, cfg)
        want = _reference_best_split(np.arange(n), [0, 1], X, Y, space, cfg)
        assert (rule["feature"], rule["threshold"]) == want


def test_grow_tree_depth_one_single_leaf():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(20, 2))
    Y = scalar_data(rng.normal(size=20))
    t = grow_tree(X, Y, SCALAR, np.arange(20), TreeConfig(max_depth=1))
    assert list(t.root) == ["leaf"]
    assert sorted(t.root["leaf"]) == list(range(20))


def test_leaves_partition_subsample():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(60, 3))
    Y = scalar_data(rng.normal(size=60))
    sub = np.sort(rng.integers(0, 60, size=60))
    t = grow_tree(X, Y, SCALAR, sub,
                  TreeConfig(max_depth=6, min_leaf=3))
    collected = np.concatenate(list(iter_leaves(t)))
    assert sorted(collected) == sorted(sub)


def test_leaf_sizes_between_k_and_2k_minus_1():
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(80, 2))
    Y = scalar_data(rng.normal(size=80))
    k = 3
    t = grow_tree(X, Y, SCALAR, np.arange(80),
                  TreeConfig(max_depth=30, min_leaf=k,
                             split_method="exhaustive"))
    for leaf in iter_leaves(t):
        assert k <= len(leaf) <= 2 * k - 1


def test_honest_halves_disjoint_with_stated_sizes():
    rng = np.random.default_rng(9)
    for n in (20, 21):
        X = rng.uniform(size=(n, 2))
        Y = scalar_data(rng.normal(size=n))
        t = grow_tree(X, Y, SCALAR, np.arange(n),
                      TreeConfig(max_depth=4, min_leaf=2, honest=True),
                      rng=np.random.default_rng(1))
        s = set(t.structure_indices)
        p = set(t.prediction_half)
        assert len(t.structure_indices) == -(-n // 2)
        assert len(t.prediction_half) == n // 2
        assert not s & p
        assert s | p == set(range(n))
        # structure-half indices never appear in prediction leaves
        for leaf in iter_leaves(t):
            assert not set(leaf) & s


def test_leaf_for_routing():
    rng = np.random.default_rng(10)
    X = rng.uniform(size=(50, 2))
    Y = scalar_data(rng.normal(size=50))
    t = grow_tree(X, Y, SCALAR, np.arange(50),
                  TreeConfig(max_depth=5, min_leaf=3))
    for x in rng.uniform(size=(1000, 2)):
        node = t.root
        while "leaf" not in node:
            node = node["left"] if goes_left(node["rule"], x) else node["right"]
        assert np.array_equal(leaf_for(t, x), node["leaf"])


def test_training_point_lands_in_own_leaf():
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(40, 2))
    Y = scalar_data(rng.normal(size=40))
    t = grow_tree(X, Y, SCALAR, np.arange(40),
                  TreeConfig(max_depth=5, min_leaf=3))
    for i in range(40):
        assert i in leaf_for(t, X[i])


def test_tree_predict_scalar_mean():
    rng = np.random.default_rng(12)
    X = rng.uniform(size=(30, 2))
    y = rng.normal(size=30)
    Y = scalar_data(y)
    t = grow_tree(X, Y, SCALAR, np.arange(30),
                  TreeConfig(max_depth=4, min_leaf=3))
    x = np.array([0.3, 0.7])
    leaf = leaf_for(t, x)
    assert tree_predict(t, x, Y, SCALAR)[0] == pytest.approx(
        y[leaf].mean(), abs=1e-12)


def test_tree_predict_singleton_leaf():
    X = np.array([[0.0], [1.0]])
    Y = scalar_data([3.0, 8.0])
    t = grow_tree(X, Y, SCALAR, np.arange(2),
                  TreeConfig(max_depth=5, min_leaf=1,
                             split_method="exhaustive"))
    assert tree_predict(t, np.array([0.0]), Y, SCALAR)[0] == 3.0
    assert tree_predict(t, np.array([1.0]), Y, SCALAR)[0] == 8.0


def test_determinism():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(40, 3))
    Y = scalar_data(rng.normal(size=40))
    cfg = TreeConfig(max_depth=5, min_leaf=3, mtry=2, honest=True)
    t1 = grow_tree(X, Y, SCALAR, np.arange(40), cfg,
                   rng=np.random.default_rng(99))
    t2 = grow_tree(X, Y, SCALAR, np.arange(40), cfg,
                   rng=np.random.default_rng(99))
    assert t1.to_dict() == t2.to_dict()


def test_permutation_symmetry():
    # permuting sample order (indices remapped) yields the same partition
    rng = np.random.default_rng(14)
    n = 50
    X = rng.uniform(size=(n, 2))
    Y = scalar_data(rng.normal(size=n))
    cfg = TreeConfig(max_depth=5, min_leaf=3)
    t1 = grow_tree(X, Y, SCALAR, np.arange(n), cfg)
    perm = rng.permutation(n)
    t2 = grow_tree(X[perm], Y[perm], SCALAR, np.arange(n), cfg)
    inv = np.argsort(perm)
    leaves1 = sorted(tuple(sorted(l)) for l in iter_leaves(t1))
    leaves2 = sorted(tuple(sorted(perm[i] for i in l))
                     for l in iter_leaves(t2))
    assert leaves1 == leaves2


def test_tree_serialization_roundtrip():
    rng = np.random.default_rng(15)
    X = rng.uniform(size=(30, 2))
    Y = scalar_data(rng.normal(size=30))
    cfg = TreeConfig(max_depth=4, min_leaf=3)
    t = grow_tree(X, Y, SCALAR, np.arange(30), cfg)
    back = FrechetTree.from_dict(t.to_dict())
    for x in rng.uniform(size=(20, 2)):
        assert np.array_equal(leaf_for(t, x), leaf_for(back, x))


def test_split_rule_routing_conventions():
    thr = {"feature": 0, "threshold": 0.5}
    assert goes_left(thr, np.array([0.49]))
    assert not goes_left(thr, np.array([0.5]))
    rep = {"feature": 0, "threshold": tree._midpoint_threshold(0.0, 1.0)}
    assert goes_left(rep, np.array([0.5]))  # equidistant sends left
    assert not goes_left(rep, np.array([0.51]))
