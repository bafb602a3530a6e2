"""Seeded property loops for the curved-space fast paths.

Covers the support-only mean solve, the moving-frame affine descent
(checked against the square-root descent of earlier versions), the split
sums of ``sum_sq_to_means`` (bit for bit those of earlier versions), the
square-root descent that builds logs only for its gradient and returns its
final iterate (bit for bit the earlier one, which grows the same affine
forests, also on bootstrap stacks with repeats, whose distinct objects it
decomposes once), the optimality of the affine means that growth keeps,
the per-index-set ``node_ss`` memo of the curved-space split engine, the
split sums shared by the cross-validation forests of one fold, the sphere
descent that carries its angles (checked against the solver of earlier
versions) and steps with the unchecked exponential map, the split scores
shared by the trees of one scope, the per-leaf means behind
``predict_frf`` (read from growth where it solved them, otherwise solved
once per tree as growth solves a node, so a model loaded from its document
predicts as the grown one, bit for bit), the row-descent policy
``_descend_rows`` (checked row by row against ``_descend`` on toy
objectives), and the batched sphere descent of ``weighted_frechet_means``
(checked row by row against ``weighted_frechet_mean``).

Under signed weights a curved mean is one descent from the usual start,
like an unsigned one; the objective is then not convex, so a seeded loop
at realistic sizes checks that no data point has a lower objective than
the descent's mean.  Earlier versions also descended from the data points
of largest |w|; the copies of those solvers below keep that rule as a
reference, which the signed solves must match within 1e-5.
"""

import contextlib
import json
import math

import numpy as np
import pytest

from frechetforest import forest, regressors, spaces, tree
from frechetforest.forest import (ForestConfig, fit_forest, model_from_dict,
                                  model_to_dict)
from frechetforest.spaces import (frechet_objective, spd_space, sphere_space,
                                  wasserstein_space, weighted_frechet_mean)
from frechetforest.tree import TreeConfig, grow_tree, tree_predict

CURVED = [spd_space(2, "affine"), spd_space(3, "affine"), sphere_space(3)]
ALL_SPACES = [wasserstein_space(5), spd_space(2)] + CURVED


def _objects(space, n, rng):
    if space.kind == spaces.WASSERSTEIN:
        return np.sort(rng.normal(size=(n, space.dim)), axis=1)
    if space.kind == spaces.SPHERE:
        # a cap around the north pole keeps signed means well posed
        v = np.concatenate([0.5 * rng.normal(size=(n, space.dim - 1)),
                            np.ones((n, 1))], axis=1)
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    m = space.dim
    a = 0.4 * rng.normal(size=(n, m, m))
    return np.stack([spaces.matrix_exp((s + s.T) / 2.0) for s in a])


def _weights(n, signed, rng):
    w = rng.uniform(0.1, 1.0, size=n)
    if signed:
        w[rng.permutation(n)[:max(1, n // 3)]] *= -0.3
    return w


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
@pytest.mark.parametrize("signed", [False, True])
def test_zero_weight_objects_leave_mean_unchanged(space, signed):
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        ys = _objects(space, n, rng)
        w = _weights(n, signed, rng)
        extra = _objects(space, int(rng.integers(1, 6)), rng)
        # zero-weight objects interleaved at random positions; the weighted
        # ones keep their order, on which a signed descent's rounding depends
        total = n + len(extra)
        keep = np.sort(rng.choice(total, size=n, replace=False))
        pad = np.setdiff1d(np.arange(total), keep)
        padded = np.empty((total,) + ys.shape[1:])
        padded[keep], padded[pad] = ys, extra
        wpad = np.zeros(total)
        wpad[keep] = w
        a = weighted_frechet_mean(space, ys, w)
        b = weighted_frechet_mean(space, padded, wpad)
        assert np.max(np.abs(a - b)) <= 1e-12


# The square-root descent of earlier versions, kept as a reference: every
# step re-whitens the stack with the iterate's inverse square root and moves
# along ``y^1/2 exp(t V) y^1/2``.


def _sqrt_invsqrt(y):
    vals, vecs = np.linalg.eigh(y)
    s = np.sqrt(vals)
    return (vecs * s) @ vecs.T, (vecs / s) @ vecs.T


def _reference_descent(ystack, wn, y):
    def obj_and_logs(p):
        _, isq = _sqrt_invsqrt(p)
        mids = np.einsum("ij,njk,kl->nil", isq, ystack, isq)
        mids = (mids + np.swapaxes(mids, 1, 2)) / 2.0
        vals, vecs = np.linalg.eigh(mids)
        logs = np.einsum("...ij,...j,...kj->...ik", vecs, np.log(vals), vecs)
        vals = np.linalg.eigvalsh(mids)
        o = float(wn @ np.sum(np.log(np.maximum(vals, 1e-300)) ** 2, axis=1))
        return o, logs

    cur, logs = obj_and_logs(y)
    step = 1.0
    for _ in range(spaces._MAX_ITER):
        v = np.einsum("n,nij->ij", wn, logs)
        if np.linalg.norm(v) < 1e-14:
            break
        sq, _ = _sqrt_invsqrt(y)
        accepted = False
        while step >= 1e-12:
            cand = sq @ spaces.matrix_exp(step * (v + v.T) / 2.0) @ sq
            cand = (cand + cand.T) / 2.0
            cand_obj, cand_logs = obj_and_logs(cand)
            if cand_obj < cur:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improvement = cur - cand_obj
        y, cur, logs = cand, cand_obj, cand_logs
        step = min(1.0, 2.0 * step)
        if improvement < spaces._OBJ_TOL:
            break
    return y, cur


def _old_signed_starts(ystack, wn):
    """The extra starts of earlier versions under signed weights: the data
    points of largest |w|, at most 8 of them."""
    if not np.any(wn < 0):
        return []
    return [ystack[i] for i in np.argsort(-np.abs(wn))[:8]]


def _reference_affine_mean(space, ystack, w):
    wn = w / w.sum()
    logchol = spd_space(space.dim)
    start = spaces.unembed(logchol, wn @ spaces.embed(logchol, ystack))
    return min((_reference_descent(ystack, wn, s)
                for s in [start] + _old_signed_starts(ystack, wn)),
               key=lambda r: r[1])[0]


@pytest.mark.parametrize("space", CURVED, ids=lambda s: f"{s.kind}{s.dim}")
@pytest.mark.parametrize("signed", [False, True])
def test_mean_objective_beats_data_points_and_reference(space, signed):
    rng = np.random.default_rng(47)
    # small stacks, then realistic leaf and query sizes, where a second
    # basin of a signed objective would show as a data point that beats
    # the descent's mean
    sizes = [int(rng.integers(3, 9)) for _ in range(15)]
    for n in sizes + list(range(15, 121, 8)):
        ys = _objects(space, n, rng)
        w = _weights(n, signed, rng)
        mean, info = weighted_frechet_mean(space, ys, w, return_info=True)
        assert info["converged"]
        obj = frechet_objective(space, ys, w, mean)
        for y in ys:
            assert obj <= frechet_objective(space, ys, w, y) + 1e-10
        if space.kind == spaces.SPD_AFFINE:
            ref = _reference_affine_mean(space, ys, w)
            assert obj <= frechet_objective(space, ys, w, ref) + 1e-10
            assert np.max(np.abs(mean - ref)) <= 1e-5


@pytest.mark.parametrize("space", CURVED, ids=lambda s: f"{s.kind}{s.dim}")
def test_split_sums_match_earlier_versions_bit_for_bit(space):
    # mirrored partitions tie up to rounding, so fitted trees depend on the
    # last bit of these sums: they must be the old mean solve's objective
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        ys = _objects(space, n, rng)
        w = np.ones(n)
        if space.kind == spaces.SPD_AFFINE:
            mean = _reference_affine_mean(space, ys, w)
        else:
            mean = weighted_frechet_mean(space, ys, w)
        [(ss, kept)] = spaces.sum_sq_to_means(space, ys, [np.arange(n)])
        assert ss == frechet_objective(space, ys, w, mean)
        if space.kind != spaces.SPD_AFFINE:
            # the mean growth keeps is the single solver's, bit for bit
            assert np.array_equal(kept, mean)


# The square-root split-sum descent as it was before its final iterate was
# returned, kept as a reference: it built the logs of every candidate's
# whitened stack and stepped with the checked ``matrix_exp``.  The copy
# also returns that iterate, which the earlier version dropped.


def _old_affine_sqrt_dist2(ystack, wn, y):
    def obj_and_state(p):
        sq, isq = _sqrt_invsqrt(p)
        mids = np.einsum("ij,njk,kl->nil", isq, ystack, isq)
        mids = (mids + np.swapaxes(mids, 1, 2)) / 2.0
        vals, vecs = np.linalg.eigh(mids)
        logs = np.einsum("...ij,...j,...kj->...ik", vecs, np.log(vals), vecs)
        dist2 = np.sum(np.log(np.maximum(np.linalg.eigvalsh(mids), 1e-300))
                       ** 2, axis=1)
        return float(wn @ dist2), (dist2, logs, sq, p)

    def gradient(state):
        return np.einsum("n,nij->ij", wn, state[1])

    def line(state, v):
        sq = state[2]

        def candidate(step):
            cand = sq @ spaces.matrix_exp(step * (v + v.T) / 2.0) @ sq
            return obj_and_state((cand + cand.T) / 2.0)
        return candidate

    cur, state = obj_and_state(y)
    (dist2, _, _, y), _ = spaces._descend(gradient, line, state, cur)
    return dist2, y


@pytest.mark.parametrize("m", [2, 3])
def test_sqrt_descent_equals_earlier_version_bit_for_bit(monkeypatch, m):
    # rows of sizes 2-120 and of several spreads, so that they stop after
    # different numbers of iterations, solved in calls of 1 to 19 rows:
    # each row is the earlier single descent's, and its own solve alone
    rng = np.random.default_rng(59)
    space = spd_space(m, "affine")
    sizes = list(range(2, 30)) + list(range(30, 121, 9))
    stacks = []
    for n in rng.permutation(sizes):
        a = rng.choice([0.05, 0.4, 1.5]) * rng.normal(size=(n, m, m))
        stacks.append(np.stack([spaces.matrix_exp((s + s.T) / 2.0)
                                for s in a]))
    wns = [np.ones(len(ys)) / len(ys) for ys in stacks]
    starts = [spaces._logchol_start(space, ys, wn)
              for ys, wn in zip(stacks, wns)]
    iterations = []
    descend = spaces._descend

    def counting(*args):
        state, info = descend(*args)
        iterations.append(info["iterations"])
        return state, info

    bounds = [0, 1, 3, 8, 20, len(stacks)]
    for lo, hi in zip(bounds, bounds[1:]):
        rows = spaces._affine_sqrt_dist2_rows(stacks[lo:hi], wns[lo:hi],
                                              starts[lo:hi])
        assert len(rows) == hi - lo
        for (dist2, mean), ys, wn, start in zip(
                rows, stacks[lo:hi], wns[lo:hi], starts[lo:hi]):
            with monkeypatch.context() as mp:
                mp.setattr(spaces, "_descend", counting)
                ref_dist2, ref_mean = _old_affine_sqrt_dist2(ys, wn, start)
            assert np.array_equal(dist2, ref_dist2)
            assert np.array_equal(mean, ref_mean)
            [(alone_dist2, alone_mean)] = spaces._affine_sqrt_dist2_rows(
                [ys], [wn], [start])
            assert np.array_equal(dist2, alone_dist2)
            assert np.array_equal(mean, alone_mean)
    assert len(set(iterations)) >= 4


@pytest.mark.parametrize("m", [2, 3])
def test_sqrt_descent_on_repeated_stacks_equals_earlier_version(m):
    # bootstrap stacks ys[sorted draws], where a third of the entries or
    # more repeat, between stacks with no repeats, and a stack of one
    # object followed by a stack that starts with it: each distinct object
    # of a row is decomposed once, yet every row must be the earlier single
    # descent's and its own solve alone, bit for bit
    rng = np.random.default_rng(61)
    space = spd_space(m, "affine")
    stacks, repeats = [], []
    for n in [6, 9, 14, 20, 31, 47, 70, 105]:
        spread = rng.choice([0.05, 0.4, 1.5])
        ys = _objects(space, n, rng) if spread == 0.4 else np.stack(
            [spaces.matrix_exp(spread * (s + s.T) / 2.0)
             for s in rng.normal(size=(n, m, m))])
        draws = ys[np.sort(rng.integers(0, n, n))]
        repeats.append(n - len(np.unique(draws, axis=0)))
        stacks += [draws, ys]
    assert min(repeats) >= 1
    assert sum(repeats) >= sum(len(ys) for ys in stacks[::2]) / 3
    one = _objects(space, 1, rng)
    stacks[5:5] = [np.repeat(one, 4, axis=0), np.concatenate(
        [np.repeat(one, 3, axis=0), _objects(space, 5, rng)])]
    wns = [np.ones(len(ys)) / len(ys) for ys in stacks]
    starts = [spaces._logchol_start(space, ys, wn)
              for ys, wn in zip(stacks, wns)]
    bounds = [0, 1, 2, 4, 7, 11, len(stacks)]
    for lo, hi in [(0, len(stacks))] + list(zip(bounds, bounds[1:])):
        rows = spaces._affine_sqrt_dist2_rows(stacks[lo:hi], wns[lo:hi],
                                              starts[lo:hi])
        assert len(rows) == hi - lo
        for (dist2, mean), ys, wn, start in zip(
                rows, stacks[lo:hi], wns[lo:hi], starts[lo:hi]):
            ref_dist2, ref_mean = _old_affine_sqrt_dist2(ys, wn, start)
            assert np.array_equal(dist2, ref_dist2)
            assert np.array_equal(mean, ref_mean)
            [(alone_dist2, alone_mean)] = spaces._affine_sqrt_dist2_rows(
                [ys], [wn], [start])
            assert np.array_equal(dist2, alone_dist2)
            assert np.array_equal(mean, alone_mean)


def test_affine_split_sums_decompose_each_distinct_object_once(monkeypatch):
    # every evaluation of the descent hands eigvalsh one matrix per
    # distinct (row, object) pair of the rows it evaluates, never one per
    # entry of their bootstrap multisets; sums and means stay the earlier
    # descent's from each set's own Log-Cholesky start, bit for bit
    rng = np.random.default_rng(67)
    space = spd_space(2, "affine")
    ys = _objects(space, 60, rng)
    sets = [np.sort(rng.integers(0, k, k)) for k in (60, 45, 30, 12, 7)]
    distinct = np.array([len(np.unique(idx)) for idx in sets])
    assert (distinct < [len(idx) for idx in sets]).all()
    refs = []
    for idx in sets:
        wn = np.ones(len(idx)) / len(idx)
        dist2, mean = _old_affine_sqrt_dist2(
            ys[idx], wn, spaces._logchol_start(space, ys[idx], wn))
        refs.append((float(np.ones(len(idx)) @ dist2), mean))
    events, descents = [], []
    eigvalsh, descend_rows = np.linalg.eigvalsh, spaces._descend_rows

    def counting(a):
        events.append(len(a))
        return eigvalsh(a)

    def recording(cur, gradient, line):
        def recorded(rows, steps, v):
            events.append(rows.copy())
            return line(rows, steps, v)
        descents.append(len(cur))
        return descend_rows(cur, gradient, recorded)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(spaces, "_descend_rows", recording)
    sums = spaces.sum_sq_to_means(space, ys, sets)
    for (ss, mean), (ref_ss, ref_mean) in zip(sums, refs, strict=True):
        assert ss == ref_ss
        assert np.array_equal(mean, ref_mean)
    assert descents == [len(sets)]  # one block: rows are the sets
    rows, evaluations = np.arange(len(sets)), 0
    for event in events:
        if isinstance(event, int):
            assert event == distinct[rows].sum()
            evaluations += 1
        else:
            rows = event
    # several steps, and some evaluate only the rows not yet converged
    assert evaluations >= 4
    assert min(len(e) for e in events if not isinstance(e, int)) < len(sets)


def _affine_forests(split_method, honest):
    """``to_dict`` JSON of seeded II-1 affine forests."""
    from frechetforest import simulate
    docs = []
    for seed in (2, 3):
        data = simulate.generate(simulate.SimSetting(
            "II-1", p=2, n=50, spd_metric="affine"),
            np.random.default_rng(seed))
        model = fit_forest(data.X, data.Y, data.space, ForestConfig(
            num_trees=3, master_seed=seed, tree=TreeConfig(
                max_depth=4, min_leaf=3, split_method=split_method,
                honest=honest)))
        docs.append(json.dumps([t.to_dict() for t in model.trees]))
    return docs


@pytest.mark.parametrize("split_method", ["two_means", "exhaustive"])
@pytest.mark.parametrize("honest", [False, True])
def test_affine_forests_equal_earlier_sqrt_descent(monkeypatch, split_method,
                                                   honest):
    got = _affine_forests(split_method, honest)
    monkeypatch.setattr(
        spaces, "_affine_sqrt_dist2_rows", lambda ystacks, wns, starts: [
            _old_affine_sqrt_dist2(*row)
            for row in zip(ystacks, wns, starts)])
    assert got == _affine_forests(split_method, honest)


def _sphere_forests(datasets, split_method):
    """Trees (``to_dict`` JSON) and kept leaf means of seeded forests."""
    out = []
    for seed, data in datasets:
        model = fit_forest(data.X, data.Y, data.space, ForestConfig(
            num_trees=3, master_seed=seed, tree=TreeConfig(
                max_depth=4, min_leaf=3, split_method=split_method)))
        for t in model.trees:
            out.append((json.dumps(t.to_dict()), t.leaf_means))
    return out


@pytest.mark.parametrize("split_method", ["two_means", "exhaustive"])
def test_sphere_forests_equal_checked_step(monkeypatch, split_method):
    # the descent's candidates call the unchecked ``_sphere_exp``; the
    # public map as it was, with its conversions and orthogonality check,
    # must grow the same trees and keep the same means, bit for bit
    from frechetforest import simulate
    datasets = [(seed, simulate.generate(
        simulate.SimSetting("III-2", p=2, n=50), np.random.default_rng(seed)))
        for seed in (2, 3)]
    calls = []

    def checked_step(base, tangent):
        calls.append(1)
        base = np.asarray(base, dtype=float)
        tangent = np.ascontiguousarray(tangent, dtype=float)
        norm = np.sqrt(tangent.dot(tangent))
        if abs(base @ tangent) > 1e-8 * (1.0 + norm):
            raise ValueError("tangent vector is not orthogonal")
        if norm < 1e-15:
            return base.copy()
        out = np.cos(norm) * base + np.sin(norm) * tangent / norm
        return out / np.sqrt(out.dot(out))

    got = _sphere_forests(datasets, split_method)
    monkeypatch.setattr(spaces, "_sphere_exp", checked_step)
    want = _sphere_forests(datasets, split_method)
    assert calls
    assert [doc for doc, _ in got] == [doc for doc, _ in want]
    for (_, means), (_, ref) in zip(got, want):
        assert means.keys() == ref.keys()
        assert all(np.array_equal(means[k], ref[k]) for k in ref)


@pytest.mark.parametrize("space", [spd_space(2, "affine"),
                                   spd_space(3, "affine")],
                         ids=lambda s: f"{s.kind}{s.dim}")
def test_stored_affine_means_are_optimal(space):
    # every node mean growth keeps: no data point of the node has a lower
    # objective, and the single solver finds the same point, at the same
    # objective to rounding
    rng = np.random.default_rng(43)
    n = 60
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    with tree.shared_node_sums():
        fit_forest(X, Y, space, ForestConfig(
            num_trees=3, master_seed=6, tree=TreeConfig(max_depth=4)))
        records = tree._responses_for(space, Y)._ss
    assert len(records) > 20
    for key, rec in records.items():
        ys = Y[np.frombuffer(key, dtype=np.intp)]
        w = np.ones(len(ys))
        obj = frechet_objective(space, ys, w, rec.mean)
        assert rec.mean.shape == space.shape
        for y in ys:
            assert obj <= frechet_objective(space, ys, w, y) + 1e-10
        # both affine descents stop once a step gains less than 1e-10 in
        # objective, so on a flat objective they can stop apart: 7.2e-9 on
        # an II-1 leaf of 5 objects.  Their objectives agree to rounding;
        # the distance bound is the solver's, as in the signed checks above
        ref = weighted_frechet_mean(space, ys, w)
        assert np.max(np.abs(rec.mean - ref)) <= 1e-5
        ref_obj = frechet_objective(space, ys, w, ref)
        assert obj <= ref_obj + 1e-12 * ref_obj


class _FreshResponses(tree._Responses):
    """The split engine with its memo emptied before every solve."""

    def node_ss(self, idx):
        self._ss.clear()
        return super().node_ss(idx)


@pytest.mark.parametrize("space", [spd_space(2, "affine"), sphere_space(3)],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("split_method", ["two_means", "exhaustive"])
def test_memoised_node_ss_grows_identical_trees(monkeypatch, space,
                                                split_method):
    rng = np.random.default_rng(5)
    n = 40
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    cfg = TreeConfig(max_depth=4, min_leaf=3, split_method=split_method)
    solves = _counting_sum_sq(monkeypatch)
    for seed in range(3):
        sub = np.sort(np.random.default_rng(seed).integers(0, n, size=n))
        solves.clear()
        memo = grow_tree(X, Y, space, sub, cfg,
                         np.random.default_rng(seed)).to_dict()
        memo_solves = len(solves)
        with monkeypatch.context() as m:
            m.setattr(tree, "_responses_for",
                      lambda sp, ys: _FreshResponses(sp, ys))
            solves.clear()
            fresh = grow_tree(X, Y, space, sub, cfg,
                              np.random.default_rng(seed)).to_dict()
        assert json.dumps(memo) == json.dumps(fresh)
        assert memo_solves < len(solves)


# grow_tree as it was before it grew a level at a time, kept as a
# reference: a depth-first recursion that asks the public ``best_split``
# for one node at a time, so each of its misses solves one index set.


def _recursive_grow_tree(X, ystack, space, subsample_indices, config, rng):
    subsample = np.asarray(subsample_indices, dtype=np.intp)
    p = X.shape[1]
    mtry = config.mtry if config.mtry is not None else p
    resp = tree._responses_for(space, ystack)
    structure = prediction = subsample
    struct_half = pred_half = None
    if config.honest:
        perm = rng.permutation(len(subsample))
        half = math.ceil(len(subsample) / 2)
        struct_half = subsample[perm[:half]]
        pred_half = subsample[perm[half:]]
        structure, prediction = struct_half, pred_half

    def build(struct_idx, pred_idx, depth):
        if (depth >= config.max_depth
                or len(struct_idx) < 2 * config.min_leaf
                or len(pred_idx) == 0):
            return {"leaf": pred_idx}
        if mtry < p:
            feats = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            feats = np.arange(p)
        rule = tree.best_split(struct_idx, feats, X, ystack, space, config,
                               resp)
        if rule is None:
            return {"leaf": pred_idx}
        smask = X[struct_idx, rule["feature"]] < rule["threshold"]
        pmask = X[pred_idx, rule["feature"]] < rule["threshold"]
        left = build(struct_idx[smask], pred_idx[pmask], depth + 1)
        right = build(struct_idx[~smask], pred_idx[~pmask], depth + 1)
        if "leaf" in left and len(left["leaf"]) == 0:
            return right
        if "leaf" in right and len(right["leaf"]) == 0:
            return left
        return {"rule": rule, "left": left, "right": right}

    root = build(structure, prediction, 1)
    if "leaf" in root and len(root["leaf"]) == 0:
        root = {"leaf": prediction}
    grown = tree.FrechetTree(root, subsample, struct_half, pred_half)
    grown.leaf_means = resp.solved_means(tree.iter_leaves(grown))
    return grown


def _recursive_grow_trees(X, ystack, space, subsamples, config, rngs):
    """The lockstep entry as the recursion: each tree on its own stream."""
    return [_recursive_grow_tree(X, ystack, space, sub, config, rng)
            for sub, rng in zip(subsamples, rngs)]


def _grow_recursively(monkeypatch):
    """Make ``fit_forest`` grow every tree by the recursion, whichever way
    ``grow_trees`` would grow the space's forest."""
    monkeypatch.setattr(forest, "grow_trees", _recursive_grow_trees)


def _trees_and_means(X, Y, space, p, split_method):
    """``to_dict`` JSON and kept leaf means of seeded forests for mtry 1
    and p, honest and not, grown outside and then inside one
    ``shared_node_sums`` scope."""
    cells = [TreeConfig(max_depth=4, min_leaf=3, mtry=mtry, honest=honest,
                        split_method=split_method)
             for mtry in (1, p) for honest in (False, True)]
    models = [fit_forest(X, Y, space, ForestConfig(
        num_trees=2, master_seed=9, tree=cfg)) for cfg in cells]
    with tree.shared_node_sums():
        models += [fit_forest(X, Y, space, ForestConfig(
            num_trees=2, master_seed=9, tree=cfg)) for cfg in cells]
    return [(json.dumps(t.to_dict()), t.leaf_means)
            for model in models for t in model.trees]


@pytest.mark.parametrize("space", [spd_space(2, "affine"), sphere_space(3)],
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("split_method", ["two_means", "exhaustive"])
def test_level_rounds_grow_the_recursive_trees(monkeypatch, space, p,
                                               split_method):
    # a level per round when mtry == p, the depth-first head otherwise:
    # the same trees and kept leaf means as the recursion, bit for bit
    rng = np.random.default_rng(71)
    n = 40
    X = rng.uniform(size=(n, p))
    Y = _objects(space, n, rng)
    got = _trees_and_means(X, Y, space, p, split_method)
    _grow_recursively(monkeypatch)
    want = _trees_and_means(X, Y, space, p, split_method)
    assert [doc for doc, _ in got] == [doc for doc, _ in want]
    assert any('"rule"' in doc for doc, _ in got)
    for (_, means), (_, ref) in zip(got, want):
        assert means.keys() == ref.keys()
        assert all(np.array_equal(means[k], ref[k]) for k in ref)


@pytest.mark.parametrize("space", [spd_space(2, "affine"), sphere_space(3)],
                         ids=lambda s: s.kind)
def test_level_rounds_solve_the_same_sets_in_few_calls(monkeypatch, space):
    # with mtry == p every curved space queues a level's split sums and
    # solves them in one ``sum_sq_to_means`` call: the same distinct index
    # sets as the recursion, which solves them one per call
    rng = np.random.default_rng(73)
    n, trees, max_depth = 60, 3, 5
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    config = ForestConfig(num_trees=trees, master_seed=5, tree=TreeConfig(
        max_depth=max_depth, min_leaf=3))
    solves = _counting_sum_sq(monkeypatch)
    calls = []
    queue = spaces.sum_sq_to_means

    def counting(*args):
        calls.append(1)
        return queue(*args)

    monkeypatch.setattr(spaces, "sum_sq_to_means", counting)
    fit_forest(X, Y, space, config)
    level_solves, level_calls = len(solves), len(calls)
    solves.clear()
    calls.clear()
    _grow_recursively(monkeypatch)
    fit_forest(X, Y, space, config)
    assert len(solves) == len(calls) > 5 * trees
    assert level_solves == len(solves)
    assert level_calls <= trees * (max_depth - 1)


def test_affine_forest_solves_a_round_of_every_tree_in_one_call(
        monkeypatch):
    # an affine forest grows its trees in lockstep rounds on one engine:
    # one ``sum_sq_to_means`` call per level of the whole forest, where
    # growing tree by tree takes one per level of each tree
    rng = np.random.default_rng(79)
    n, max_depth = 60, 5
    space = spd_space(2, "affine")
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    calls = []
    original = spaces.sum_sq_to_means

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(spaces, "sum_sq_to_means", counting)
    model = fit_forest(X, Y, space, ForestConfig(
        num_trees=3, master_seed=5, tree=TreeConfig(max_depth=max_depth,
                                                    min_leaf=3)))
    # three splits need two rounds, so tree by tree takes at least six calls
    assert all(sum("rule" in node for node in tree.iter_nodes(t.root)) >= 3
               for t in model.trees)
    assert 0 < len(calls) <= max_depth - 1


def _one_by_one(X, ystack, space, subsamples, config, rngs):
    """The lockstep entry as growth tree by tree, each with ``grow_tree``."""
    return [grow_tree(X, ystack, space, sub, config, rng)
            for sub, rng in zip(subsamples, rngs)]


def _lockstep_outputs(X, Y, space, configs, shared):
    """Per forest config: each tree's JSON and kept leaf means, and the
    rfwlcfr, rfwllfr and frf predictions (or error text) at fixed queries;
    with ``shared``, the forests are grown in one ``shared_node_sums``
    scope."""
    Xq = np.random.default_rng(83).uniform(size=(4, X.shape[1]))
    scope = tree.shared_node_sums() if shared else contextlib.nullcontext()
    with scope:
        models = [fit_forest(X, Y, space, cfg) for cfg in configs]
    out = []
    for model in models:
        out.append([(json.dumps(t.to_dict()), t.leaf_means)
                    for t in model.trees])
        preds = regressors.predict_batches(regressors.FOREST_KINDS, model, Xq)
        out.append({k: str(v) if isinstance(v, Exception) else v
                    for k, v in preds.items()})
    return out


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("split_method", ["two_means", "exhaustive"])
def test_lockstep_forests_equal_growth_tree_by_tree(monkeypatch, m,
                                                    split_method):
    # trees, kept leaf means and predictions, bit for bit, for mtry 1 and
    # p, honest or not, both subsample modes, inside and outside a scope
    rng = np.random.default_rng(89 + m)
    n, p = 30, 2
    space = spd_space(m, "affine")
    X = rng.uniform(size=(n, p))
    Y = _objects(space, n, rng)
    configs = [ForestConfig(
        num_trees=3, master_seed=11, subsample_mode=mode,
        subsample_size=None if mode == forest.BOOTSTRAP else n - 6,
        tree=TreeConfig(max_depth=depth, min_leaf=3, mtry=mtry,
                        honest=honest, split_method=split_method))
        for mode in (forest.BOOTSTRAP, forest.WITHOUT_REPLACEMENT)
        for mtry in (1, p) for honest in (False, True) for depth in (3, 4)]
    for shared in (False, True):
        got = _lockstep_outputs(X, Y, space, configs, shared)
        with monkeypatch.context() as mp:
            mp.setattr(forest, "grow_trees", _one_by_one)
            want = _lockstep_outputs(X, Y, space, configs, shared)
        assert any('"rule"' in doc for doc, _ in got[0])
        for trees, ref in zip(got[::2], want[::2]):
            assert [doc for doc, _ in trees] == [doc for doc, _ in ref]
            for (_, means), (_, ref_means) in zip(trees, ref):
                assert means.keys() == ref_means.keys()
                assert all(np.array_equal(means[k], ref_means[k])
                           for k in ref_means)
        for preds, ref in zip(got[1::2], want[1::2]):
            for kind in regressors.FOREST_KINDS:
                if isinstance(ref[kind], str):
                    assert preds[kind] == ref[kind]
                else:
                    assert np.array_equal(preds[kind], ref[kind])


def test_affine_forest_solves_a_set_two_trees_reach_once(monkeypatch):
    # without-replacement subsamples of size n give every tree the same
    # root; the forest's one engine solves each distinct set once
    rng = np.random.default_rng(97)
    n = 30
    space = spd_space(2, "affine")
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    keys = []
    original = spaces.sum_sq_to_means

    def recording(space, ystack, sets):
        keys.extend(idx.tobytes() for idx in sets)
        return original(space, ystack, sets)

    monkeypatch.setattr(spaces, "sum_sq_to_means", recording)
    model = fit_forest(X, Y, space, ForestConfig(
        num_trees=3, master_seed=3, subsample_mode=forest.WITHOUT_REPLACEMENT,
        tree=TreeConfig(max_depth=4, min_leaf=3, mtry=1)))
    root = model.trees[0].subsample_indices
    assert all(np.array_equal(t.subsample_indices, root)
               for t in model.trees)
    assert keys.count(root.tobytes()) == 1
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("space,one_by_one",
                         [(sphere_space(3), 3), (spd_space(2, "affine"), 0)],
                         ids=["sphere", "spd_affine"])
def test_grow_trees_grows_one_by_one_unless_sets_solve_together(
        monkeypatch, space, one_by_one):
    # the sphere solves split sums set by set, so lockstep saves no solve
    # there: its trees grow through ``grow_tree``, one call each
    rng = np.random.default_rng(89)
    X = rng.uniform(size=(30, 2))
    Y = _objects(space, 30, rng)
    grown = []
    original = tree.grow_tree

    def counting(*args):
        grown.append(1)
        return original(*args)

    monkeypatch.setattr(tree, "grow_tree", counting)
    fit_forest(X, Y, space, ForestConfig(
        num_trees=3, master_seed=2, tree=TreeConfig(max_depth=3)))
    assert len(grown) == one_by_one


def test_kept_affine_means_own_their_data():
    # a view would keep its block's square roots alive as long as the
    # split engine keeps the mean
    rng = np.random.default_rng(101)
    space = spd_space(2, "affine")
    Y = _objects(space, 20, rng)
    sums = spaces.sum_sq_to_means(space, Y, [np.arange(k, 20)
                                             for k in range(0, 12, 3)])
    assert len(sums) == 4
    assert all(mean.base is None for _, mean in sums)


def _fresh_leaf_means(model, x):
    """Each tree's leaf mean at ``x``, solved afresh as growth solves a
    node, after checking it against ``weighted_frechet_mean``: bit for bit
    on the sphere; within the solver's 1e-5 in the affine space, whose
    split-sum descent can stop apart from the single solver's (see
    ``test_stored_affine_means_are_optimal``)."""
    out = []
    for t in model.trees:
        ys = model.Y[tree.leaf_for(t, x)]
        mean = spaces.sum_sq_to_means(model.space, ys,
                                      [np.arange(len(ys))])[0][1]
        single = weighted_frechet_mean(model.space, ys, np.ones(len(ys)))
        if model.space.kind == spaces.SPD_AFFINE:
            assert np.max(np.abs(mean - single)) <= 1e-5
        else:
            assert np.array_equal(mean, single)
        out.append(mean)
    return np.stack(out)


def _fresh_frf(model, x):
    preds = _fresh_leaf_means(model, x)
    return weighted_frechet_mean(model.space, preds, np.ones(len(preds)))


@pytest.mark.parametrize("space", [spd_space(2, "affine"), sphere_space(3)],
                         ids=lambda s: s.kind)
def test_cached_frf_equals_per_tree_predictions(space):
    rng = np.random.default_rng(11)
    n = 60
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    model = fit_forest(X, Y, space,
                       ForestConfig(num_trees=5, master_seed=3,
                                    tree=TreeConfig(max_depth=4)))
    queries = rng.uniform(size=(15, 2))
    expected = [_fresh_frf(model, x) for x in queries]
    for _ in range(2):  # the second pass reads the means the trees kept
        for x, want in zip(queries, expected):
            assert np.array_equal(regressors.predict_frf(model, x), want)
            per_tree = [tree_predict(t, x, Y, space) for t in model.trees]
            assert np.array_equal(np.stack(per_tree),
                                  _fresh_leaf_means(model, x))
    for t in model.trees:
        assert {tree.leaf_for(t, x).tobytes() for x in queries} \
            <= t.leaf_means.keys()


@pytest.mark.parametrize("space,honest",
                         [(sphere_space(3), False), (sphere_space(3), True),
                          (spd_space(2, "affine"), False),
                          (spd_space(2, "affine"), True)],
                         ids=["sphere", "sphere-honest", "affine",
                              "affine-honest"])
def test_frf_reads_leaf_means_from_growth(monkeypatch, space, honest):
    rng = np.random.default_rng(41)
    n = 60
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    model = fit_forest(X, Y, space,
                       ForestConfig(num_trees=5, master_seed=4,
                                    tree=TreeConfig(max_depth=4,
                                                    honest=honest)))
    queries = rng.uniform(size=(15, 2))
    expected = [_fresh_frf(model, x) for x in queries]
    solves = []
    original = spaces.weighted_frechet_mean

    def counting(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spaces, "weighted_frechet_mean", counting)
    for x, want in zip(queries, expected):
        solves.clear()
        assert np.array_equal(regressors.predict_frf(model, x), want)
        if not honest:
            # every leaf of a non-honest tree was solved while growing it:
            # only the second stage is left
            assert len(solves) == 1


@pytest.mark.parametrize("space,honest",
                         [(sphere_space(3), False),
                          (spd_space(2, "affine"), False),
                          (spd_space(3, "affine"), False),
                          (spd_space(2, "affine"), True),
                          (wasserstein_space(5), True),
                          (spd_space(2), False)],
                         ids=["sphere", "affine2", "affine3",
                              "affine2-honest", "wasserstein-honest",
                              "logcholesky"])
def test_loaded_model_predicts_as_the_grown_one(space, honest):
    # a loaded tree has no kept means and solves its leaves again, the
    # way growth solved them, so the forest predictors and tree_predict
    # do not depend on whether the model was grown in this process
    rng = np.random.default_rng(61)
    n = 80
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    model = fit_forest(X, Y, space,
                       ForestConfig(num_trees=5, master_seed=8,
                                    tree=TreeConfig(max_depth=5, min_leaf=3,
                                                    honest=honest)))
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert all(not t.leaf_means for t in loaded.trees)
    for x in rng.uniform(size=(40, 2)):
        for kind in ("frf", "rfwlcfr", "rfwllfr"):
            predict = getattr(regressors, f"predict_{kind}")
            assert np.array_equal(predict(loaded, x), predict(model, x))
        for t, t_loaded in zip(model.trees, loaded.trees):
            assert np.array_equal(tree_predict(t_loaded, x, loaded.Y, space),
                                  tree_predict(t, x, Y, space))


@pytest.mark.parametrize("space", [sphere_space(3), spd_space(2, "affine")],
                         ids=lambda s: s.kind)
def test_loaded_tree_solves_each_leaf_once(monkeypatch, space):
    # a loaded tree keeps the leaf means tree_predict solves for it, so a
    # second pass over the same queries solves nothing
    rng = np.random.default_rng(67)
    n = 60
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    grown = grow_tree(X, Y, space, np.arange(n),
                      TreeConfig(max_depth=4, min_leaf=3),
                      np.random.default_rng(0))
    loaded = tree.FrechetTree.from_dict(json.loads(json.dumps(
        grown.to_dict())))
    queries = rng.uniform(size=(30, 2))
    reached = {tree.leaf_for(loaded, x).tobytes() for x in queries}
    assert 1 < len(reached) < len(queries)
    solves = _counting_sum_sq(monkeypatch)
    first = [tree_predict(loaded, x, Y, space) for x in queries]
    assert len(solves) == len(reached)
    solves.clear()
    second = [tree_predict(loaded, x, Y, space) for x in queries]
    assert not solves
    for a, b, x in zip(first, second, queries):
        assert np.array_equal(a, b)
        assert np.array_equal(a, tree_predict(grown, x, Y, space))


# The sphere and affine solvers as they were before the shared descent,
# copied as references: separate multi-starts and separate step-halving
# loops per geometry.


def _assert_matches_reference(space, ys, w, signed, got, ref):
    """Unsigned solves equal the reference bit for bit.  A signed solve is
    one descent, where the reference also tried its signed starts: it must
    converge within 1e-5 of the reference's mean, at an objective at most
    1e-10 above the reference's."""
    (mean, info), (ref_mean, ref_info) = got, ref
    if not signed:
        assert np.array_equal(mean, ref_mean)
        assert info == ref_info
        return
    assert info["converged"]
    assert np.max(np.abs(mean - ref_mean)) <= 1e-5
    assert frechet_objective(space, ys, w, mean) <= \
        frechet_objective(space, ys, w, ref_mean) + 1e-10


def _old_sphere_mean(ystack, wn):
    extrinsic = wn @ ystack
    norm = np.linalg.norm(extrinsic)
    if norm < 1e-6:
        y = ystack[int(np.argmax(wn))].copy()
    else:
        y = extrinsic / norm
    best = None
    for start in [y] + _old_signed_starts(ystack, wn):
        cand = _old_sphere_descent(ystack, wn, start)
        if best is None or cand[1]["objective"] < best[1]["objective"]:
            best = cand
    return best


def _old_sphere_descent(ystack, wn, y):
    def obj(p):
        return float(wn @ (np.arccos(np.clip(ystack @ p, -1.0, 1.0)) ** 2))

    cur = obj(y)
    step = 1.0
    converged = False
    it = 0
    for it in range(1, spaces._MAX_ITER + 1):
        v = wn @ spaces._sphere_logs(y, ystack)
        v -= (v @ y) * y
        if np.linalg.norm(v) < 1e-14:
            converged = True
            break
        accepted = False
        while step >= 1e-12:
            cand = _old_sphere_step(y, step * v)
            cand_obj = obj(cand)
            if cand_obj < cur:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        improvement = cur - cand_obj
        y, cur = cand, cand_obj
        step = min(1.0, 2.0 * step)
        if improvement < spaces._OBJ_TOL:
            converged = True
            break
    return y, {"converged": converged, "iterations": it, "objective": cur}


def _old_sphere_step(base, v):
    norm = np.linalg.norm(v)
    if norm < 1e-15:
        return base
    out = np.cos(norm) * base + np.sin(norm) * v / norm
    return out / np.linalg.norm(out)


def _old_affine_mean(space, ystack, wn):
    logchol = spd_space(space.dim)
    y = spaces.unembed(logchol, wn @ spaces.embed(logchol, ystack))
    best = None
    for start in [y] + _old_signed_starts(ystack, wn):
        cand = _old_affine_descent(ystack, wn, start)
        if best is None or cand[1]["objective"] < best[1]["objective"]:
            best = cand
    return best


def _old_whitened_obj_and_logs(Z, wn):
    vals, vecs = np.linalg.eigh(Z)
    lv = np.log(np.maximum(vals, 1e-300))
    logs = (vecs * lv[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    return float(wn @ np.sum(lv ** 2, axis=1)), logs


def _old_affine_descent(ystack, wn, y):
    G = np.linalg.cholesky(y)
    Ginv = np.linalg.inv(G)
    Z = Ginv @ ystack @ Ginv.T
    Z = (Z + np.swapaxes(Z, 1, 2)) / 2.0
    cur, logs = _old_whitened_obj_and_logs(Z, wn)
    step = 1.0
    converged = False
    it = 0
    for it in range(1, spaces._MAX_ITER + 1):
        v = np.einsum("n,nij->ij", wn, logs)
        if np.linalg.norm(v) < 1e-14:
            converged = True
            break
        lam, U = np.linalg.eigh((v + v.T) / 2.0)
        W = U.T @ Z @ U
        W = (W + np.swapaxes(W, 1, 2)) / 2.0
        accepted = False
        while step >= 1e-12:
            d = np.exp(step * lam / 2.0)
            cand = W / np.outer(d, d)
            cand_obj, cand_logs = _old_whitened_obj_and_logs(cand, wn)
            if cand_obj < cur:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        improvement = cur - cand_obj
        G = (G @ U) * d
        Z, cur, logs = cand, cand_obj, cand_logs
        step = min(1.0, 2.0 * step)
        if improvement < spaces._OBJ_TOL:
            converged = True
            break
    y = G @ G.T
    return (y + y.T) / 2.0, {"converged": converged, "iterations": it,
                             "objective": cur}


@pytest.mark.parametrize("space", CURVED + [sphere_space(4)],
                         ids=lambda s: f"{s.kind}{s.dim}")
@pytest.mark.parametrize("signed", [False, True])
def test_shared_descent_equals_per_geometry_solvers_bit_for_bit(space,
                                                                signed):
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(1, 15))
        ys = _objects(space, n, rng)
        w = _weights(n, signed, rng)
        if w.sum() <= 0:
            continue
        wn = w / w.sum()
        if space.kind == spaces.SPHERE:
            ref = _old_sphere_mean(ys, wn)
        else:
            ref = _old_affine_mean(space, ys, wn)
        _assert_matches_reference(
            space, ys, w, signed,
            weighted_frechet_mean(space, ys, w, return_info=True), ref)


def _sphere_data(d, n, signed, rng):
    """Sphere responses with duplicates, zero weights and a start point.

    The last object is the normalised extrinsic mean of the others, which
    lies within rounding of the descent's start, so the log map meets a
    target at its base point.
    """
    ys = _objects(sphere_space(d), n, rng)
    ys[rng.integers(0, n, size=n // 4)] = ys[rng.integers(0, n, size=n // 4)]
    w = _weights(n, signed, rng)
    w[rng.permutation(n)[:n // 5]] = 0.0
    extrinsic = (w / w.sum()) @ ys
    ys = np.vstack([ys, extrinsic / np.linalg.norm(extrinsic)])
    return ys, np.append(w, rng.uniform(0.1, 1.0))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("signed", [False, True])
def test_sphere_descent_equals_earlier_solver_at_realistic_sizes(d, signed):
    rng = np.random.default_rng(67)
    space = sphere_space(d)
    at_base = 0
    for n in list(range(15, 121, 15)) * 2:
        ys, w = _sphere_data(d, n, signed, rng)
        if w.sum() <= 0:
            continue
        wn = w / w.sum()
        support = wn != 0
        start = spaces._sphere_start(ys[support], wn[support])
        at_base += np.linalg.norm(ys[-1] - (ys[-1] @ start) * start) <= 1e-15
        _assert_matches_reference(
            space, ys, w, signed,
            weighted_frechet_mean(space, ys, w, return_info=True),
            _old_sphere_mean(ys[support], wn[support]))
    assert at_base > 0


def _old_sphere_exp(base, tangent):
    base = np.asarray(base, dtype=float)
    tangent = np.asarray(tangent, dtype=float)
    if abs(base @ tangent) > 1e-8 * (1.0 + np.linalg.norm(tangent)):
        raise ValueError("tangent vector is not orthogonal to the base point")
    norm = np.linalg.norm(tangent)
    if norm < 1e-15:
        return base.copy()
    out = np.cos(norm) * base + np.sin(norm) * tangent / norm
    return out / np.linalg.norm(out)


def _old_sphere_logs(base, targets):
    dots = np.clip(targets @ base, -1.0, 1.0)
    proj = targets - dots[:, None] * base
    norms = np.linalg.norm(proj, axis=1)
    theta = np.arccos(dots)
    scale = np.where(norms > 1e-15, theta / np.maximum(norms, 1e-300), 0.0)
    return scale[:, None] * proj


@pytest.mark.parametrize("d", [3, 4])
def test_sphere_maps_equal_earlier_formulas_bit_for_bit(d):
    rng = np.random.default_rng(71)
    for _ in range(200):
        base = _objects(sphere_space(d), 1, rng)[0]
        v = rng.normal(size=d) * 10.0 ** rng.uniform(-17, 1)
        v -= (v @ base) * base
        # a strided view as well as a contiguous vector
        strided = np.repeat(v, 2)[::2]
        for tangent in (v, strided):
            assert np.array_equal(spaces.sphere_exp(base, tangent),
                                  _old_sphere_exp(base, tangent))
        targets = np.vstack([_objects(sphere_space(d), 30, rng), base])
        dots = np.clip(targets @ base, -1.0, 1.0)
        ref = _old_sphere_logs(base, targets)
        assert np.array_equal(spaces._sphere_logs(base, targets), ref)
        assert np.array_equal(
            spaces._sphere_logs(base, targets, dots, np.arccos(dots)), ref)
    base = np.eye(d)[0]
    with pytest.raises(ValueError, match="not orthogonal"):
        spaces.sphere_exp(base, 0.1 * base + np.eye(d)[1])


def _counting_sum_sq(monkeypatch):
    """A list that gains one entry per index set solved for its sum of
    squares, through ``sum_sq_to_means``."""
    solves = []
    original = spaces.sum_sq_to_means

    def counting(space, ystack, sets):
        solves.extend([1] * len(sets))
        return original(space, ystack, sets)

    monkeypatch.setattr(spaces, "sum_sq_to_means", counting)
    return solves


@pytest.mark.parametrize("split_method", ["two_means", "exhaustive"])
def test_cv_forests_of_a_fold_share_node_sums(monkeypatch, split_method):
    rng = np.random.default_rng(19)
    n, folds = 45, 3
    space = sphere_space(3)
    X = rng.uniform(size=(n, 2))
    Y = _objects(space, n, rng)
    grid = [{"max_depth": d, "mtry": m} for d in (3, 5) for m in (1, 2)]
    base = TreeConfig(min_leaf=3, split_method=split_method)
    args = (X, Y, space, list(regressors.FOREST_KINDS), grid, folds, 7, 4,
            base)
    solves = _counting_sum_sq(monkeypatch)
    shared = regressors.cv_errors(*args)
    shared_solves = len(solves)
    monkeypatch.setattr(regressors, "shared_node_sums", contextlib.nullcontext)
    solves.clear()
    unshared = regressors.cv_errors(*args)
    for kind in regressors.FOREST_KINDS:
        assert np.array_equal(shared[kind], unshared[kind])
    assert shared_solves < len(solves)


def test_shared_engine_is_never_reused_for_another_ystack():
    rng = np.random.default_rng(23)
    space = sphere_space(3)
    Y = _objects(space, 20, rng)
    copy = Y.copy()
    assert tree._responses_for(space, Y) is not tree._responses_for(space, Y)
    with tree.shared_node_sums():
        engine = tree._responses_for(space, Y)
        assert tree._responses_for(space, Y) is engine
        assert tree._responses_for(space, copy) is not engine
        assert tree._responses_for(space, copy).ystack is copy
        assert tree._responses_for(sphere_space(3), Y) is engine
        for ys in (Y[:], np.asarray(Y, order="F")):
            assert tree._responses_for(space, ys).ystack is ys
    with tree.shared_node_sums():
        assert tree._responses_for(space, Y) is not engine


def test_shared_scope_is_reset_after_cv_and_after_an_error():
    rng = np.random.default_rng(29)
    space = sphere_space(3)
    X = rng.uniform(size=(24, 2))
    Y = _objects(space, 24, rng)
    regressors.cv_errors(X, Y, space, ["rfwlcfr"], [{"max_depth": 3}], 2, 1,
                         2, TreeConfig(min_leaf=3))
    assert tree._SHARED_ENGINES.get() is None
    with pytest.raises(RuntimeError, match="inside the scope"):
        with tree.shared_node_sums():
            tree._responses_for(space, Y)
            raise RuntimeError("raised inside the scope")
    assert tree._SHARED_ENGINES.get() is None


def _grid_forests(Xs, Y, space, split_method, honest, grid) -> list:
    """JSON of the forest of each X, master seed and grid cell."""
    docs = []
    for X in Xs:
        for seed in (0, 1):
            for cell in grid:
                tcfg = TreeConfig(min_leaf=3, split_method=split_method,
                                  honest=honest, **cell)
                model = fit_forest(X, Y, space, ForestConfig(
                    num_trees=3, master_seed=seed, tree=tcfg))
                docs.append(json.dumps([t.to_dict() for t in model.trees]))
    return docs


@pytest.mark.parametrize("space,split_method,honest", [
    (sphere_space(3), "two_means", False),
    (wasserstein_space(5), "exhaustive", False),
    (spd_space(2, "affine"), "two_means", False),
    (sphere_space(3), "exhaustive", True),
    (wasserstein_space(5), "two_means", True)],
    ids=["sphere", "wasserstein-exhaustive", "affine",
         "sphere-exhaustive-honest", "wasserstein-honest"])
def test_shared_split_scores_grow_the_same_trees(monkeypatch, space,
                                                 split_method, honest):
    rng = np.random.default_rng(37)
    n, p = 40, 3
    Xs = [rng.uniform(size=(n, p)) for _ in range(2)]  # two X, one ystack
    Y = _objects(space, n, rng)
    grid = [{"max_depth": d, "mtry": m} for d in (2, 4) for m in (1, p)]
    scored = []

    def counting(original):
        def wrapped(*args, **kwargs):
            scored.append(1)
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(tree, "two_means_1d", counting(tree.two_means_1d))
    monkeypatch.setattr(tree._Responses, "threshold_candidates",
                        counting(tree._Responses.threshold_candidates))
    unshared = _grid_forests(Xs, Y, space, split_method, honest, grid)
    unshared_scored = len(scored)
    scored.clear()
    with tree.shared_node_sums():
        shared = _grid_forests(Xs, Y, space, split_method, honest, grid)
    assert shared == unshared
    assert 0 < len(scored) < unshared_scored


def test_forest_cv_fits_one_forest_per_cell_and_fold(monkeypatch):
    rng = np.random.default_rng(17)
    n, folds = 36, 3
    X = rng.uniform(size=(n, 2))
    space = wasserstein_space(5)
    Y = np.sort(X[:, :1] + 0.2 * rng.normal(size=(n, 5)), axis=1)
    grid = [{"max_depth": d, "mtry": m} for d in (2, 4) for m in (1, 2)]
    base = TreeConfig(min_leaf=3)
    fits = []
    original = regressors.fit_forest

    def counting(*args, **kwargs):
        fits.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(regressors, "fit_forest", counting)
    errors = regressors.cv_errors(X, Y, space, list(regressors.FOREST_KINDS),
                                  grid, folds, 5, 4, base)
    assert len(fits) == len(grid) * folds
    for kind in regressors.FOREST_KINDS:
        assert errors[kind].shape == (len(grid), folds)
        _, table = regressors.tune_cv(X, Y, space, kind, grid, folds=folds,
                                      seed=5, num_trees=4, base_tree=base)
        assert [row["mean_error"] for row in table] == \
            [float(np.mean(row)) for row in errors[kind]]


def _toy_descents():
    """Rows of ``a (x - c)^2 + b x`` over a scalar ``x``, each descending
    along ``sign`` times its gradient from ``x0``, and the row that stops
    by each rule: a vanishing gradient (a start at the minimum), an
    improvement below ``_OBJ_TOL``, a step below ``_STEP_FLOOR`` (an ascent
    direction), and ``_MAX_ITER`` (a linear objective, falling by a unit
    step forever); two more rows stop by improvement."""
    a = np.array([1.0, 0.3, 1.0, 0.0, 0.7, 2.5])
    c = np.array([0.5, 0.0, 0.0, 0.0, -1.0, 3.0])
    b = np.array([0.0, 0.0, 0.0, -1.0, 0.2, 0.0])
    sign = np.array([1.0, 1.0, -1.0, 1.0, 1.0, 1.0])
    x0 = np.array([0.5, 1.0, 1.0, 0.0, 2.0, -4.0])

    def objective(rows, x):
        return a[rows] * (x - c[rows]) ** 2 + b[rows] * x

    def gradient(rows, x):
        return sign[rows] * (2.0 * a[rows] * (x - c[rows]) + b[rows])
    return objective, gradient, x0


def test_descend_rows_equals_descend_row_by_row():
    objective, grad, x0 = _toy_descents()
    x, everyone = x0.copy(), np.arange(len(x0))

    def line(rows, steps, v):
        cand = x[rows] - steps * v

        def keep(moved):
            x[rows[moved]] = cand[moved]
        return objective(rows, cand), keep

    cur = objective(everyone, x0)
    converged, iterations = spaces._descend_rows(
        cur, lambda rows: grad(rows, x[rows]), line)
    for k in everyone:
        row = np.array([k])

        def line_one(state, v):
            return lambda step: (objective(row, state - step * v)[0],
                                 state - step * v)
        state, info = spaces._descend(lambda state: grad(row, state),
                                      line_one, x0[row],
                                      objective(row, x0[row])[0])
        assert converged[k] == info["converged"]
        assert iterations[k] == info["iterations"]
        assert cur[k] == info["objective"]
        assert x[k] == state[0]
    # each stop rule ended a row
    assert grad(everyone, x)[0] == 0.0 and iterations[0] == 1
    assert 1 < iterations[1] < spaces._MAX_ITER
    assert abs(grad(everyone, x)[1]) >= spaces._GRAD_TOL
    assert iterations[2] == 1 and x[2] == x0[2]
    assert iterations[3] == spaces._MAX_ITER and not converged[3]
    assert converged[[0, 1, 2, 4, 5]].all()


def _sphere_weight_rows(scenario, seed, queries):
    """rfwlcfr, rfwllfr (signed) and gfr (signed) rows on one III stack."""
    from frechetforest import simulate
    rng = np.random.default_rng(seed)
    data = simulate.generate(simulate.SimSetting(scenario, p=2, n=60), rng)
    model = fit_forest(data.X, data.Y, data.space, ForestConfig(
        num_trees=5, tree=TreeConfig(max_depth=4), master_seed=seed))
    gfr = regressors.fit_gfr(data.X, data.Y, data.space)
    rows = []
    for x in rng.uniform(size=(queries, 2)):
        alpha = regressors.kernel_weights(model, x)
        rows += [alpha, regressors.local_linear_weights(data.X, x, alpha),
                 regressors.gfr_weights(gfr, x)]
    one_hot = np.zeros(len(data.Y))
    one_hot[7] = 2.0  # all weight on one object: the start is the optimum
    sparse = rows[0].copy()
    sparse[::2] = 0.0
    return data.Y, np.stack(rows + [one_hot, sparse])


def _octahedron_rows():
    """Rows over one octahedron stack; the first row's extrinsic mean is 0.

    Its first object has weight zero, so the argmax start is -e3, where
    the gradient vanishes exactly: e3 is antipodal and +-e1, +-e2 cancel.
    """
    rng = np.random.default_rng(4)
    e = np.eye(3)
    ystack = np.concatenate([_objects(sphere_space(3), 1, rng), -e[[2]],
                             e[[0]], -e[[0]], e[[1]], -e[[1]], e[[2]]])
    rows = [np.r_[0.0, np.ones(6)]] + [_weights(7, True, rng)
                                       for _ in range(3)]
    return ystack, np.stack(rows)


def _assert_batch_matches_single(ystack, W):
    space = sphere_space(3)
    means = spaces.weighted_frechet_means(space, ystack, W)
    assert means.shape == (len(W), 3)
    # one block: the rows solved together equal the blocks, bit for bit
    wn = W / W.sum(axis=1)[:, None]
    solved, converged, iterations, objective = spaces._sphere_solve_rows(
        ystack, wn)
    assert np.array_equal(solved, means)
    for k, w in enumerate(W):
        ref, ref_info = weighted_frechet_mean(space, ystack, w,
                                              return_info=True)
        obj = objective[k]
        assert np.max(np.abs(means[k] - ref)) <= 1e-6
        ref_obj = ref_info["objective"]
        assert obj <= ref_obj + 1e-10 * abs(ref_obj)
        assert obj == pytest.approx(
            frechet_objective(space, ystack, wn[k], means[k]),
            rel=1e-12, abs=1e-15)
        points = [frechet_objective(space, ystack, wn[k], y)
                  for y in ystack[w != 0]]
        assert obj <= min(points) + 1e-12 * abs(min(points))
        assert converged[k] == ref_info["converged"]
        alone = spaces._sphere_solve_rows(ystack, wn[k:k + 1])
        assert np.array_equal(alone[0][0], means[k])
        assert [part[0] for part in alone[1:]] == \
            [converged[k], iterations[k], objective[k]]
        assert np.array_equal(
            spaces.weighted_frechet_means(space, ystack, W[k:k + 1])[0],
            means[k])
    return means, iterations


@pytest.mark.parametrize("scenario,seed", [("III-1", 8), ("III-2", 9)])
def test_batched_sphere_means_equal_single_solves(scenario, seed):
    ystack, W = _sphere_weight_rows(scenario, seed, 30)
    # more rows than one block of the descent holds
    assert len(W) > spaces._BLOCK_ENTRIES // ystack.shape[0]
    assert (W < 0).any(axis=1).sum() >= 30
    means, iterations = _assert_batch_matches_single(ystack, W)
    assert np.array_equal(means[-2], ystack[7])
    assert iterations[-2] == 1


def test_batched_sphere_means_take_the_argmax_start():
    ystack, W = _octahedron_rows()
    means, iterations = _assert_batch_matches_single(ystack, W)
    assert np.array_equal(means[0], -np.eye(3)[2])
    assert iterations[0] == 1


def test_batched_means_reject_what_the_single_solve_rejects():
    space = sphere_space(3)
    ystack, W = _octahedron_rows()
    bad = ystack.copy()
    bad[2, 0] = np.nan
    cases = [(ystack, np.where(np.arange(7) == 3, np.inf, W[:2])),
             (bad, W[:2]), (ystack, np.stack([W[0], -W[0]])),
             (ystack, np.stack([W[0], np.zeros(7)])),
             (ystack, np.stack([-W[0], np.full(7, np.nan)]))]
    for ys, rows in cases:
        with pytest.raises(ValueError) as single:
            for w in rows:
                weighted_frechet_mean(space, ys, w)
        with pytest.raises(ValueError, match=str(single.value)):
            spaces.weighted_frechet_means(space, ys, rows)
    with pytest.raises(ValueError, match="different lengths"):
        spaces.weighted_frechet_means(space, ystack, W[:, :6])


@pytest.mark.parametrize("space", [sphere_space(3), wasserstein_space(5)])
def test_batched_means_take_rows_as_produced(space):
    # any iterable of rows, in query order; a row whose production raises
    # fails after the rows before it, whose own error comes first
    rng = np.random.default_rng(7)
    ystack = _objects(space, 5, rng)
    W = rng.uniform(0.1, 1.0, size=(3, 5))
    means = spaces.weighted_frechet_means(space, ystack, W)
    assert np.array_equal(
        spaces.weighted_frechet_means(space, ystack, (w for w in W)), means)
    assert np.array_equal(
        spaces.weighted_frechet_means(space, ystack, list(W)), means)

    def rows(first):
        yield first
        raise ValueError("weights of a later row")

    with pytest.raises(ValueError, match="later row"):
        spaces.weighted_frechet_means(space, ystack, rows(W[0]))
    with pytest.raises(ValueError, match="total weight must be positive"):
        spaces.weighted_frechet_means(space, ystack, rows(-W[0]))


@pytest.mark.parametrize("space", [sphere_space(3), wasserstein_space(5),
                                   spd_space(2, "affine")])
def test_batched_means_of_no_rows_are_empty(space):
    ystack = _objects(space, 4, np.random.default_rng(6))
    means = spaces.weighted_frechet_means(space, ystack, np.empty((0, 4)))
    assert means.shape == (0,) + space.shape
