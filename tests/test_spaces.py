"""Metric-space geometry: distances, embeddings, means, projections."""

import math
import statistics

import numpy as np
import pytest

from frechetforest import spaces
from frechetforest.spaces import (MetricSpace, cholesky_factor, distance,
                                  embed, frechet_objective, isotonic_project,
                                  matrix_exp, matrix_log, spd_space,
                                  sphere_exp, sphere_log, sphere_space,
                                  unembed, wasserstein_space,
                                  weighted_frechet_mean)

RNG = np.random.default_rng(20240817)


def random_quantile(m, rng=RNG):
    return np.sort(rng.normal(size=m))


def random_spd(m, rng=RNG):
    a = rng.normal(size=(m, m))
    return a @ a.T + 0.1 * np.eye(m)


def random_unit(q, rng=RNG):
    v = rng.normal(size=q)
    return v / np.linalg.norm(v)


def random_object(space, rng=RNG):
    if space.kind == spaces.WASSERSTEIN:
        return random_quantile(space.dim, rng)
    if space.kind == spaces.SPHERE:
        return random_unit(space.dim, rng)
    return random_spd(space.dim, rng)


ALL_SPACES = [wasserstein_space(21), spd_space(3, "logcholesky"),
              spd_space(3, "affine"), sphere_space(3)]


# ---------------------------------------------------------------------------
# distances


@pytest.mark.parametrize("space", ALL_SPACES)
def test_distance_identity(space):
    y = random_object(space)
    assert distance(space, y, y) == pytest.approx(0.0, abs=1e-12)


def test_wasserstein_unit_shift():
    # quantile grids of N(0,1) and N(1,1): constant unit shift, d_W = 1
    space = wasserstein_space(21)
    t = (2 * np.arange(1, 22) - 1) / 42
    a = np.array([statistics.NormalDist().inv_cdf(v) for v in t])
    assert distance(space, a, a + 1.0) == pytest.approx(1.0, abs=1e-12)


def test_sphere_orthogonal():
    space = sphere_space(3)
    d = distance(space, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    assert d == pytest.approx(math.pi / 2, abs=1e-12)


def test_sphere_distance_resolves_nearby_points():
    # arccos of the dot product reads 0 or about 1.5e-8 at these separations
    space = sphere_space(3)
    rng = np.random.default_rng(9)
    for eps in (1e-12, 1e-10, 1e-9, 1e-6):
        for _ in range(20):
            a = random_unit(3, rng)
            t = rng.normal(size=3)
            t -= (t @ a) * a
            b = sphere_exp(a, eps * t / np.linalg.norm(t))
            assert distance(space, a, b) == pytest.approx(eps, rel=1e-6)
    assert distance(space, np.array([0.0, 0.0, 1.0]),
                    np.array([0.0, 0.0, -1.0])) == pytest.approx(math.pi)


def test_logcholesky_scaled_identity():
    # chol(I) = I, chol(4I) = 2I: strict-lower parts zero, log-diag gap ln 2
    space = spd_space(2, "logcholesky")
    d = distance(space, np.eye(2), 4.0 * np.eye(2))
    assert d == pytest.approx(math.sqrt(2) * math.log(2), abs=1e-12)


def test_affine_scaled_identity():
    # log(e^2 I) = 2I, Frobenius norm 2*sqrt(3)
    space = spd_space(3, "affine")
    d = distance(space, np.eye(3), math.exp(2.0) * np.eye(3))
    assert d == pytest.approx(2.0 * math.sqrt(3), abs=1e-10)


@pytest.mark.parametrize("space", ALL_SPACES)
def test_metric_axioms(space):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a, b, c = (random_object(space, rng) for _ in range(3))
        dab = distance(space, a, b)
        dba = distance(space, b, a)
        dac = distance(space, a, c)
        dcb = distance(space, c, b)
        assert dab >= 0.0
        assert abs(dab - dba) <= 1e-12
        assert dab <= dac + dcb + 1e-9


def test_affine_congruence_invariance():
    space = spd_space(3, "affine")
    rng = np.random.default_rng(11)
    for _ in range(20):
        y1, y2 = random_spd(3, rng), random_spd(3, rng)
        a = rng.normal(size=(3, 3)) + 0.5 * np.eye(3)
        while abs(np.linalg.det(a)) < 1e-3:
            a = rng.normal(size=(3, 3)) + 0.5 * np.eye(3)
        d0 = distance(space, y1, y2)
        d1 = distance(space, a.T @ y1 @ a, a.T @ y2 @ a)
        assert d1 == pytest.approx(d0, abs=1e-8 * (1 + d0))


# ---------------------------------------------------------------------------
# matrix and sphere maps


def test_cholesky_factor():
    assert np.allclose(cholesky_factor(np.eye(3)), np.eye(3))
    assert np.allclose(cholesky_factor(np.diag([4.0, 9.0])),
                       np.diag([2.0, 3.0]))
    y = random_spd(4)
    L = cholesky_factor(y)
    assert np.linalg.norm(L @ L.T - y) < 1e-9
    with pytest.raises(ValueError):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_matrix_log_exp():
    assert np.allclose(matrix_log(np.eye(3)), np.zeros((3, 3)))
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))
    for _ in range(10):
        y = random_spd(3)
        assert np.linalg.norm(matrix_exp(matrix_log(y)) - y) < 1e-9


def test_sphere_exp_log():
    p = np.array([0.0, 0.0, 1.0])
    assert np.allclose(sphere_exp(p, np.zeros(3)), p)
    assert np.allclose(sphere_exp(p, np.array([math.pi / 2, 0.0, 0.0])),
                       np.array([1.0, 0.0, 0.0]), atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_unit(3, rng), random_unit(3, rng)
        v = sphere_log(a, b)
        assert np.linalg.norm(sphere_exp(a, v) - b) < 1e-9
        assert np.linalg.norm(v) == pytest.approx(
            distance(sphere_space(3), a, b), abs=1e-10)
    with pytest.raises(ValueError):
        sphere_log(p, -p)


# ---------------------------------------------------------------------------
# isotonic projection


def test_isotonic_project():
    assert np.allclose(isotonic_project(np.array([1.0, 2.0, 3.0])),
                       [1.0, 2.0, 3.0])
    assert np.allclose(isotonic_project(np.array([1.0, 3.0, 2.0])),
                       [1.0, 2.5, 2.5])
    assert np.allclose(isotonic_project(np.full(5, 2.0)), np.full(5, 2.0))
    v = RNG.normal(size=50)
    once = isotonic_project(v)
    assert np.all(np.diff(once) >= -1e-12)
    assert np.allclose(isotonic_project(once), once)


def test_isotonic_is_euclidean_projection():
    # the PAVA output beats nearby monotone candidates in squared error
    rng = np.random.default_rng(5)
    v = rng.normal(size=12)
    proj = isotonic_project(v)
    best = np.sum((proj - v) ** 2)
    for _ in range(200):
        cand = np.sort(proj + 0.05 * rng.normal(size=12))
        assert np.sum((cand - v) ** 2) >= best - 1e-12


# ---------------------------------------------------------------------------
# objective and means


def test_frechet_objective_direct_sum():
    space = wasserstein_space(8)
    ys = np.stack([random_quantile(8) for _ in range(5)])
    w = RNG.uniform(size=5)
    y = random_quantile(8)
    direct = sum(wi * distance(space, yi, y) ** 2 for wi, yi in zip(w, ys))
    assert frechet_objective(space, ys, w, y) == pytest.approx(direct,
                                                               abs=1e-12)
    assert frechet_objective(space, ys, np.zeros(5), y) == 0.0


@pytest.mark.parametrize("space", ALL_SPACES)
def test_mean_single_point(space):
    y = random_object(space)
    out = weighted_frechet_mean(space, np.stack([y]), np.array([1.0]))
    assert np.linalg.norm(out - y) < 1e-9


def test_sphere_midpoint():
    space = sphere_space(3)
    ys = np.stack([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = weighted_frechet_mean(space, ys, np.array([1.0, 1.0]))
    assert np.allclose(out, [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0],
                       atol=1e-8)


def test_affine_midpoint():
    space = spd_space(2, "affine")
    ys = np.stack([np.eye(2), math.exp(2.0) * np.eye(2)])
    out = weighted_frechet_mean(space, ys, np.array([1.0, 1.0]))
    assert np.allclose(out, math.e * np.eye(2), atol=1e-6)


@pytest.mark.parametrize("space", [wasserstein_space(15),
                                   spd_space(3, "logcholesky")])
def test_mean_minimizer_property(space):
    rng = np.random.default_rng(9)
    ys = np.stack([random_object(space, rng) for _ in range(8)])
    w = rng.uniform(0.1, 1.0, size=8)
    mean = weighted_frechet_mean(space, ys, w)
    obj = frechet_objective(space, ys, w, mean)
    for y in ys:
        assert obj <= frechet_objective(space, ys, w, y) + 1e-10


def test_quantile_mean_scale_equivariance():
    space = wasserstein_space(10)
    ys = np.stack([random_quantile(10) for _ in range(6)])
    w = RNG.uniform(size=6)
    a = weighted_frechet_mean(space, ys, w)
    b = weighted_frechet_mean(space, ys, 7.5 * w)
    assert np.allclose(a, b, atol=1e-12)


def test_embedding_isometry():
    for space in (wasserstein_space(12), spd_space(3, "logcholesky")):
        rng = np.random.default_rng(13)
        y1, y2 = random_object(space, rng), random_object(space, rng)
        e = embed(space, np.stack([y1, y2]))
        assert np.linalg.norm(e[0] - e[1]) == pytest.approx(
            distance(space, y1, y2), abs=1e-10)


def test_embed_unembed_roundtrip():
    for space in (wasserstein_space(12), spd_space(3, "logcholesky")):
        rng = np.random.default_rng(17)
        ys = np.stack([random_object(space, rng) for _ in range(4)])
        back = unembed(space, embed(space, ys))
        assert np.max(np.abs(back - ys)) < 1e-9


def test_mean_errors():
    space = wasserstein_space(5)
    ys = np.stack([random_quantile(5) for _ in range(3)])
    with pytest.raises(ValueError):
        weighted_frechet_mean(space, ys, np.zeros(3))


def test_validate_object():
    with pytest.raises(ValueError):
        spaces.validate_object(wasserstein_space(3),
                               np.array([1.0, 0.5, 2.0]))
    with pytest.raises(ValueError):
        spaces.validate_object(sphere_space(3), np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        spaces.validate_object(spd_space(2), np.array([[1.0, 2.0],
                                                       [2.0, 1.0]]))


def test_validate_object_rejects_nan():
    nan_objects = [(wasserstein_space(3), np.array([0.0, np.nan, 1.0])),
                   (sphere_space(3), np.array([np.nan, 0.0, 1.0])),
                   (spd_space(2), np.array([[1.0, np.nan], [np.nan, 1.0]])),
                   (spd_space(2, "affine"), np.full((2, 2), np.inf))]
    for space, y in nan_objects:
        with pytest.raises(ValueError, match="non-finite"):
            spaces.validate_object(space, y)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.kind)
def test_mean_rejects_nonfinite_weights_and_objects(space):
    rng = np.random.default_rng(9)
    ys = np.stack([random_object(space, rng) for _ in range(4)])
    for bad in (np.nan, np.inf):
        w = np.ones(4)
        w[2] = bad
        with pytest.raises(ValueError, match="finite"):
            weighted_frechet_mean(space, ys, w)
        ys_bad = ys.copy()
        ys_bad[1].flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            weighted_frechet_mean(space, ys_bad, np.ones(4))


def test_space_serialization_roundtrip():
    for space in ALL_SPACES:
        assert MetricSpace.from_dict(space.to_dict()) == space


@pytest.mark.parametrize("metric", ["typo", "Affine", "log-cholesky", ""])
def test_spd_space_rejects_an_unknown_metric(metric):
    with pytest.raises(ValueError, match="unknown SPD metric"):
        spd_space(2, metric)


@pytest.mark.parametrize("dim", [2.5, "2", True, 0])
def test_space_dimension_must_be_a_positive_integer(dim):
    # a bool or a float passed as the dimension and reached the model file
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        MetricSpace(spaces.SPHERE, dim)


def _pair_distance(space, a, b):
    # each geometry's distance as its own closed form, pair by pair
    if space.kind == spaces.WASSERSTEIN:
        return math.sqrt(np.sum((a - b) ** 2) / space.dim)
    if space.kind == spaces.SPHERE:
        return 2.0 * math.atan2(np.linalg.norm(a - b), np.linalg.norm(a + b))
    if space.kind == spaces.SPD_LOGCHOLESKY:
        return float(np.linalg.norm(embed(space, a[None])[0]
                                    - embed(space, b[None])[0]))
    vals, vecs = np.linalg.eigh(a)
    isq = (vecs / np.sqrt(vals)) @ vecs.T
    mid = isq @ b @ isq
    vals = np.linalg.eigvalsh((mid + mid.T) / 2)
    return math.sqrt(np.sum(np.log(vals) ** 2))


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.kind)
def test_pair_dist2_rows_equal_per_pair_distances(space):
    rng = np.random.default_rng(31)
    A = np.stack([random_object(space, rng) for _ in range(12)])
    B = np.stack([random_object(space, rng) for _ in range(12)])
    if space.kind == spaces.SPHERE:  # and pairs 1e-12 to 1e-6 apart
        for k, eps in enumerate((1e-12, 1e-10, 1e-8, 1e-6)):
            t = rng.normal(size=space.dim)
            t -= (t @ A[k]) * A[k]
            B[k] = sphere_exp(A[k], eps * t / np.linalg.norm(t))
    d = np.sqrt(spaces.pair_dist2(space, A, B))
    assert d.shape == (12,)
    for dk, a, b in zip(d, A, B):
        assert dk == pytest.approx(distance(space, a, b), rel=1e-15, abs=0)
        assert dk == pytest.approx(_pair_distance(space, a, b), rel=1e-15,
                                   abs=0)
    assert np.array_equal(spaces.pair_dist2(space, A[:0], B[:0]), [])
    # one object against every row, as dist2_to_point asks
    assert np.array_equal(spaces.pair_dist2(space, A, B[:1]),
                          spaces.pair_dist2(space, A, np.repeat(B[:1], 12,
                                                                axis=0)))
    with pytest.raises(ValueError, match="shape mismatch"):
        spaces.pair_dist2(space, A, B[:-1])


@pytest.mark.parametrize("space", ALL_SPACES[:2], ids=lambda s: s.kind)
def test_embedded_dist2_to_point_keeps_its_former_bits(space):
    # the embedded spaces' own formulas before they went through pair_dist2
    rng = np.random.default_rng(37)
    ystack = np.stack([random_object(space, rng) for _ in range(30)])
    for y in ystack[:5]:
        if space.kind == spaces.WASSERSTEIN:
            ref = 1.0 / space.dim * np.sum((ystack - y) ** 2, axis=1)
        else:
            ref = np.sum((embed(space, ystack) - embed(space, y[None])[0])
                         ** 2, axis=1)
        assert np.array_equal(spaces.dist2_to_point(space, ystack, y), ref)


def test_pair_dist2_rejects_a_matrix_that_is_not_positive_definite():
    space = spd_space(2, "affine")
    A = np.stack([np.eye(2), np.eye(2)])
    B = np.stack([np.eye(2), -np.eye(2)])
    with pytest.raises(ValueError, match="not positive definite"):
        spaces.pair_dist2(space, A, B)
    with pytest.raises(ValueError, match="not positive definite"):
        spaces.pair_dist2(space, B, A)
