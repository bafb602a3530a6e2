"""Metric-space geometries and weighted Frechet-mean solvers.

Four response spaces are supported:

* ``wasserstein`` -- one-dimensional distributions represented by their
  quantile function evaluated on a fixed grid of ``m`` levels.
* ``spd_logcholesky`` -- symmetric positive-definite matrices with the
  Log-Cholesky distance.
* ``spd_affine`` -- SPD matrices with the affine-invariant distance.
* ``sphere`` -- unit vectors with the great-circle (geodesic) distance.

The first two spaces admit a global Euclidean embedding in which the metric
is the ordinary Euclidean distance, so weighted means reduce to weighted
averages in the embedding.  The sphere and the affine-invariant geometry are
genuinely curved and use an iterative Riemannian descent solver.
``weighted_frechet_means`` solves many weight rows over one stack; on the
sphere it runs one vectorised descent, which agrees with the single-problem
``weighted_frechet_mean`` within 1e-6.

Objects are plain numpy arrays: a length-``m`` nondecreasing vector, an
``m x m`` SPD matrix, or a unit vector.  Collections of objects are stacked
along the first axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

WASSERSTEIN = "wasserstein"
SPD_LOGCHOLESKY = "spd_logcholesky"
SPD_AFFINE = "spd_affine"
SPHERE = "sphere"

KINDS = (WASSERSTEIN, SPD_LOGCHOLESKY, SPD_AFFINE, SPHERE)

_SYM_TOL = 1e-10
_UNIT_TOL = 1e-10


@dataclass(frozen=True)
class MetricSpace:
    """Descriptor of a response metric space.

    ``dim`` is the quantile-grid size, the matrix order, or the ambient
    dimension of the sphere.  ``normalization`` selects the quadrature weight
    of the Wasserstein distance: ``"riemann"`` divides the squared grid
    differences by ``dim`` (a Riemann sum over [0, 1]), ``"euclidean"`` uses
    the raw Euclidean distance between quantile vectors.
    """

    kind: str
    dim: int
    normalization: str = "riemann"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric space kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("space dimension must be >= 1")
        if self.normalization not in ("riemann", "euclidean"):
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def shape(self) -> tuple:
        """Array shape of one object of the space."""
        if self.kind in (SPD_LOGCHOLESKY, SPD_AFFINE):
            return (self.dim, self.dim)
        return (self.dim,)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim,
                "normalization": self.normalization}

    @staticmethod
    def from_dict(d: dict) -> "MetricSpace":
        return MetricSpace(d["kind"], int(d["dim"]),
                           d.get("normalization", "riemann"))


def wasserstein_space(grid_size: int = 21,
                      normalization: str = "riemann") -> MetricSpace:
    return MetricSpace(WASSERSTEIN, grid_size, normalization)


def spd_space(order: int, metric: str = "logcholesky") -> MetricSpace:
    kind = SPD_LOGCHOLESKY if metric == "logcholesky" else SPD_AFFINE
    return MetricSpace(kind, order)


def sphere_space(ambient_dim: int = 3) -> MetricSpace:
    return MetricSpace(SPHERE, ambient_dim)


# ---------------------------------------------------------------------------
# object validation


def validate_object(space: MetricSpace, y: np.ndarray) -> np.ndarray:
    """Check a single object against its space invariants.

    Returns the validated array (as float ndarray).  Raises ValueError on a
    shape mismatch or invariant violation.
    """
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("object has non-finite entries")
    if y.shape != space.shape:
        raise ValueError(f"expected shape {space.shape}, got {y.shape}")
    if space.kind == WASSERSTEIN:
        if np.any(np.diff(y) < -1e-9):
            raise ValueError("quantile vector is not nondecreasing")
    elif space.kind in (SPD_LOGCHOLESKY, SPD_AFFINE):
        if np.max(np.abs(y - y.T)) > max(_SYM_TOL, _SYM_TOL * np.abs(y).max()):
            raise ValueError("matrix is not symmetric")
        # positive definiteness checked by the Cholesky factorization
        cholesky_factor(y)
    elif space.kind == SPHERE:
        if abs(np.linalg.norm(y) - 1.0) > 100 * _UNIT_TOL:
            raise ValueError("vector does not have unit norm")
    return y


# ---------------------------------------------------------------------------
# SPD primitives


def cholesky_factor(y: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor with positive diagonal."""
    try:
        return np.linalg.cholesky(np.asarray(y, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def matrix_log(y: np.ndarray) -> np.ndarray:
    """Logarithm of an SPD matrix via symmetric eigendecomposition."""
    y = np.asarray(y, dtype=float)
    if np.max(np.abs(y - y.T)) > max(_SYM_TOL, _SYM_TOL * np.abs(y).max()):
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(y)
    if vals[0] <= 0:
        raise ValueError("matrix is not positive definite")
    return (vecs * np.log(vals)) @ vecs.T


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Exponential of a symmetric matrix; the result is SPD."""
    a = np.asarray(a, dtype=float)
    if np.max(np.abs(a - a.T)) > max(_SYM_TOL, _SYM_TOL * np.abs(a).max()):
        raise ValueError("matrix is not symmetric")
    return _sym_exp(a)


def _sym_exp(a: np.ndarray) -> np.ndarray:
    """``matrix_exp`` without its symmetry check."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(vals)) @ vecs.T


def _sqrt_and_invsqrt(y: np.ndarray):
    vals, vecs = np.linalg.eigh(y)
    if vals[0] <= 0:
        raise ValueError("matrix is not positive definite")
    s = np.sqrt(vals)
    return (vecs * s) @ vecs.T, (vecs / s) @ vecs.T


# ---------------------------------------------------------------------------
# sphere primitives


def _norm(x: np.ndarray):
    """``np.linalg.norm`` of a contiguous vector, without its call overhead.

    The same arithmetic, bit for bit: the square root of ``x.dot(x)``.
    """
    return np.sqrt(x.dot(x))


def sphere_exp(base: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Riemannian exponential map on the unit sphere."""
    base = np.asarray(base, dtype=float)
    tangent = np.ascontiguousarray(tangent, dtype=float)
    if abs(base @ tangent) > 1e-8 * (1.0 + _norm(tangent)):
        raise ValueError("tangent vector is not orthogonal to the base point")
    return _sphere_exp(base, tangent)


def _sphere_exp(base: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """``sphere_exp`` of float vectors, ``tangent`` contiguous, unchecked."""
    norm = _norm(tangent)
    if norm < 1e-15:
        return base.copy()
    out = np.cos(norm) * base + np.sin(norm) * tangent / norm
    return out / _norm(out)


def sphere_log(base: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Riemannian log map; the returned tangent has the geodesic length."""
    base = np.asarray(base, dtype=float)
    target = np.asarray(target, dtype=float)
    dot = float(np.clip(base @ target, -1.0, 1.0))
    if dot <= -1.0 + 1e-12:
        raise ValueError("antipodal points: geodesic is not unique")
    proj = target - dot * base
    norm = np.linalg.norm(proj)
    if norm < 1e-15:
        return np.zeros_like(base)
    return np.arccos(dot) * proj / norm


def _sphere_logs(base: np.ndarray, targets: np.ndarray, dots=None,
                 theta=None) -> np.ndarray:
    """Log map of a stack of points, without the antipodal check.

    ``dots`` and ``theta``, the clipped inner products with ``base`` and
    their arccosines, are computed unless the caller already has them.
    """
    if dots is None:
        dots = np.clip(targets @ base, -1.0, 1.0)
        theta = np.arccos(dots)
    proj = targets - dots[:, None] * base
    # np.linalg.norm(proj, axis=1), bit for bit
    norms = np.sqrt(np.add.reduce(proj * proj, axis=1))
    scale = np.where(norms > 1e-15, theta / np.maximum(norms, 1e-300), 0.0)
    return scale[:, None] * proj


# ---------------------------------------------------------------------------
# isotonic projection


def isotonic_project(values: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the nondecreasing cone (PAVA)."""
    v = np.asarray(values, dtype=float)
    n = v.size
    # pooled blocks: (sum, count); merge backwards while means decrease
    sums = np.empty(n)
    counts = np.empty(n, dtype=np.intp)
    k = 0
    for x in v:
        sums[k] = x
        counts[k] = 1
        k += 1
        while (k > 1 and sums[k - 1] * counts[k - 2]
               < sums[k - 2] * counts[k - 1]):
            sums[k - 2] += sums[k - 1]
            counts[k - 2] += counts[k - 1]
            k -= 1
    out = np.empty(n)
    pos = 0
    for b in range(k):
        out[pos:pos + counts[b]] = sums[b] / counts[b]
        pos += counts[b]
    return out


# ---------------------------------------------------------------------------
# distances


def _wasserstein_scale(space: MetricSpace) -> float:
    return 1.0 / space.dim if space.normalization == "riemann" else 1.0


def distance(space: MetricSpace, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two objects of the space."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if space.kind == WASSERSTEIN:
        return float(np.sqrt(_wasserstein_scale(space) * np.sum((a - b) ** 2)))
    if space.kind == SPHERE:
        # half-angle form: exact for nearby points, where arccos of the dot
        # product cannot resolve angles below about 1.5e-8
        return float(2.0 * np.arctan2(np.linalg.norm(a - b),
                                      np.linalg.norm(a + b)))
    if space.kind == SPD_LOGCHOLESKY:
        ea, eb = embed(space, np.stack([a, b]))
        return float(np.linalg.norm(ea - eb))
    # affine-invariant
    _, isq = _sqrt_and_invsqrt(a)
    mid = isq @ b @ isq
    vals = np.linalg.eigvalsh((mid + mid.T) / 2.0)
    if vals[0] <= 0:
        raise ValueError("matrix is not positive definite")
    return float(np.sqrt(np.sum(np.log(vals) ** 2)))


def dist2_to_point(space: MetricSpace, ystack: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """Squared distances from every stacked object to ``y``."""
    y = np.asarray(y, dtype=float)
    if space.kind == WASSERSTEIN:
        return _wasserstein_scale(space) * np.sum((ystack - y) ** 2, axis=1)
    if space.kind == SPHERE:
        # not the arctan2 form: last bits of split sums decide mirrored ties
        return np.arccos(np.minimum(np.maximum(ystack @ y, -1.0), 1.0)) ** 2
    if space.kind == SPD_LOGCHOLESKY:
        e = embed(space, ystack)
        ey = embed(space, y[None])[0]
        return np.sum((e - ey) ** 2, axis=1)
    _, isq = _sqrt_and_invsqrt(y)
    mids = np.einsum("ij,njk,kl->nil", isq, ystack, isq)
    mids = (mids + np.swapaxes(mids, 1, 2)) / 2.0
    vals = np.linalg.eigvalsh(mids)
    return np.sum(np.log(np.maximum(vals, 1e-300)) ** 2, axis=1)


# ---------------------------------------------------------------------------
# Euclidean embeddings (Wasserstein, Log-Cholesky)


def has_embedding(space: MetricSpace) -> bool:
    return space.kind in (WASSERSTEIN, SPD_LOGCHOLESKY)


@lru_cache(maxsize=None)
def _tril(m: int):
    """Strictly-lower-triangle indices of an ``m x m`` matrix."""
    return np.tril_indices(m, -1)


def embed(space: MetricSpace, ystack: np.ndarray) -> np.ndarray:
    """Isometric Euclidean embedding of a stack of objects."""
    if space.kind == WASSERSTEIN:
        return (np.sqrt(_wasserstein_scale(space))
                * np.asarray(ystack, dtype=float))
    if space.kind == SPD_LOGCHOLESKY:
        L = cholesky_factor(ystack)
        m = space.dim
        tril = _tril(m)
        diag = np.arange(m)
        return np.concatenate(
            [L[:, tril[0], tril[1]], np.log(L[:, diag, diag])], axis=1)
    raise ValueError(f"space {space.kind} has no Euclidean embedding")


def unembed(space: MetricSpace, e: np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed`; accepts a single vector or a stack."""
    e = np.asarray(e, dtype=float)
    if space.kind == WASSERSTEIN:
        return e / np.sqrt(_wasserstein_scale(space))
    if space.kind == SPD_LOGCHOLESKY:
        if e.ndim == 2:
            return np.stack([unembed(space, row) for row in e])
        m = space.dim
        L = np.zeros((m, m))
        tril = _tril(m)
        k = tril[0].size
        L[tril] = e[:k]
        L[np.arange(m), np.arange(m)] = np.exp(e[k:])
        return L @ L.T
    raise ValueError(f"space {space.kind} has no Euclidean embedding")


# ---------------------------------------------------------------------------
# weighted Frechet means


def frechet_objective(space: MetricSpace, ystack: np.ndarray,
                      weights: np.ndarray, y: np.ndarray) -> float:
    """Weighted sum of squared distances ``sum_i w_i d^2(Y_i, y)``."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(ystack):
        raise ValueError("weights and objects have different lengths")
    return float(weights @ dist2_to_point(space, ystack, y))


def weighted_frechet_mean(space: MetricSpace, ystack: np.ndarray,
                          weights: np.ndarray, return_info: bool = False):
    """Minimizer of the weighted Frechet objective.

    Weights may be signed (local-linear estimators produce signed weights)
    but must have a positive total.  For the embedded spaces the minimizer is
    the weighted average in the embedding; the quantile result is projected
    back onto the nondecreasing cone, which is only active for signed
    weights.  Curved spaces run one Riemannian descent with step halving
    from one start, under signed weights too.  Non-finite weights or
    objects raise ``ValueError``.  Objects with weight exactly zero are
    dropped before solving: they add nothing to the objective or to its
    gradient.
    """
    ystack = np.asarray(ystack, dtype=float)
    w = np.asarray(weights, dtype=float)
    if len(w) != len(ystack):
        raise ValueError("weights and objects have different lengths")
    total = w.sum()
    # a sum is non-finite when any term is (or when it overflows), which
    # is much cheaper than an elementwise test on every call
    if not (np.isfinite(total) and np.isfinite(ystack.sum())):
        raise ValueError("weights and objects must be finite")
    if total <= 0 or not np.any(w != 0):
        raise ValueError("total weight must be positive")
    wn = w / total
    support = wn != 0
    if not support.all():
        ystack, wn = ystack[support], wn[support]

    info = {"converged": True, "iterations": 0}
    if space.kind == WASSERSTEIN:
        out = isotonic_project(wn @ ystack)
    elif space.kind == SPD_LOGCHOLESKY:
        out = unembed(space, wn @ embed(space, ystack))
    elif space.kind == SPHERE:
        out, info = _sphere_solve(ystack, wn, _sphere_start(ystack, wn))
    else:
        out, info = _affine_solve(ystack, wn,
                                  _logchol_start(space, ystack, wn))
    if return_info:
        return out, info
    return out


def sum_sq_to_mean(space: MetricSpace, ystack: np.ndarray):
    """``(sum, mean)``: the sum of squared distances from the objects to
    their Frechet mean, and that mean.

    This is the node impurity of tree growth.  A partition and its mirror
    image on another feature score gains that tie up to rounding, and the
    last bit of these sums decides between them, so the affine space keeps
    the square-root form of the descent here: fitted trees stay identical
    to those of earlier versions.  ``weighted_frechet_mean`` uses the
    faster moving-frame form, which agrees to rounding.

    The mean is ``weighted_frechet_mean``'s under equal weights, bit for
    bit, or in the affine space the square-root descent's final iterate.
    """
    ystack = np.asarray(ystack, dtype=float)
    w = np.ones(len(ystack))
    if space.kind != SPD_AFFINE:
        mean = weighted_frechet_mean(space, ystack, w)
        ss = frechet_objective(space, ystack, w, mean)
    else:
        wn = w / w.sum()
        dist2, mean = _affine_sqrt_dist2(ystack, wn,
                                         _logchol_start(space, ystack, wn))
        ss = float(w @ dist2)
    return ss, mean


def weighted_frechet_means(space: MetricSpace, ystack: np.ndarray,
                           W: np.ndarray) -> np.ndarray:
    """The weighted Frechet means over ``ystack`` of every row of ``W``.

    ``W`` is K x n, one weight row per problem over the same n objects.
    Each row is the problem of :func:`weighted_frechet_mean`, with its
    checks and error messages.  On the sphere one vectorised descent solves
    all rows: ``_descend``'s policy with a step per row, from
    ``_sphere_start``'s start, a row frozen once it has converged.  It
    agrees with the single solve to rounding, and a row's result does not
    depend on the other rows of the batch.  Other spaces solve row by row
    with :func:`weighted_frechet_mean`.  K = 0 gives an empty array.
    """
    ystack = np.asarray(ystack, dtype=float)
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != len(ystack):
        raise ValueError("weights and objects have different lengths")
    if not len(W):
        return np.empty((0,) + space.shape)
    if space.kind != SPHERE:
        return np.stack([weighted_frechet_mean(space, ystack, w) for w in W])
    totals = W.sum(axis=1)
    finite = np.isfinite(totals) & np.isfinite(ystack.sum())
    ok = finite & (totals > 0) & np.any(W != 0, axis=1)
    if not ok.all():  # the first failing row's message, as row by row
        k = int(np.argmin(ok))
        raise ValueError("weights and objects must be finite" if not finite[k]
                         else "total weight must be positive")
    # blocks of rows bound the (rows, n) working arrays of the descent
    rows = max(1, _BLOCK_ENTRIES // len(ystack))
    return np.concatenate([
        _sphere_solve_rows(ystack, W[s:s + rows] / totals[s:s + rows, None])[0]
        for s in range(0, len(W), rows)])


_BLOCK_ENTRIES = 4096
_MAX_ITER = 200
_OBJ_TOL = 1e-10
_GRAD_TOL = 1e-14
_STEP_FLOOR = 1e-12


def _descend(gradient, line, state, cur: float):
    """Riemannian descent with step halving, shared by every curved solve.

    A geometry supplies the start ``state`` with its objective ``cur``,
    ``gradient(state)``, and ``line(state, v)``, which returns the
    candidate ``step -> (objective, state)`` along the negative gradient
    ``v``.  The solve converges at a gradient norm below ``_GRAD_TOL``;
    otherwise a step is halved until the objective drops (down to
    ``_STEP_FLOOR``, below which the solve stops), and the next iteration
    starts from twice the accepted step, capped at 1.  It also stops when
    an accepted step improves by less than ``_OBJ_TOL``, and unconverged
    after ``_MAX_ITER`` iterations.  Returns the final state and the solver
    info.  ``_sphere_solve_rows`` applies the same policy to many rows.
    """
    step = 1.0
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        v = gradient(state)
        if _norm(v.ravel(order="K")) < _GRAD_TOL:
            converged = True
            break
        candidate = line(state, v)
        while step >= _STEP_FLOOR:
            cand_obj, cand_state = candidate(step)
            if cand_obj < cur:
                break
            step *= 0.5
        else:
            converged = True
            break
        improvement = cur - cand_obj
        state, cur = cand_state, cand_obj
        step = min(1.0, 2.0 * step)
        if improvement < _OBJ_TOL:
            converged = True
            break
    return state, {"converged": converged, "iterations": it, "objective": cur}


# --- sphere


def _sphere_start(ystack: np.ndarray, wn: np.ndarray) -> np.ndarray:
    extrinsic = wn @ ystack
    norm = _norm(extrinsic)
    if norm < 1e-6:
        return ystack[int(np.argmax(wn))].copy()
    return extrinsic / norm


def _sphere_solve(ystack: np.ndarray, wn: np.ndarray, y: np.ndarray):
    """Sphere descent; the state is the iterate ``p`` with its angles.

    ``dots = clip(ystack @ p, -1, 1)`` and ``theta = arccos(dots)`` give
    the objective ``wn @ theta**2``, and the gradient at an accepted
    candidate reuses them instead of computing them again.
    """
    def evaluate(p):
        # clip without np.clip's overhead; not the arctan2 form: last bits
        # of split sums decide mirrored ties
        dots = np.minimum(np.maximum(ystack @ p, -1.0), 1.0)
        theta = np.arccos(dots)
        return float(wn @ theta ** 2), (p, dots, theta)

    def gradient(state):
        p, dots, theta = state
        v = wn @ _sphere_logs(p, ystack, dots, theta)
        v -= (v @ p) * p
        return v

    def line(state, v):
        p = state[0]

        def candidate(step):
            return evaluate(_sphere_exp(p, step * v))
        return candidate

    cur, state = evaluate(y)
    (p, _, _), info = _descend(gradient, line, state, cur)
    return p, info


def _sphere_solve_rows(ystack: np.ndarray, wn: np.ndarray):
    """``_sphere_solve`` from ``_sphere_start`` for every row of ``wn``.

    Each row keeps its own iterate, angles, objective and step; an
    iteration works on the rows that have not converged.  Only elementwise
    products and row sums are used, never a matrix product, so no
    (K, n, d) array is built and a row's arithmetic does not depend on the
    other rows.  The gradient ``sum_i c_i (Y_i - dots_i p)`` uses ``c_i =
    wn_i theta_i / sin(theta_i)`` (0 where the sine is below 1e-15, as
    ``_sphere_logs`` treats a vanishing projection).  Returns the means and
    the per-row arrays ``converged``, ``iterations`` and ``objective``.
    """
    d = ystack.shape[1]

    def combine(c):  # sum_i c_ri Y_i, shape (r, d)
        return np.stack([np.add.reduce(c * ystack[:, j], axis=1)
                         for j in range(d)], axis=1)

    def evaluate(p, rows):
        dots = ystack[:, 0] * p[:, :1]
        for j in range(1, d):
            dots += ystack[:, j] * p[:, j:j + 1]
        dots = np.minimum(np.maximum(dots, -1.0), 1.0)
        theta = np.arccos(dots)
        return np.add.reduce(wn[rows] * theta ** 2, axis=1), dots, theta

    def row_norms(v):
        return np.sqrt(np.add.reduce(v * v, axis=1))

    extrinsic = combine(wn)
    norm = row_norms(extrinsic)
    far = norm < 1e-6
    p = extrinsic / np.where(far, 1.0, norm)[:, None]
    if far.any():
        top = np.argmax(wn[far], axis=1)
        p[far] = ystack[top]
    cur, dots, theta = evaluate(p, slice(None))
    step = np.ones(len(wn))
    converged = np.zeros(len(wn), dtype=bool)
    iterations = np.zeros(len(wn), dtype=int)
    for it in range(1, _MAX_ITER + 1):
        a = np.flatnonzero(~converged)
        if not a.size:
            break
        iterations[a] = it
        sin = np.sin(theta[a])
        c = wn[a] * np.divide(theta[a], sin, out=np.zeros_like(sin),
                              where=sin > 1e-15)
        v = combine(c) - np.add.reduce(c * dots[a], axis=1)[:, None] * p[a]
        v -= np.add.reduce(v * p[a], axis=1)[:, None] * p[a]
        flat = row_norms(v) < _GRAD_TOL
        converged[a[flat]] = True
        a, v = a[~flat], v[~flat]
        while a.size:  # step halving, the rows that have not moved yet
            t = step[a, None] * v
            tn = row_norms(t)
            moves = tn >= 1e-15
            cand = (np.cos(tn)[:, None] * p[a] + np.sin(tn)[:, None] * t
                    / np.where(moves, tn, 1.0)[:, None])
            cand /= row_norms(cand)[:, None]
            cand[~moves] = p[a[~moves]]
            obj, cand_dots, cand_theta = evaluate(cand, a)
            down = obj < cur[a]
            r = a[down]
            converged[r[cur[r] - obj[down] < _OBJ_TOL]] = True
            p[r], dots[r], theta[r], cur[r] = (cand[down], cand_dots[down],
                                               cand_theta[down], obj[down])
            step[r] = np.minimum(1.0, 2.0 * step[r])
            a, v = a[~down], v[~down]
            step[a] *= 0.5
            floor = step[a] < _STEP_FLOOR
            converged[a[floor]] = True
            a, v = a[~floor], v[~floor]
    return p, converged, iterations, cur


# --- affine-invariant SPD


def _logchol_start(space: MetricSpace, ystack: np.ndarray, wn: np.ndarray):
    logchol = MetricSpace(SPD_LOGCHOLESKY, space.dim)
    return unembed(logchol, wn @ embed(logchol, ystack))


def _whitened_obj(Z: np.ndarray, wn: np.ndarray):
    """Objective of a whitened stack, with the ``eigh`` of its logs."""
    vals, vecs = np.linalg.eigh(Z)
    lv = np.log(np.maximum(vals, 1e-300))
    return float(wn @ np.sum(lv ** 2, axis=1)), (lv, vecs)


def _affine_solve(ystack: np.ndarray, wn: np.ndarray, y: np.ndarray):
    """Affine-invariant descent in a moving frame.

    The state is a frame ``G`` with ``y = G G^T``, the stack whitened by
    it, ``Z_i = G^-1 Y_i G^-T``, and the ``eigh`` of ``Z_i``: the objective
    is ``sum_i w_i |log eig(Z_i)|^2``, the gradient (built when asked for)
    ``sum_i w_i log Z_i`` in that frame.  Each iteration diagonalises the
    gradient once, ``V = U diag(lam) U^T``, and rotates the stack to
    ``W_i = U^T Z_i U``; a step of size ``t`` moves the frame to ``G U D``
    with ``D = diag(exp(t lam / 2))`` and the stack to ``D^-1 W_i D^-1``,
    so each step-halving candidate costs one batched ``eigh``.
    """
    def gradient(state):
        lv, vecs = state[2]
        logs = (vecs * lv[:, None, :]) @ np.swapaxes(vecs, 1, 2)
        return np.einsum("n,nij->ij", wn, logs)

    def line(state, v):
        G, Z, _ = state
        lam, U = np.linalg.eigh((v + v.T) / 2.0)
        W = U.T @ Z @ U
        W = (W + np.swapaxes(W, 1, 2)) / 2.0
        GU = G @ U

        def candidate(step):
            with np.errstate(over="ignore"):
                d = np.exp(step * lam / 2.0)
                dd = np.outer(d, d)
            if not np.isfinite(dd).all():
                return np.inf, None  # an overflowing step: halve it
            cand = W / dd
            cand_obj, cand_eig = _whitened_obj(cand, wn)
            return cand_obj, (GU * d, cand, cand_eig)
        return candidate

    G = np.linalg.cholesky(y)
    Ginv = np.linalg.inv(G)
    Z = Ginv @ ystack @ Ginv.T
    Z = (Z + np.swapaxes(Z, 1, 2)) / 2.0
    cur, eig = _whitened_obj(Z, wn)
    (G, _, _), info = _descend(gradient, line, (G, Z, eig), cur)
    y = G @ G.T
    return (y + y.T) / 2.0, info


def _affine_sqrt_dist2(ystack: np.ndarray, wn: np.ndarray, y: np.ndarray):
    """Unsigned affine descent in square-root form, as in earlier versions.

    Takes the same steps as ``_affine_solve``, moving the iterate to
    ``y^1/2 exp(t V) y^1/2`` with ``V`` the gradient whitened by ``y^-1/2``,
    and returns the squared distances from the objects to the final
    iterate, bit for bit those of ``dist2_to_point``, and that iterate.
    The state is those distances, the whitened stack, ``y^1/2`` and ``y``.
    """
    def obj_and_state(p):
        sq, isq = _sqrt_and_invsqrt(p)
        mids = np.einsum("ij,njk,kl->nil", isq, ystack, isq)
        mids = (mids + np.swapaxes(mids, 1, 2)) / 2.0
        dist2 = np.sum(np.log(np.maximum(np.linalg.eigvalsh(mids), 1e-300))
                       ** 2, axis=1)
        return float(wn @ dist2), (dist2, mids, sq, p)

    def gradient(state):
        vals, vecs = np.linalg.eigh(state[1])
        logs = np.einsum("...ij,...j,...kj->...ik", vecs, np.log(vals), vecs)
        return np.einsum("n,nij->ij", wn, logs)

    def line(state, v):
        sq, sym = state[2], v + v.T

        def candidate(step):
            cand = sq @ _sym_exp(step * sym / 2.0) @ sq
            return obj_and_state((cand + cand.T) / 2.0)
        return candidate

    cur, state = obj_and_state(y)
    (dist2, _, _, y), _ = _descend(gradient, line, state, cur)
    return dist2, y
