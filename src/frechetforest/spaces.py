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
Both supply only a gradient and candidates to one step-halving policy,
``_descend`` for one solve and ``_descend_rows`` for many rows.
``weighted_frechet_means`` solves many weight rows over one stack; on the
sphere it runs one vectorised descent, which agrees with the single-problem
``weighted_frechet_mean`` within 1e-6.
``sum_sq_to_means`` gives the split sums of many index sets, and alone
decides how: in the affine space one square-root descent solves them as
rows, each bit for bit its own single solve; elsewhere set by set.
``solves_sets_together`` says which, so that ``tree.grow_trees`` grows a
forest in lockstep rounds only where one call then saves descents.
Every batch bounds its working arrays by ``_BLOCK_ENTRIES`` array entries.

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
    dimension of the sphere.  The squared Wasserstein distance is a Riemann
    sum: the squared quantile differences summed and divided by ``dim``.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric space kind {self.kind!r}")
        if type(self.dim) is not int or self.dim < 1:  # a bool is no dim
            raise ValueError(f"space dimension must be an integer >= 1, "
                             f"got {self.dim!r}")

    @property
    def shape(self) -> tuple:
        """Array shape of one object of the space."""
        if self.kind in (SPD_LOGCHOLESKY, SPD_AFFINE):
            return (self.dim, self.dim)
        return (self.dim,)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    @staticmethod
    def from_dict(d: dict) -> "MetricSpace":
        return MetricSpace(d["kind"], d["dim"])


def wasserstein_space(grid_size: int = 21) -> MetricSpace:
    return MetricSpace(WASSERSTEIN, grid_size)


def spd_space(order: int, metric: str = "logcholesky") -> MetricSpace:
    kinds = {"logcholesky": SPD_LOGCHOLESKY, "affine": SPD_AFFINE}
    if metric not in kinds:
        raise ValueError(f"unknown SPD metric {metric!r}")
    return MetricSpace(kinds[metric], order)


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
        _check_symmetric(y)
        # positive definiteness checked by the Cholesky factorization
        cholesky_factor(y)
    elif space.kind == SPHERE:
        if abs(np.linalg.norm(y) - 1.0) > 100 * _UNIT_TOL:
            raise ValueError("vector does not have unit norm")
    return y


# ---------------------------------------------------------------------------
# SPD primitives


def _check_symmetric(y: np.ndarray) -> np.ndarray:
    """``y``, or ``ValueError`` if it is not symmetric to ``_SYM_TOL``."""
    if np.max(np.abs(y - y.T)) > max(_SYM_TOL, _SYM_TOL * np.abs(y).max()):
        raise ValueError("matrix is not symmetric")
    return y


def cholesky_factor(y: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor with positive diagonal."""
    try:
        return np.linalg.cholesky(np.asarray(y, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc


def matrix_log(y: np.ndarray) -> np.ndarray:
    """Logarithm of an SPD matrix via symmetric eigendecomposition."""
    y = _check_symmetric(np.asarray(y, dtype=float))
    vals, vecs = np.linalg.eigh(y)
    if vals[0] <= 0:
        raise ValueError("matrix is not positive definite")
    return (vecs * np.log(vals)) @ vecs.T


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Exponential of a symmetric matrix; the result is SPD."""
    a = _check_symmetric(np.asarray(a, dtype=float))
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(vals)) @ vecs.T


def _invsqrt(y: np.ndarray) -> np.ndarray:
    """Inverse square root of an SPD matrix, or of each matrix of a stack."""
    vals, vecs = np.linalg.eigh(y)
    if np.any(vals[..., 0] <= 0):
        raise ValueError("matrix is not positive definite")
    return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


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
    if base @ target <= -1.0 + 1e-12:
        raise ValueError("antipodal points: geodesic is not unique")
    return _sphere_logs(base, target[None])[0]


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


def distance(space: MetricSpace, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two objects of the space."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(pair_dist2(space, a[None], b[None])[0]))


def pair_dist2(space: MetricSpace, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances ``d^2(A_k, B_k)`` between the rows of two stacks;
    a ``B`` of one row is compared with every row of ``A``."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[1:] != B.shape[1:] or len(B) not in (1, len(A)):
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if space.kind == WASSERSTEIN:
        return 1.0 / space.dim * np.sum((A - B) ** 2, axis=1)
    if space.kind == SPHERE:
        # half-angle form: exact for nearby points, where arccos of the dot
        # product cannot resolve angles below about 1.5e-8
        return (2.0 * np.arctan2(np.linalg.norm(A - B, axis=1),
                                 np.linalg.norm(A + B, axis=1))) ** 2
    if space.kind == SPD_LOGCHOLESKY:
        return np.sum((embed(space, A) - embed(space, B)) ** 2, axis=1)
    # affine-invariant
    isq = _invsqrt(A)
    mid = isq @ B @ isq
    vals = np.linalg.eigvalsh((mid + np.swapaxes(mid, 1, 2)) / 2.0)
    if np.any(vals[:, 0] <= 0):
        raise ValueError("matrix is not positive definite")
    return np.sum(np.log(vals) ** 2, axis=1)


def dist2_to_point(space: MetricSpace, ystack: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """Squared distances from every stacked object to ``y``."""
    y = np.asarray(y, dtype=float)
    if space.kind == SPHERE:
        # not the arctan2 form: last bits of split sums decide mirrored ties
        return np.arccos(np.minimum(np.maximum(ystack @ y, -1.0), 1.0)) ** 2
    if space.kind == SPD_AFFINE:  # the form _affine_sqrt_dist2_rows matches
        isq = _invsqrt(y)
        mids = np.einsum("ij,njk,kl->nil", isq, ystack, isq)
        mids = (mids + np.swapaxes(mids, 1, 2)) / 2.0
        vals = np.linalg.eigvalsh(mids)
        return np.sum(np.log(np.maximum(vals, 1e-300)) ** 2, axis=1)
    return pair_dist2(space, ystack, y[None])


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
        return (np.sqrt(1.0 / space.dim)
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
        return e / np.sqrt(1.0 / space.dim)
    if space.kind == SPD_LOGCHOLESKY:
        m = space.dim
        tril, diag = _tril(m), np.arange(m)
        L = np.zeros(e.shape[:-1] + (m, m))
        L[..., tril[0], tril[1]] = e[..., :tril[0].size]
        L[..., diag, diag] = np.exp(e[..., tril[0].size:])
        return L @ np.swapaxes(L, -1, -2)
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
    if total <= 0:
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


def solves_sets_together(space: MetricSpace) -> bool:
    """Whether :func:`sum_sq_to_means` solves a list of sets in fewer
    descents than sets, so that queueing more sets per call saves work."""
    return space.kind == SPD_AFFINE


def sum_sq_to_means(space: MetricSpace, ystack: np.ndarray, sets) -> list:
    """``(sum, mean)`` of ``ystack[idx]`` under equal weights, for each
    index array in the list ``sets``: the sum of squared distances to the
    Frechet mean, the node impurity of tree growth, and that mean.

    Only here is it decided how the list is solved.  Mirrored partitions
    on two features tie up to rounding, and the last bit of these sums
    decides between them, so the affine space keeps the square-root form
    of the descent (``weighted_frechet_mean`` uses the faster moving-frame
    form, which agrees to rounding): one descent solves each block of
    about ``_BLOCK_ENTRIES`` matrix entries (``dim**2`` per object), a set
    per row, and a mean is its final iterate.  Elsewhere each set is
    solved alone, and its mean is ``weighted_frechet_mean``'s, bit for
    bit.  :func:`solves_sets_together` tells which.
    """
    ystack = np.asarray(ystack, dtype=float)
    out = []
    if not solves_sets_together(space):
        for idx in sets:
            ys, w = ystack[idx], np.ones(len(idx))
            mean = weighted_frechet_mean(space, ys, w)
            out.append((frechet_objective(space, ys, w, mean), mean))
        return out
    sizes = np.array([len(idx) for idx in sets], dtype=int)
    block = (np.cumsum(sizes) - sizes) * space.dim ** 2 // _BLOCK_ENTRIES
    for b in dict.fromkeys(block.tolist()):  # np.unique would load numpy.ma
        stacks = [ystack[sets[i]] for i in np.flatnonzero(block == b)]
        wns = [np.ones(len(ys)) / len(ys) for ys in stacks]
        out += [(float(np.ones(len(d)) @ d), mean)
                for d, mean in _affine_sqrt_dist2_rows(stacks, wns, [
                    _logchol_start(space, ys, wn)
                    for ys, wn in zip(stacks, wns)])]
    return out


def weighted_frechet_means(space: MetricSpace, ystack: np.ndarray,
                           rows) -> np.ndarray:
    """The weighted Frechet means over ``ystack`` of every weight row.

    ``rows`` yields one weight row per problem over the same n objects, in
    query order (a K x n array will do).  Each row is the problem of
    :func:`weighted_frechet_mean`, with its checks and messages, and the
    first failing row's error is raised, as query by query: the rows
    before a row whose production raises are solved first.  On the sphere
    one vectorised descent (:func:`_sphere_solve_rows`) solves all rows;
    it agrees with the single solve to rounding, and a row's result does
    not depend on the other rows.  Other spaces solve row by row with
    :func:`weighted_frechet_mean`.  No rows give an empty array.
    """
    ystack = np.asarray(ystack, dtype=float)
    W = []
    try:
        for w in rows:
            W.append(w)
    except Exception:
        weighted_frechet_means(space, ystack, W)  # may fail first
        raise
    if space.kind != SPHERE or not W:  # np.reshape keeps the shape of none
        return np.reshape([weighted_frechet_mean(space, ystack, w)
                           for w in W], (-1,) + space.shape)
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != len(ystack):
        raise ValueError("weights and objects have different lengths")
    totals = W.sum(axis=1)
    finite = np.isfinite(totals) & np.isfinite(ystack.sum())
    ok = finite & (totals > 0)
    if not ok.all():  # the first failing row's message, as row by row
        k = int(np.argmin(ok))
        raise ValueError("weights and objects must be finite" if not finite[k]
                         else "total weight must be positive")
    # blocks of rows bound the (rows, n) working arrays of the descent
    block, wn = max(1, _BLOCK_ENTRIES // len(ystack)), W / totals[:, None]
    return np.concatenate([_sphere_solve_rows(ystack, wn[s:s + block])[0]
                           for s in range(0, len(W), block)])


_BLOCK_ENTRIES = 4096  # array entries per block of a batched solve
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
    info.  :func:`_descend_rows` is this policy for many rows at once.
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


def _descend_rows(cur: np.ndarray, gradient, line):
    """:func:`_descend`'s policy for many rows, each with its own step.

    ``cur``, every row's start objective, is updated in place.  The
    geometry keeps the states: ``gradient(rows)`` stacks the gradients of
    ``rows``, and ``line(rows, steps, v)`` returns their candidate
    objectives at ``steps`` along ``-v`` and ``keep(moved)``, which moves
    ``rows[moved]`` to their candidates.  Row sums and elementwise steps
    keep a row's arithmetic free of the other rows.  Returns the per-row
    arrays ``converged`` and ``iterations``.
    """
    step, converged = np.ones(len(cur)), np.zeros(len(cur), dtype=bool)
    iterations = np.zeros(len(cur), dtype=int)
    for it in range(1, _MAX_ITER + 1):
        rows = np.flatnonzero(~converged)
        if not rows.size:
            break
        iterations[rows] = it
        v = gradient(rows)
        vv = (v * v).reshape(len(v), -1)
        flat = np.sqrt(np.add.reduce(vv, axis=1)) < _GRAD_TOL
        converged[rows[flat]] = True
        rows, v = rows[~flat], v[~flat]
        while rows.size:
            obj, keep = line(rows, step[rows], v)
            down = obj < cur[rows]
            moved = rows[down]
            converged[moved[cur[moved] - obj[down] < _OBJ_TOL]] = True
            cur[moved] = obj[down]
            keep(down)
            step[moved] = np.minimum(1.0, 2.0 * step[moved])
            step[rows[~down]] *= 0.5
            go = ~down & (step[rows] >= _STEP_FLOOR)
            converged[rows[~down & ~go]] = True
            rows, v = rows[go], v[go]
    return converged, iterations


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

    Under :func:`_descend_rows`, with elementwise products and row sums,
    never a matrix product, so no (K, n, d) array is built and a row's
    arithmetic does not depend on the other rows.  The gradient ``sum_i
    c_i (Y_i - dots_i p)`` uses ``c_i = wn_i theta_i / sin(theta_i)`` (0
    where the sine is below 1e-15, as ``_sphere_logs`` treats a vanishing
    projection).  Returns the means and the per-row arrays ``converged``,
    ``iterations`` and ``objective``.
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
        return np.add.reduce(wn[rows] * theta ** 2, axis=1), (p, dots, theta)

    def row_norms(v):
        return np.sqrt(np.add.reduce(v * v, axis=1))

    def gradient(a):
        sin = np.sin(theta[a])
        c = wn[a] * np.divide(theta[a], sin, out=np.zeros_like(sin),
                              where=sin > 1e-15)
        v = combine(c) - np.add.reduce(c * dots[a], axis=1)[:, None] * p[a]
        v -= np.add.reduce(v * p[a], axis=1)[:, None] * p[a]
        return v

    def line(a, steps, v):
        t = steps[:, None] * v
        tn = row_norms(t)
        moves = tn >= 1e-15
        cand = (np.cos(tn)[:, None] * p[a] + np.sin(tn)[:, None] * t
                / np.where(moves, tn, 1.0)[:, None])
        cand /= row_norms(cand)[:, None]
        cand[~moves] = p[a[~moves]]
        obj, state = evaluate(cand, a)

        def keep(moved):
            for old, new in zip((p, dots, theta), state):
                old[a[moved]] = new[moved]
        return obj, keep

    extrinsic = combine(wn)
    norm = row_norms(extrinsic)
    far = norm < 1e-6
    p = extrinsic / np.where(far, 1.0, norm)[:, None]
    if far.any():
        top = np.argmax(wn[far], axis=1)
        p[far] = ystack[top]
    cur, (p, dots, theta) = evaluate(p, slice(None))
    converged, iterations = _descend_rows(cur, gradient, line)
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


def _affine_sqrt_dist2_rows(ystacks, wns, starts) -> list:
    """Unsigned affine descents in square-root form, as in earlier versions:
    row ``r`` descends over ``ystacks[r]`` with weights ``wns[r]`` from
    ``starts[r]`` under :func:`_descend_rows`, moving to ``y^1/2 exp(t V)
    y^1/2`` with ``V`` the gradient whitened by ``y^-1/2``, and gives
    ``(dist2, mean)``: the squared distances to its final iterate, bit for
    bit those of ``dist2_to_point``, and that iterate.  All rows share each
    ``eigh``, which LAPACK runs per matrix; whitening and log rebuild sum
    in ``einsum``'s order; weighted sums run per row.  So a row's bits do
    not depend on the others."""
    sizes = np.array([len(ys) for ys in ystacks])
    Y, rid = np.concatenate(ystacks), np.repeat(np.arange(len(sizes)), sizes)
    m = Y.shape[1]
    P, SQ = np.empty((2, len(sizes), m, m))
    mids_all, dist2_all = np.empty_like(Y), np.empty(len(Y))

    def objects(rows):  # their objects, each one's row, each row's slice
        on, n = np.zeros(len(sizes), dtype=bool), sizes[rows]
        on[rows] = True
        ends = np.cumsum(n).tolist()
        return (np.flatnonzero(on[rid]),
                np.repeat(np.arange(len(rows)), n),
                [(r, slice(e - k, e))
                 for r, e, k in zip(rows.tolist(), ends, n.tolist())])

    def evaluate(rows, p):  # objectives at p, and a setter of the state
        vals, vecs = np.linalg.eigh(p)
        if np.any(vals[:, 0] <= 0):
            raise ValueError("matrix is not positive definite")
        s, vt = np.sqrt(vals)[:, None, :], np.swapaxes(vecs, 1, 2)
        sel, loc, spans = objects(rows)
        isq, ys = ((vecs / s) @ vt)[loc], Y[sel]
        mids = np.zeros_like(ys)
        for j, k in np.ndindex(m, m):  # einsum("ij,njk,kl->nil"), its order
            mids += isq[:, :, j, None] * ys[:, j, k, None, None] \
                * isq[:, None, k]
        mids = (mids + np.swapaxes(mids, 1, 2)) / 2.0
        dist2 = np.sum(np.log(np.maximum(np.linalg.eigvalsh(mids), 1e-300))
                       ** 2, axis=1)
        obj = np.array([wns[r] @ dist2[sl] for r, sl in spans])

        def keep(kept):
            r, o = rows[kept], kept[loc]
            P[r], SQ[r] = p[kept], ((vecs * s) @ vt)[kept]
            mids_all[sel[o]], dist2_all[sel[o]] = mids[o], dist2[o]
        return obj, keep

    def gradient(rows):
        sel, _, spans = objects(rows)
        vals, vecs = np.linalg.eigh(mids_all[sel])
        lv, logs = np.log(vals), np.zeros_like(vecs)
        for j in range(m):  # einsum("...ij,...j,...kj->...ik"), its order
            logs += vecs[:, :, j, None] * lv[:, j, None, None] \
                * vecs[:, None, :, j]
        return np.stack([np.einsum("n,nij->ij", wns[r], logs[sl])
                         for r, sl in spans])

    def line(rows, steps, v):
        sym = v + np.swapaxes(v, 1, 2)
        vals, vecs = np.linalg.eigh(steps[:, None, None] * sym / 2.0)
        cand = (SQ[rows] @ ((vecs * np.exp(vals)[:, None, :])
                            @ np.swapaxes(vecs, 1, 2)) @ SQ[rows])
        return evaluate(rows, (cand + np.swapaxes(cand, 1, 2)) / 2.0)

    everyone = np.arange(len(sizes))
    cur, keep = evaluate(everyone, np.stack(starts))
    keep(np.ones(len(sizes), dtype=bool))
    _descend_rows(cur, gradient, line)
    return [(dist2_all[sl], P[r].copy()) for r, sl in objects(everyone)[2]]
