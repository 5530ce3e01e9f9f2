"""Convex bodies as evaluator bundles, with constructors and combinators.

A Body packages the support function, gauge (Minkowski functional), radial
function, membership test, Euclidean distance, and certified inner/outer
radius bounds of one convex set.  Evaluators are vectorized: they accept a
single point of shape (n,) or a batch of shape (m, n).  An evaluator
computes its quantity (to solver tolerance), never only a bound on it; one
with no such form is absent, and calling it raises EvaluationError.

The gauge and the support are written once, as a max of Pieces: facet
rows, implicit l1 sign families, Euclidean norms of linear maps and sums of
such maxima.  A function with no such form (an LP, a membership bisection)
is one smooth piece, the function itself.  Body evaluates the gauge and
support from their pieces, and the optimizer's epigraph solve reads the
same pieces.

Catalog bodies (balls, cubes, cross-polytopes, ellipsoids, slab
intersections, products, vertex polytopes, truncated cylinders) get
closed-form pieces.  Combinators (intersection, Minkowski sum,
neighborhood, similarity image, polar, difference body) compose pieces:
an intersection joins the gauge pieces, a sum adds the support maxima,
a product zero-pads its blocks' pieces, an image maps them and a polar
swaps them.  Where no closed form exists, membership and distance fall
back to iterative schemes built on the bodies' own oracles: cyclic
projections for intersections and an away-step linear-minimization
projection for support-point bodies (tolerance 1e-8, iteration cap 10^4).
An intersection has no support evaluator: the minimum of the two supports
is only an upper bound.

Lower-dimensional bodies (radius-0 balls and their products) carry an
infinite gauge off their affine hull; membership and distance go through
the orthogonal decomposition instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ._util import ball_points, bernoulli_se, rng_from, sphere_points
from .errors import ContainmentError, DomainError, EvaluationError, SpecError

__all__ = [
    "Body",
    "BodySpec",
    "Piece",
    "map_pieces",
    "construct_body",
    "ball",
    "cube",
    "cross_polytope",
    "ellipsoid",
    "slab_body",
    "product_body",
    "vertex_polytope",
    "truncated_cylinder",
    "intersect",
    "minkowski_sum",
    "neighborhood",
    "linear_image",
    "polar",
    "difference_body",
    "mc_volume",
    "volume_ratio",
    "unit_ball_volume",
]

GAUGE_TOL = 1e-9          # membership tolerance at the gauge boundary; ties are in
DIST_TOL = 1e-9           # membership tolerance for distance-based tests
PROJECT_TOL = 1e-8        # generic iterative projection tolerance
PROJECT_CAP = 10_000      # generic iterative projection iteration cap
ORTHO_TOL = 1e-10
DEFAULT_TRUNCATION = 1e6


def _batch(x, dim):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise DomainError(f"expected a vector of dimension {dim}, got {arr.shape[0]}")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise DomainError(f"expected shape (n,) or (m, n) with n={dim}, got {arr.shape}")


def _scalarize(vals, single):
    vals = np.asarray(vals)
    if single:
        v = vals[0]
        return bool(v) if vals.dtype == bool else float(v)
    return vals


def _max_of(pieces, X):
    """Max over the pieces at the rows of X; a lone piece's own values."""
    if len(pieces) == 1:
        return pieces[0].evaluate(X)
    return np.max([p.evaluate(X) for p in pieces], axis=0)


@dataclass(frozen=True, eq=False)
class Piece:
    """One piece of a gauge or support, which is the max of its pieces.

    kind "linear": x -> max_i <P_i, x> over the rows of matrix P (m, n).
    kind "l1": x -> |x M|_1 for matrix M (n, k): the max of <s, x M> over
      all 2^k sign patterns s, kept implicit instead of listed.
    kind "l2": x -> |x M|_2 for matrix M (n, k), smooth off the kernel of
      M^T: the gauges and supports of balls and ellipsoids.
    kind "sum": x -> the sum over parts of the max over the part's pieces;
      the support of a product or a Minkowski sum.
    kind "smooth": x -> scale * value(x A), where matrix A (n, n0) is the
      input map (None: the identity): the one piece of a function with no
      closed form, which has no analytic gradient.
    Every piece is positively homogeneous, as gauges and supports are.
    """

    kind: str
    matrix: np.ndarray | None = None
    value: object = None
    scale: float = 1.0
    parts: tuple = ()

    def evaluate(self, X):
        """Piece values at the rows of X."""
        if self.kind == "linear":
            return (X @ self.matrix.T).max(axis=1)
        if self.kind == "l1":
            return np.abs(X @ self.matrix).sum(axis=1)
        if self.kind == "l2":
            return np.linalg.norm(X @ self.matrix, axis=1)
        if self.kind == "sum":
            return sum(_max_of(part, X) for part in self.parts)
        Y = X if self.matrix is None else X @ self.matrix
        return self.scale * np.asarray(self.value(Y), dtype=float)

    def gradient(self, X):
        """Gradients at the rows of X of an l2 piece (0 where x M = 0);
        None for the other kinds."""
        if self.kind != "l2":
            return None
        M = self.matrix
        Y = X @ M
        nrm = np.linalg.norm(Y, axis=1)
        return (Y @ M.T) / np.where(nrm > 0, nrm, 1.0)[:, None]

    def mapped(self, A, scale=1.0):
        """The piece x -> scale * piece(x A), for A (n_new, n) and scale > 0."""
        if self.kind == "linear":
            return Piece("linear", scale * (self.matrix @ A.T))
        if self.kind in ("l1", "l2"):
            return Piece(self.kind, scale * (A @ self.matrix))
        if self.kind == "sum":
            return Piece("sum", parts=tuple(map_pieces(part, A, scale) for part in self.parts))
        inner = A if self.matrix is None else A @ self.matrix
        return Piece("smooth", inner, self.value, scale * self.scale)


def map_pieces(pieces, A, scale=1.0):
    """Compose every piece with x -> x A and multiply it by scale."""
    A = np.asarray(A, dtype=float)
    return tuple(p.mapped(A, scale) for p in pieces)


def _abs_rows(M):
    """The linear piece x -> max_i |<M_i, x>|, with rows [M; -M]."""
    return Piece("linear", np.vstack([M, -M]))


class Body:
    """A convex body presented through its evaluators.

    Immutable by convention once constructed.  Evaluators work row by
    row, so rows of many problems may be stacked into one call.
    gauge and support are tuples of Pieces whose max is the gauge and the
    support; gauge, support, radial and the gauge test of contains
    evaluate that max, and gauge_pieces and support_pieces hand the pieces
    to the optimizer's epigraph solve.  inner_radius and outer_radius are
    certified bounds: inner_radius <= radial(u) <= outer_radius for every
    unit u.  The support (None: the body has none), support-point and
    projection evaluators are optional; an absent one raises
    EvaluationError when called.  vertices holds the vertex array of a
    vertex polytope and is None for every other body.
    """

    def __init__(self, dim, *, gauge, support=None, membership=None,
                 support_point=None, project=None, distance=None,
                 inner_radius, outer_radius, symmetric, truncated=False,
                 kind="custom", spec=None, vertices=None):
        self.dim = int(dim)
        self.gauge_pieces = gauge
        self._support = support
        self._membership = membership
        self._support_point = support_point
        self._project = project
        self._distance = distance
        self.inner_radius = float(inner_radius)
        self.outer_radius = float(outer_radius)
        self.symmetric = bool(symmetric)
        self.truncated = bool(truncated)
        self.kind = kind
        self.spec = spec
        self.vertices = vertices

    def __repr__(self):
        return f"Body(kind={self.kind!r}, dim={self.dim}, symmetric={self.symmetric})"

    # -- evaluators ---------------------------------------------------------

    def support(self, u):
        """h(u) = sup over members x of <x, u> (positively homogeneous)."""
        pieces = self.support_pieces
        U, single = _batch(u, self.dim)
        return _scalarize(_max_of(pieces, U), single)

    def gauge(self, x):
        """Minkowski functional; inf off the affine hull of a flat body."""
        X, single = _batch(x, self.dim)
        return _scalarize(_max_of(self.gauge_pieces, X), single)

    def radial(self, u):
        """Boundary distance from the origin along u (1/gauge for unit u)."""
        X, single = _batch(u, self.dim)
        g = _max_of(self.gauge_pieces, X)
        with np.errstate(divide="ignore"):
            r = np.where(g > 0, 1.0 / np.where(g > 0, g, 1.0), np.inf)
        return _scalarize(r, single)

    def contains(self, x):
        """Membership with boundary tolerance; boundary ties count as members."""
        X, single = _batch(x, self.dim)
        if self._membership is not None:
            return _scalarize(np.asarray(self._membership(X), dtype=bool), single)
        if self.inner_radius > 0:
            g = _max_of(self.gauge_pieces, X)
            return _scalarize(g <= 1.0 + GAUGE_TOL, single)
        d = np.asarray(self._distance_batch(X), dtype=float)
        return _scalarize(d <= DIST_TOL, single)

    def distance(self, x):
        """Euclidean distance to the body (0 exactly for members)."""
        X, single = _batch(x, self.dim)
        return _scalarize(self._distance_batch(X), single)

    def project(self, x):
        """Nearest point of the body."""
        X, single = _batch(x, self.dim)
        Y = self._project_batch(X)
        return Y[0] if single else Y

    def support_point(self, u):
        """A member attaining the support value in direction u."""
        if self._support_point is None:
            raise EvaluationError(f"{self.kind} body has no support-point evaluator")
        U, single = _batch(u, self.dim)
        Y = self._support_point(U)
        return Y[0] if single else Y

    @property
    def support_pieces(self):
        """The support as a max of Pieces."""
        if self._support is None:
            raise EvaluationError(f"{self.kind} body has no exact support evaluator")
        return self._support

    # -- evaluator resolution ------------------------------------------------

    @property
    def can_project(self):
        return self._project is not None or self._support_point is not None

    def _project_batch(self, X):
        if self._project is not None:
            return self._project(X)
        if self._support_point is not None:
            return np.vstack([_lmo_project(self._sp_single, row) for row in X])
        raise EvaluationError(f"{self.kind} body has no projection route")

    def _distance_batch(self, X):
        if self._distance is not None:
            return self._distance(X)
        Y = self._project_batch(X)
        return np.linalg.norm(X - Y, axis=1)

    def _sp_single(self, d):
        return self._support_point(d[None, :])[0]


# ---------------------------------------------------------------------------
# iterative projection machinery
# ---------------------------------------------------------------------------


def _lmo_project(lmo, x, tol=PROJECT_TOL, max_iter=PROJECT_CAP):
    """Nearest point of a compact convex set given only its linear-maximization
    oracle, by away-step conditional-gradient descent on 0.5*|y - x|^2."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(lmo(x), dtype=float)
    atoms = [v]
    weights = [1.0]
    index = {v.tobytes(): 0}
    y = v.copy()
    for _ in range(max_iter):
        grad = y - x
        s = np.asarray(lmo(-grad), dtype=float)
        gap = float(grad @ (y - s))
        if gap <= 0.5 * tol * tol:
            break
        scores = [float(grad @ a) for a in atoms]
        ai = int(np.argmax(scores))
        away_gap = scores[ai] - float(grad @ y)
        if gap >= away_gap or len(atoms) == 1:
            d = s - y
            gamma_max = 1.0
            step_fw = True
        else:
            d = y - atoms[ai]
            w = weights[ai]
            gamma_max = w / (1.0 - w) if w < 1.0 else 1.0
            step_fw = False
        dd = float(d @ d)
        if dd <= 0.0:
            break
        gamma = min(max(-float(grad @ d) / dd, 0.0), gamma_max)
        if gamma <= 0.0:
            break
        y = y + gamma * d
        if step_fw:
            key = s.tobytes()
            weights = [w * (1.0 - gamma) for w in weights]
            if key in index:
                weights[index[key]] += gamma
            else:
                index[key] = len(atoms)
                atoms.append(s)
                weights.append(gamma)
        else:
            weights = [w * (1.0 + gamma) for w in weights]
            weights[ai] -= gamma
        keep = [i for i, w in enumerate(weights) if w > 1e-14]
        if len(keep) != len(atoms):
            atoms = [atoms[i] for i in keep]
            weights = [weights[i] for i in keep]
            index = {a.tobytes(): i for i, a in enumerate(atoms)}
    return y


def _dykstra(projectors, X, tol=1e-10, max_iter=PROJECT_CAP):
    """Cyclic corrected projections onto an intersection, batched over rows."""
    Y = np.array(X, dtype=float, copy=True)
    corr = [np.zeros_like(Y) for _ in projectors]
    for _ in range(max_iter):
        prev = Y.copy()
        for i, proj in enumerate(projectors):
            Z = Y + corr[i]
            Ynew = np.asarray(proj(Z), dtype=float)
            corr[i] = Z - Ynew
            Y = Ynew
        if float(np.max(np.abs(Y - prev))) <= tol:
            return Y
    raise EvaluationError("cyclic projection failed to reach tolerance "
                          f"{tol} within {max_iter} iterations")


def _bisection_gauge(contains, r_hi, iters=64):
    """Gauge from membership alone, as one smooth piece: bisect the boundary
    radius along each row's direction inside the radius-r_hi ball."""
    def gauge(X):
        nrm = np.linalg.norm(X, axis=1)
        units = X / np.where(nrm > 0, nrm, 1.0)[:, None]
        lo = np.zeros(X.shape[0])
        hi = np.full(X.shape[0], float(r_hi) * (1.0 + 1e-9) + 1e-30)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            inside = np.asarray(contains(units * mid[:, None]), dtype=bool)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(nrm == 0.0, 0.0, nrm / lo)

    return (Piece("smooth", value=gauge),)


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------


def _positive(value, field_name):
    if not float(value) > 0.0:
        raise SpecError(f"{field_name}: must be strictly positive, got {value}")
    return float(value)


def ball(dim: int, radius: float) -> Body:
    """Euclidean ball of the given radius; radius 0 is the degenerate origin."""
    if dim < 1:
        raise SpecError(f"dim: must be >= 1, got {dim}")
    r = float(radius)
    if r < 0:
        raise SpecError(f"radius: must be nonnegative, got {radius}")
    if r == 0.0:
        return Body(
            dim,
            support=(Piece("linear", np.zeros((1, dim))),),
            gauge=(Piece("smooth", value=lambda X: np.where(
                np.linalg.norm(X, axis=1) == 0.0, 0.0, np.inf)),),
            support_point=lambda U: np.zeros_like(U),
            project=lambda X: np.zeros_like(X),
            distance=lambda X: np.linalg.norm(X, axis=1),
            inner_radius=0.0, outer_radius=0.0, symmetric=True,
            kind="ball", spec=BodySpec("ball", {"dim": dim, "radius": 0.0}),
        )

    def proj(X):
        nrm = np.linalg.norm(X, axis=1)
        f = np.where(nrm > r, r / np.where(nrm > 0, nrm, 1.0), 1.0)
        return X * f[:, None]

    def sp(U):
        nrm = np.linalg.norm(U, axis=1)
        safe = np.where(nrm > 0, nrm, 1.0)
        return U * (r / safe)[:, None]

    return Body(
        dim,
        support=(Piece("l2", r * np.eye(dim)),),
        gauge=(Piece("l2", np.eye(dim) / r),),
        support_point=sp,
        project=proj,
        distance=lambda X: np.maximum(np.linalg.norm(X, axis=1) - r, 0.0),
        inner_radius=r, outer_radius=r, symmetric=True,
        kind="ball", spec=BodySpec("ball", {"dim": dim, "radius": r}),
    )


def cube(dim: int, half_width: float) -> Body:
    """Axis-aligned cube [-a, a]^n."""
    a = _positive(half_width, "half_width")

    def dist(X):
        excess = np.maximum(np.abs(X) - a, 0.0)
        return np.linalg.norm(excess, axis=1)

    return Body(
        dim,
        support=(Piece("l1", a * np.eye(dim)),),
        gauge=(_abs_rows(np.eye(dim) / a),),
        support_point=lambda U: a * np.sign(U),
        project=lambda X: np.clip(X, -a, a),
        distance=dist,
        inner_radius=a, outer_radius=a * math.sqrt(dim), symmetric=True,
        kind="cube", spec=BodySpec("cube", {"dim": dim, "half_width": a}),
    )


def _l1_project(X, r):
    a = np.abs(X)
    s = a.sum(axis=1)
    out = np.array(X, copy=True)
    mask = s > r
    if mask.any():
        A = a[mask]
        u = np.sort(A, axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1) - r
        idx = np.arange(1, A.shape[1] + 1)
        rho = np.count_nonzero(u * idx > css, axis=1)
        theta = css[np.arange(A.shape[0]), rho - 1] / rho
        out[mask] = np.sign(X[mask]) * np.maximum(A - theta[:, None], 0.0)
    return out


def cross_polytope(dim: int, radius: float) -> Body:
    """l1-ball of the given radius."""
    r = _positive(radius, "radius")

    def sp(U):
        i = np.abs(U).argmax(axis=1)
        rows = np.arange(U.shape[0])
        Y = np.zeros_like(U)
        sign = np.sign(U[rows, i])
        Y[rows, i] = r * np.where(sign == 0, 1.0, sign)
        return Y

    return Body(
        dim,
        support=(_abs_rows(r * np.eye(dim)),),
        gauge=(Piece("l1", np.eye(dim) / r),),
        support_point=sp,
        project=lambda X: _l1_project(X, r),
        inner_radius=r / math.sqrt(dim), outer_radius=r, symmetric=True,
        kind="cross_polytope", spec=BodySpec("cross_polytope", {"dim": dim, "radius": r}),
    )


def ellipsoid(semiaxes) -> Body:
    """Axis-aligned ellipsoid given by its semiaxis lengths."""
    s = np.asarray(semiaxes, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise SpecError("semiaxes: must be a nonempty vector")
    if not (s > 0).all():
        raise SpecError("semiaxes: must be strictly positive")
    dim = s.size
    s2 = s * s

    def sp(U):
        h = np.linalg.norm(U * s, axis=1)
        safe = np.where(h > 0, h, 1.0)
        return (U * s2) / safe[:, None]

    def proj(X):
        g = np.linalg.norm(X / s, axis=1)
        out = np.array(X, copy=True)
        mask = g > 1.0
        if mask.any():
            Xo = X[mask]
            lo = np.zeros(Xo.shape[0])
            hi = s.max() * np.linalg.norm(Xo, axis=1)
            x2s2 = s2 * Xo * Xo
            for _ in range(80):
                lam = 0.5 * (lo + hi)
                f = (x2s2 / (s2 + lam[:, None]) ** 2).sum(axis=1)
                high = f > 1.0
                lo = np.where(high, lam, lo)
                hi = np.where(high, hi, lam)
            lam = 0.5 * (lo + hi)
            out[mask] = (s2 * Xo) / (s2 + lam[:, None])
        return out

    return Body(
        dim,
        support=(Piece("l2", np.diag(s)),),
        gauge=(Piece("l2", np.diag(1.0 / s)),),
        support_point=sp,
        project=proj,
        inner_radius=float(s.min()), outer_radius=float(s.max()), symmetric=True,
        kind="ellipsoid", spec=BodySpec("ellipsoid", {"semiaxes": s.tolist()}),
    )


def slab_body(normals, widths) -> Body:
    """Intersection of symmetric slabs {x : |<n_i, x>| <= w_i}.

    Normals need not be unit; each pair is renormalized.  Unbounded when
    the normals do not span, in which case outer_radius is infinite.
    """
    N = np.atleast_2d(np.asarray(normals, dtype=float))
    w = np.atleast_1d(np.asarray(widths, dtype=float))
    if N.shape[0] != w.shape[0]:
        raise SpecError("widths: must match the number of normals")
    if not (w > 0).all():
        raise SpecError("widths: must be strictly positive")
    norms = np.linalg.norm(N, axis=1)
    if not (norms > 0).all():
        raise SpecError("normals: zero normal vector")
    Nh = N / norms[:, None]
    wh = w / norms
    dim = N.shape[1]

    sv = np.linalg.svd(Nh, compute_uv=False)
    full_rank = sv.size >= dim and sv[min(dim, sv.size) - 1] > 1e-12
    r_out = float(np.linalg.norm(wh) / sv[dim - 1]) if full_rank else math.inf

    def supp(U):
        A_ub = np.vstack([Nh, -Nh])
        b_ub = np.concatenate([wh, wh])
        vals = np.empty(U.shape[0])
        for i, u in enumerate(U):
            res = linprog(-u, A_ub=A_ub, b_ub=b_ub,
                          bounds=[(None, None)] * dim, method="highs")
            if res.status == 3:
                vals[i] = np.inf
            elif res.success:
                vals[i] = -res.fun
            else:
                raise EvaluationError(f"support LP failed: {res.message}")
        return vals

    projectors = []
    for i in range(Nh.shape[0]):
        nh_i, w_i = Nh[i], wh[i]

        def proj(Y, nh_i=nh_i, w_i=w_i):
            t = Y @ nh_i
            return Y - np.outer(t - np.clip(t, -w_i, w_i), nh_i)

        projectors.append(proj)

    return Body(
        dim,
        support=(Piece("smooth", value=supp),),
        gauge=(_abs_rows(Nh / wh[:, None]),),
        project=lambda X: _dykstra(projectors, X),
        inner_radius=float(wh.min()), outer_radius=r_out, symmetric=True,
        kind="slab_intersection",
        spec=BodySpec("slab_intersection",
                      {"normals": N.tolist(), "widths": w.tolist()}),
    )


def product_body(first: Body, second: Body) -> Body:
    """Orthogonal product on split coordinates: first block, then second."""
    d1, d2 = first.dim, second.dim
    dim = d1 + d2

    def split(X):
        return X[:, :d1], X[:, d1:]

    def membership(X):
        A, B = split(X)
        return np.asarray(first.contains(A)) & np.asarray(second.contains(B))

    def dist(X):
        A, B = split(X)
        return np.hypot(np.asarray(first.distance(A), dtype=float),
                        np.asarray(second.distance(B), dtype=float))

    def proj(X):
        A, B = split(X)
        return np.hstack([first.project(A), second.project(B)])

    sp = None
    if first._support_point is not None and second._support_point is not None:
        def sp(U):
            A, B = split(U)
            return np.hstack([first.support_point(A), second.support_point(B)])

    spec = None
    if first.spec is not None and second.spec is not None:
        spec = BodySpec("product", {"first": first.spec, "second": second.spec})

    eye = np.eye(dim)
    support = None
    if first._support is not None and second._support is not None:
        support = (Piece("sum", parts=(map_pieces(first._support, eye[:, :d1]),
                                       map_pieces(second._support, eye[:, d1:]))),)

    return Body(
        dim,
        support=support,
        gauge=(map_pieces(first.gauge_pieces, eye[:, :d1])
               + map_pieces(second.gauge_pieces, eye[:, d1:])),
        membership=membership,
        support_point=sp,
        project=proj if first.can_project and second.can_project else None,
        distance=dist,
        inner_radius=min(first.inner_radius, second.inner_radius),
        outer_radius=math.hypot(first.outer_radius, second.outer_radius)
        if math.isfinite(first.outer_radius) and math.isfinite(second.outer_radius) else math.inf,
        symmetric=first.symmetric and second.symmetric,
        truncated=first.truncated or second.truncated,
        kind="product", spec=spec,
    )


def vertex_polytope(vertices, symmetric=None) -> Body:
    """Convex hull of a finite full-dimensional vertex list."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    m, dim = V.shape
    if m < dim + 1:
        raise SpecError(f"vertices: need at least dim+1 = {dim + 1} points, got {m}")

    if dim == 1:
        lo, hi = float(V.min()), float(V.max())
        if not lo < hi:
            raise SpecError("vertices: degenerate interval")
        A = np.array([[1.0], [-1.0]])
        b = np.array([hi, -lo])
    else:
        from scipy.spatial import ConvexHull
        from scipy.spatial._qhull import QhullError

        try:
            hull = ConvexHull(V)
        except QhullError as exc:
            raise SpecError(f"vertices: not full-dimensional ({exc})") from exc
        A = hull.equations[:, :-1]
        b = -hull.equations[:, -1]

    def _rows_sorted(A):
        return A[np.lexsort(A.T[::-1])]

    detected_sym = bool(np.allclose(_rows_sorted(np.round(V, 12)),
                                    _rows_sorted(np.round(-V, 12)), atol=1e-9))
    if symmetric is True and not detected_sym:
        raise SpecError("symmetric: vertex list is not centrally symmetric")
    is_sym = detected_sym if symmetric is None else bool(symmetric)

    interior0 = bool((b > 1e-12).all())

    def gauge_lp(X):
        vals = np.empty(X.shape[0])
        for i, x in enumerate(X):
            res = linprog(np.ones(m), A_eq=V.T, b_eq=x,
                          bounds=[(0, None)] * m, method="highs")
            vals[i] = res.fun if res.success else np.inf
        return vals

    def sp(U):
        return V[(U @ V.T).argmax(axis=1)]

    def membership(X):
        return (X @ A.T <= b + DIST_TOL).all(axis=1)

    def dist(X):
        # members are at distance 0 by the facet test; only the others
        # need the iterative projection
        d = np.zeros(X.shape[0])
        for i in np.flatnonzero(~membership(X)):
            y = _lmo_project(lambda u: V[int(np.argmax(V @ u))], X[i])
            d[i] = np.linalg.norm(X[i] - y)
        return d

    return Body(
        dim,
        support=(Piece("linear", V),),
        gauge=(Piece("linear", A / b[:, None]) if interior0
               else Piece("smooth", value=gauge_lp),),
        membership=membership,
        support_point=sp,
        distance=dist,
        inner_radius=float(b.min()) if interior0 else 0.0,
        outer_radius=float(np.linalg.norm(V, axis=1).max()),
        symmetric=is_sym,
        kind="vertex_polytope",
        spec=BodySpec("vertex_polytope", {"vertices": V.tolist()}),
        vertices=V,
    )


def truncated_cylinder(core: Body, dim: int, transverse_radius=None,
                       truncation_radius: float = DEFAULT_TRUNCATION) -> Body:
    """Cylinder over a core body, bounded transversally at min(transverse,
    truncation).  The truncated flag records whether the cap was active."""
    d2 = int(dim) - core.dim
    if d2 < 1:
        raise SpecError(f"dim: must exceed the core dimension {core.dim}, got {dim}")
    trunc = _positive(truncation_radius, "truncation_radius")
    if transverse_radius is None:
        t_eff, active = trunc, True
    else:
        t = _positive(transverse_radius, "transverse_radius")
        t_eff, active = min(t, trunc), t > trunc
    body = product_body(core, ball(d2, t_eff))
    body.kind = "truncated_cylinder"
    body.truncated = body.truncated or active
    if core.spec is not None:
        body.spec = BodySpec("truncated_cylinder", {
            "core": core.spec, "dim": int(dim),
            "transverse_radius": transverse_radius,
            "truncation_radius": trunc})
    return body


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------

_SPEC_KEYS = {
    "ball": ({"dim", "radius"}, set()),
    "cube": ({"dim", "half_width"}, set()),
    "cross_polytope": ({"dim", "radius"}, set()),
    "ellipsoid": ({"semiaxes"}, set()),
    "slab_intersection": ({"normals", "widths"}, set()),
    "product": ({"first", "second"}, set()),
    "vertex_polytope": ({"vertices"}, {"symmetric"}),
    "truncated_cylinder": ({"core", "dim"}, {"transverse_radius", "truncation_radius"}),
}

_NESTED = {"first", "second", "core"}


@dataclass(frozen=True)
class BodySpec:
    """Declarative body description: a kind tag plus numeric parameters.

    Serializes to a flat JSON object {"kind": ..., <params>}; nested specs
    (products, cylinders) recurse.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        for key, val in self.params.items():
            out[key] = val.to_json_dict() if isinstance(val, BodySpec) else val
        return out

    @classmethod
    def from_json_dict(cls, data) -> "BodySpec":
        if not isinstance(data, dict):
            raise SpecError(f"body spec must be an object, got {type(data).__name__}")
        if "kind" not in data:
            raise SpecError("body spec missing field 'kind'")
        kind = data["kind"]
        if kind not in _SPEC_KEYS:
            raise SpecError(f"kind: unknown body kind {kind!r}")
        required, optional = _SPEC_KEYS[kind]
        params = {}
        for key, val in data.items():
            if key == "kind":
                continue
            if key not in required and key not in optional:
                raise SpecError(f"unknown field {key!r} for body kind {kind!r}")
            params[key] = cls.from_json_dict(val) if key in _NESTED else val
        missing = required - set(params)
        if missing:
            raise SpecError(f"missing field {sorted(missing)[0]!r} for body kind {kind!r}")
        return cls(kind, params)


def construct_body(spec: BodySpec) -> Body:
    """Build the catalog body described by a spec."""
    if not isinstance(spec, BodySpec):
        spec = BodySpec.from_json_dict(spec)
    p = spec.params
    try:
        if spec.kind == "ball":
            return ball(int(p["dim"]), float(p["radius"]))
        if spec.kind == "cube":
            return cube(int(p["dim"]), float(p["half_width"]))
        if spec.kind == "cross_polytope":
            return cross_polytope(int(p["dim"]), float(p["radius"]))
        if spec.kind == "ellipsoid":
            return ellipsoid(p["semiaxes"])
        if spec.kind == "slab_intersection":
            return slab_body(p["normals"], p["widths"])
        if spec.kind == "product":
            return product_body(construct_body(p["first"]), construct_body(p["second"]))
        if spec.kind == "vertex_polytope":
            return vertex_polytope(p["vertices"], p.get("symmetric"))
        if spec.kind == "truncated_cylinder":
            return truncated_cylinder(
                construct_body(p["core"]), int(p["dim"]),
                p.get("transverse_radius"),
                p.get("truncation_radius", DEFAULT_TRUNCATION))
    except KeyError as exc:
        raise SpecError(f"missing field {exc.args[0]!r} for body kind {spec.kind!r}") from exc
    raise SpecError(f"kind: unknown body kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def _check_dims(K: Body, L: Body):
    if K.dim != L.dim:
        raise DomainError(f"dimension mismatch: {K.dim} vs {L.dim}")


def intersect(K: Body, L: Body) -> Body:
    """Intersection: gauges take the max, radials the min.  It has no support
    evaluator: the min of the two supports is only an upper bound."""
    _check_dims(K, L)
    project = None
    if K.can_project and L.can_project:
        def project(X):
            return _dykstra([K._project_batch, L._project_batch], X)

    return Body(
        K.dim,
        gauge=K.gauge_pieces + L.gauge_pieces,
        membership=lambda X: np.asarray(K.contains(X)) & np.asarray(L.contains(X)),
        project=project,
        inner_radius=min(K.inner_radius, L.inner_radius),
        outer_radius=min(K.outer_radius, L.outer_radius),
        symmetric=K.symmetric and L.symmetric,
        truncated=K.truncated or L.truncated,
        kind="intersection",
    )


def _neighborhood_core(K: Body, r: float) -> Body:
    def dist(X):
        return np.maximum(np.asarray(K.distance(X), dtype=float) - r, 0.0)

    def membership(X):
        return np.asarray(K.distance(X), dtype=float) <= r + DIST_TOL

    project = None
    if K.can_project:
        def project(X):
            Y = K._project_batch(np.asarray(X, dtype=float))
            diff = X - Y
            d = np.linalg.norm(diff, axis=1)
            outside = d > r
            scale = np.where(outside, r / np.where(d > 0, d, 1.0), 1.0)
            return np.where(outside[:, None], Y + diff * scale[:, None], X)

    sp = None
    if K._support_point is not None:
        def sp(U):
            nrm = np.linalg.norm(U, axis=1)
            safe = np.where(nrm > 0, nrm, 1.0)
            return K.support_point(U) + U * (r / safe)[:, None]

    support = None
    if K._support is not None:
        support = (Piece("sum", parts=(K._support, (Piece("l2", r * np.eye(K.dim)),))),)

    r_out = K.outer_radius + r
    return Body(
        K.dim,
        support=support,
        gauge=_bisection_gauge(membership, r_out) if math.isfinite(r_out) else K.gauge_pieces,
        membership=membership,
        support_point=sp,
        project=project,
        distance=dist,
        inner_radius=K.inner_radius + r,
        outer_radius=r_out,
        symmetric=K.symmetric,
        truncated=K.truncated,
        kind="neighborhood",
    )


def neighborhood(K: Body, eps: float) -> Body:
    """Minkowski sum with the eps-ball; membership is exact through the
    distance evaluator: x belongs iff distance to K is at most eps."""
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    if eps == 0:
        return K
    return _neighborhood_core(K, float(eps))


def minkowski_sum(K: Body, L: Body) -> Body:
    """Minkowski sum; support functions add exactly.  A radius-0 ball
    summand returns the other summand itself, unchanged."""
    _check_dims(K, L)
    if K.kind == "ball" and L.kind == "ball":
        return ball(K.dim, K.outer_radius + L.outer_radius)
    if K.kind == "ball":
        K, L = L, K
    if L.kind == "ball":
        if L.outer_radius == 0.0:
            return K
        out = _neighborhood_core(K, L.outer_radius)
        out.kind = "minkowski_sum"
        return out
    if K.vertices is not None and L.vertices is not None:
        sums = (K.vertices[:, None, :] + L.vertices[None, :, :]).reshape(-1, K.dim)
        out = vertex_polytope(sums)
        out.kind = "minkowski_sum"
        return out

    sp = None
    if K._support_point is not None and L._support_point is not None:
        def sp(U):
            return K.support_point(U) + L.support_point(U)

    def dist(X):
        if sp is None:
            raise EvaluationError("generic Minkowski sum needs support points "
                                  "on both summands for distance evaluation")
        lmo = lambda d: K._sp_single(d) + L._sp_single(d)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([np.linalg.norm(x - _lmo_project(lmo, x)) for x in X])

    def membership(X):
        return dist(X) <= DIST_TOL

    support = None
    if K._support is not None and L._support is not None:
        support = (Piece("sum", parts=(K._support, L._support)),)

    r_out = K.outer_radius + L.outer_radius
    return Body(
        K.dim,
        support=support,
        gauge=_bisection_gauge(membership, r_out),
        membership=membership,
        support_point=sp,
        distance=dist,
        inner_radius=K.inner_radius + L.inner_radius,
        outer_radius=r_out,
        symmetric=K.symmetric and L.symmetric,
        truncated=K.truncated or L.truncated,
        kind="minkowski_sum",
    )


def linear_image(K: Body, Q, scale: float = 1.0) -> Body:
    """Image of the body under x -> scale * Q x, for Q orthogonal (a matrix
    or a Rotation) and scale > 0: rotations, reflections and dilations.
    Every evaluator conjugates; the support evaluator stays absent when K
    has none."""
    Q = np.asarray(getattr(Q, "matrix", Q), dtype=float)
    if Q.shape != (K.dim, K.dim):
        raise DomainError(f"orthogonal map must be {K.dim}x{K.dim}, got {Q.shape}")
    resid = float(np.max(np.abs(Q.T @ Q - np.eye(K.dim))))
    if resid > ORTHO_TOL:
        raise DomainError(f"matrix is not orthogonal (residual {resid:.2e} > {ORTHO_TOL})")
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    t = float(scale)

    sp = None
    if K._support_point is not None:
        def sp(W):
            return t * (K.support_point(W @ Q) @ Q.T)

    project = None
    if K.can_project:
        def project(X):
            return t * (K._project_batch((X @ Q) / t) @ Q.T)

    return Body(
        K.dim,
        support=None if K._support is None else map_pieces(K._support, Q, t),
        gauge=map_pieces(K.gauge_pieces, Q / t),
        membership=lambda X: np.asarray(K.contains((X @ Q) / t)),
        support_point=sp,
        project=project,
        distance=lambda X: t * np.asarray(K.distance((X @ Q) / t)),
        inner_radius=t * K.inner_radius, outer_radius=t * K.outer_radius,
        symmetric=K.symmetric, truncated=K.truncated,
        kind="linear_image",
    )


def polar(K: Body) -> Body:
    """Polar body: support and gauge pieces swap roles.  K must carry an
    exact support, which becomes the polar's gauge."""
    if not K.symmetric:
        raise DomainError("polar requires a symmetric body")
    if not K.inner_radius > 0:
        raise DomainError("polar of a body with inner radius 0 is unbounded; rejected")
    if K._support is None:
        raise EvaluationError(f"polar needs an exact support evaluator; "
                              f"the {K.kind} body has none")
    return Body(
        K.dim,
        support=K.gauge_pieces,
        gauge=K._support,
        membership=lambda X: np.asarray(K.support(X)) <= 1.0 + GAUGE_TOL,
        inner_radius=1.0 / K.outer_radius if math.isfinite(K.outer_radius) else 0.0,
        outer_radius=1.0 / K.inner_radius,
        symmetric=True,
        kind="polar",
    )


def difference_body(K: Body) -> Body:
    """K - K; support values in u and -u add.  Always symmetric; equals the
    dilate 2K when K is already symmetric, and the pairwise vertex
    differences for vertex polytopes."""
    if K.symmetric:
        out = linear_image(K, np.eye(K.dim), 2.0)
    elif K.vertices is not None:
        V = K.vertices
        out = vertex_polytope((V[:, None, :] - V[None, :, :]).reshape(-1, K.dim))
    else:
        out = minkowski_sum(K, linear_image(K, -np.eye(K.dim)))
    out.kind = "difference_body"
    out.symmetric = True
    return out


# ---------------------------------------------------------------------------
# volume estimation
# ---------------------------------------------------------------------------


def unit_ball_volume(n: int) -> float:
    """Volume of the unit Euclidean ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def mc_volume(K: Body, samples: int, seed=None, batch: int = 1 << 17):
    """Hit-or-miss volume estimate inside the outer-radius ball, with its
    standard error.  Unbounded bodies are rejected."""
    if not math.isfinite(K.outer_radius):
        raise DomainError("mc_volume requires a bounded body (finite outer radius)")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if K.outer_radius == 0.0:
        return 0.0, 0.0
    rng = rng_from(seed)
    box_vol = unit_ball_volume(K.dim) * K.outer_radius ** K.dim
    hits = 0
    left = samples
    while left > 0:
        n = min(left, batch)
        pts = ball_points(rng, n, K.dim, K.outer_radius)
        hits += int(np.count_nonzero(K.contains(pts)))
        left -= n
    p = hits / samples
    return box_vol * p, box_vol * bernoulli_se(p, samples)


def volume_ratio(K: Body, samples: int, seed=None, check_directions: int = 512) -> float:
    """n-th root of the volume of K relative to the unit ball, after checking
    by sampled gauges that the unit ball sits inside K."""
    rng = rng_from(seed)
    dirs = sphere_points(rng, check_directions, K.dim)
    g = np.asarray(K.gauge(dirs), dtype=float)
    bad = g > 1.0 + GAUGE_TOL
    if bad.any():
        i = int(np.argmax(g))
        raise ContainmentError(
            f"unit ball not contained: gauge {g[i]:.6g} > 1 on a sphere direction",
            direction=dirs[i])
    vol, _ = mc_volume(K, samples, seed=rng)
    return float((vol / unit_ball_volume(K.dim)) ** (1.0 / K.dim))
