"""Convex bodies as evaluator bundles, with constructors and combinators.

A Body packages the support function, gauge (Minkowski functional), radial
function, membership test, Euclidean distance, and certified inner/outer
radius bounds of one convex set.  Evaluators are vectorized: they accept a
single point of shape (n,) or a batch of shape (m, n).  An evaluator
computes its quantity (to solver tolerance), never only a bound on it; one
with no such form is absent, and calling it raises EvaluationError.

The gauge and the support are written once, as a max of pieces (see
pieces.Piece), which Body evaluates and the optimizer reads.

Catalog bodies (balls, cubes, cross-polytopes, ellipsoids, slab
intersections, products, vertex polytopes, truncated cylinders) get
closed-form pieces, with no LP: a slab intersection's support is the gauge
of its polar vertex polytope.  Combinators (intersection, Minkowski sum,
similarity image, polar) compose pieces: an intersection joins the gauge
pieces, a sum adds the support maxima, a product zero-pads its blocks'
pieces, an image maps them and a polar swaps them.  minkowski_sum is the
one construction of a sum of two bodies: the eps-neighborhood is the sum
with the eps-ball and the difference body is K + (-K).  A body whose
support is one linear piece with rows P is conv(P): its points are its
support rows, which an image maps along, and the sum of two such bodies
is the vertex polytope of the pairwise row sums when they span R^n
affinely.  Every other sum of support pieces is built by
pieces.sum_pieces.  Where no closed form exists, projection and distance
go through programs: every polyhedral body (slab intersections, vertex
polytopes and sums of them, each hull facet once, intersections whose
joined gauge is polyhedral with a positive inner radius, and polars whose
support is polyhedral) through the exact least-distance program of
optimize.polyhedron_points, scaled so that far rows keep their digits, an
intersection with a curved part through cyclic corrected projections
(iteration cap 10^4, which raises), and every other body with support
pieces through the dual distance program of optimize.nearest_points.  An
intersection has no support evaluator: the minimum of the two supports is
only an upper bound.

Lower-dimensional bodies (radius-0 balls and their products) carry an
infinite gauge off their affine hull; membership and distance go through
the orthogonal decomposition instead.

unit_ball_check is the one check of a unit-ball hypothesis; a refuted one
raises HypothesisError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import optimize
from ._util import ball_points, hit_fraction, read_field, row_norms
from .errors import DomainError, EvaluationError, HypothesisError, SpecError
from .pieces import Piece, map_pieces, max_of, sum_pieces

__all__ = [
    "Body",
    "BodySpec",
    "ball_factors",
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
    "unit_ball_check",
    "orthonormal_frame",
]

GAUGE_TOL = 1e-9          # membership tolerance at the gauge boundary; ties are in
DIST_TOL = 1e-9           # membership tolerance for distance-based tests
PROJECT_CAP = 10_000      # cyclic projection iteration cap
ORTHO_TOL = 1e-10         # largest residual of an orthogonal matrix or an orthonormal frame
DEFAULT_TRUNCATION = 1e6
BISECTION_STEPS = 64      # halvings of a gauge bracket, and most doublings to find one
FACET_TOL = 1e-12         # a vertex polytope's facet offsets this small pass through the origin


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
    unit u.  The support (None: the body has none) and the projection are
    optional; an absent support raises EvaluationError when called.  A body
    without its own projection projects by the dual distance program over
    its support pieces, and one with neither raises EvaluationError.  A
    support that is one linear piece with rows P makes the body conv(P),
    so a polytope's points are its support rows.  factors holds bodies
    (first, second) such that K is an orthogonal image of first x second,
    and is None for every other body.  kind is only a label: ball_factors says
    whether a body is a ball or a product of two balls.
    """

    def __init__(self, dim, *, gauge, support=None, membership=None,
                 project=None, distance=None,
                 inner_radius, outer_radius, symmetric, truncated=False,
                 kind="custom", spec=None, factors=None):
        self.dim = int(dim)
        self.gauge_pieces = gauge
        self._support = support
        self._membership = membership
        self._project = project
        self._distance = distance
        self.inner_radius = float(inner_radius)
        self.outer_radius = float(outer_radius)
        self.symmetric = bool(symmetric)
        self.truncated = bool(truncated)
        self.kind = kind
        self.spec = spec
        self.factors = factors

    def __repr__(self):
        return f"Body(kind={self.kind!r}, dim={self.dim}, symmetric={self.symmetric})"

    # -- evaluators ---------------------------------------------------------

    def support(self, u):
        """h(u) = sup over members x of <x, u> (positively homogeneous)."""
        pieces = self.support_pieces
        U, single = _batch(u, self.dim)
        return _scalarize(max_of(pieces, U), single)

    def gauge(self, x):
        """Minkowski functional; inf off the affine hull of a flat body."""
        X, single = _batch(x, self.dim)
        return _scalarize(max_of(self.gauge_pieces, X), single)

    def radial(self, u):
        """Boundary distance from the origin along u (1/gauge for unit u)."""
        X, single = _batch(u, self.dim)
        g = max_of(self.gauge_pieces, X)
        with np.errstate(divide="ignore"):
            r = np.where(g > 0, 1.0 / np.where(g > 0, g, 1.0), np.inf)
        return _scalarize(r, single)

    def contains(self, x):
        """Membership with boundary tolerance; boundary ties count as members."""
        X, single = _batch(x, self.dim)
        if self._membership is not None:
            return _scalarize(np.asarray(self._membership(X), dtype=bool), single)
        if self.inner_radius > 0:
            g = max_of(self.gauge_pieces, X)
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

    @property
    def support_pieces(self):
        """The support as a max of Pieces."""
        if self._support is None:
            raise EvaluationError(f"{self.kind} body has no exact support evaluator")
        return self._support

    # -- evaluator resolution ------------------------------------------------

    @property
    def can_project(self):
        return self._project is not None or self._support is not None

    def _project_batch(self, X):
        if self._project is not None:
            return self._project(X)
        if self._support is not None:
            return optimize.nearest_points(self._support, X)
        raise EvaluationError(f"{self.kind} body has no projection route")

    def _distance_batch(self, X):
        if self._distance is not None:
            return self._distance(X)
        Y = self._project_batch(X)
        return row_norms(X - Y)


# ---------------------------------------------------------------------------
# iterative projection machinery
# ---------------------------------------------------------------------------


def dykstra(projectors, X, tol=1e-10, max_iter=PROJECT_CAP):
    """Cyclic corrected projections onto an intersection, batched over rows;
    a row stops after a sweep that moves it by at most tol, as it would
    alone.  A row still moving after max_iter sweeps raises."""
    Y = np.array(X, dtype=float, copy=True)
    corr = [np.zeros_like(Y) for _ in projectors]
    live = np.arange(Y.shape[0])
    sweeps = 0
    while live.size:
        if sweeps == max_iter:
            raise EvaluationError("cyclic projection failed to reach tolerance "
                                  f"{tol} within {max_iter} iterations")
        sweeps += 1
        W = prev = Y[live]
        for i, proj in enumerate(projectors):
            Z = W + corr[i][live]
            W = np.asarray(proj(Z), dtype=float)
            corr[i][live] = Z - W
        Y[live] = W
        moved = np.max(np.abs(W - prev), axis=1)
        live = live[~(moved <= tol)]  # a NaN row keeps moving
    return Y


def _bisection_gauge(contains, bracket):
    """Gauge from membership alone, as one smooth piece: bisect the boundary
    radius along each row's direction below bracket(units), an upper bound
    on the radial function at the unit rows.  Where the bracket is infinite,
    the first radius 1, 2, 4, ... whose point leaves the body is the bracket;
    a row still inside after BISECTION_STEPS doublings has gauge 0."""
    def gauge(X):
        nrm = row_norms(X)
        units = X / np.where(nrm > 0, nrm, 1.0)[:, None]
        top = np.array(np.broadcast_to(bracket(units), nrm.shape), dtype=float)
        grow = np.flatnonzero(~np.isfinite(top) & (nrm > 0))
        for radius in 2.0 ** np.arange(BISECTION_STEPS):
            if not grow.size:
                break
            inside = np.asarray(contains(units[grow] * radius), dtype=bool)
            top[grow[~inside]] = radius
            grow = grow[inside]
        bounded = np.isfinite(top)
        lo = np.zeros(X.shape[0])
        hi = np.where(bounded, top, 0.0) * (1.0 + 1e-9) + 1e-30
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            inside = np.asarray(contains(units * mid[:, None]), dtype=bool)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((nrm == 0.0) | ~bounded, 0.0, nrm / lo)

    return (Piece("smooth", value=gauge),)


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------


def _finite(value, field_name):
    """value, or SpecError naming the field when an entry is not finite."""
    if not np.all(np.isfinite(value)):
        raise SpecError(f"{field_name}: must be finite, got {np.asarray(value).tolist()}")
    return value


def _positive(value, field_name):
    value = _finite(float(value), field_name)
    if not value > 0.0:
        raise SpecError(f"{field_name}: must be strictly positive, got {value}")
    return value


def ball(dim: int, radius: float) -> Body:
    """Euclidean ball of the given radius; radius 0 is the degenerate origin."""
    if dim < 1:
        raise SpecError(f"dim: must be >= 1, got {dim}")
    r = _finite(float(radius), "radius")
    if r < 0:
        raise SpecError(f"radius: must be nonnegative, got {radius}")
    if r == 0.0:
        return Body(
            dim,
            support=(Piece("l2", np.zeros((dim, dim))),),
            gauge=(Piece("smooth", value=lambda X: np.where(
                row_norms(X) == 0.0, 0.0, np.inf)),),
            project=lambda X: np.zeros_like(X),
            distance=row_norms,
            inner_radius=0.0, outer_radius=0.0, symmetric=True,
            kind="ball", spec=BodySpec("ball", {"dim": dim, "radius": 0.0}),
        )

    def proj(X):
        nrm = row_norms(X)
        f = np.where(nrm > r, r / np.where(nrm > 0, nrm, 1.0), 1.0)
        return X * f[:, None]

    return Body(
        dim,
        support=(Piece("l2", r * np.eye(dim)),),
        gauge=(Piece("l2", np.eye(dim) / r),),
        project=proj,
        distance=lambda X: np.maximum(row_norms(X) - r, 0.0),
        inner_radius=r, outer_radius=r, symmetric=True,
        kind="ball", spec=BodySpec("ball", {"dim": dim, "radius": r}),
    )


def cube(dim: int, half_width: float) -> Body:
    """Axis-aligned cube [-a, a]^n."""
    a = _positive(half_width, "half_width")

    def dist(X):
        excess = np.maximum(np.abs(X) - a, 0.0)
        return row_norms(excess)

    return Body(
        dim,
        support=(Piece("l1", a * np.eye(dim)),),
        gauge=(_abs_rows(np.eye(dim) / a),),
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

    return Body(
        dim,
        support=(_abs_rows(r * np.eye(dim)),),
        gauge=(Piece("l1", np.eye(dim) / r),),
        project=lambda X: _l1_project(X, r),
        inner_radius=r / math.sqrt(dim), outer_radius=r, symmetric=True,
        kind="cross_polytope", spec=BodySpec("cross_polytope", {"dim": dim, "radius": r}),
    )


def ellipsoid(semiaxes) -> Body:
    """Axis-aligned ellipsoid given by its semiaxis lengths."""
    s = np.asarray(semiaxes, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise SpecError("semiaxes: must be a nonempty vector")
    if not (_finite(s, "semiaxes") > 0).all():
        raise SpecError("semiaxes: must be strictly positive")
    dim = s.size
    s2 = s * s

    def proj(X):
        g = row_norms(X / s)
        out = np.array(X, copy=True)
        mask = g > 1.0
        if mask.any():
            Xo = X[mask]
            lo = np.zeros(Xo.shape[0])
            hi = s.max() * row_norms(Xo)
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
        project=proj,
        inner_radius=float(s.min()), outer_radius=float(s.max()), symmetric=True,
        kind="ellipsoid", spec=BodySpec("ellipsoid", {"semiaxes": s.tolist()}),
    )


def slab_body(normals, widths) -> Body:
    """Intersection of symmetric slabs {x : |<n_i, x>| <= w_i}.

    Normals need not be unit; each pair is renormalized to (n_i, w_i)
    with |n_i| = 1.  Unbounded when the normals do not span, in which case
    outer_radius is infinite.  The body projects as the polyhedron
    [N; -N] x <= [w; w] (optimize.polyhedron_points), so one normal's
    points are its clip.

    The body is {x : |A x|_inf <= 1} for A = diag(1/w) N, the polar of
    conv(+-A_i), so its support at u is that polytope's gauge at u B^T on
    the span of the normals (B: the rows of V^T from their SVD that span
    them, rank r; I when r = n).  Independent normals (r = m) give the
    closed form |u B^T (A B^T)^-1|_1, an l1 piece with its 2^m sign rows
    implicit.  More normals take the polar's facets from Qhull, whose
    count grows exponentially with r (12 for m = 5 in R^3, about 1300 for
    12 in R^8, 45 000 for 16 in R^12, built in 0.6 s), so such slabs suit
    small dimensions.  When r < n a piece is 0 where |u C^T| <= ORTHO_TOL
    |u| (C the other rows of V^T) and +inf elsewhere.  No route is an LP.
    """
    N = np.atleast_2d(np.asarray(normals, dtype=float))
    w = np.atleast_1d(np.asarray(widths, dtype=float))
    if N.shape[0] != w.shape[0]:
        raise SpecError("widths: must match the number of normals")
    if not (_finite(w, "widths") > 0).all():
        raise SpecError("widths: must be strictly positive")
    norms = row_norms(_finite(N, "normals"))
    if not (norms > 0).all():
        raise SpecError("normals: zero normal vector")
    Nh = N / norms[:, None]
    wh = w / norms
    dim = N.shape[1]

    sv = np.linalg.svd(Nh, compute_uv=False)
    rank = int((sv > 1e-12).sum())
    r_out = float(np.linalg.norm(wh) / sv[dim - 1]) if rank == dim else math.inf

    facets, offsets = np.vstack([Nh, -Nh]), np.concatenate([wh, wh])
    A = Nh / wh[:, None]
    # the full SVD's values differ from sv in their last bits, so the
    # radius keeps sv and the span takes only V^T from it
    Vt = np.linalg.svd(Nh)[2]
    B = Vt[:rank] if rank < dim else np.eye(dim)
    AB = A @ B.T
    if rank == len(A):
        support = map_pieces((Piece("l1", np.linalg.inv(AB)),), B.T)
    else:
        support = map_pieces(vertex_polytope(np.vstack([AB, -AB])).gauge_pieces, B.T)
    if rank < dim:
        C = Vt[rank:]
        support += (Piece("smooth", value=lambda U: np.where(
            row_norms(U @ C.T) <= ORTHO_TOL * row_norms(U), 0.0, np.inf)),)

    return Body(
        dim,
        support=support,
        gauge=(_abs_rows(A),),
        project=lambda X: optimize.polyhedron_points(facets, offsets, X),
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
        return np.hypot(np.asarray(first._distance_batch(A), dtype=float),
                        np.asarray(second._distance_batch(B), dtype=float))

    def proj(X):
        A, B = split(X)
        return np.hstack([first._project_batch(A), second._project_batch(B)])

    spec = None
    if first.spec is not None and second.spec is not None:
        spec = BodySpec("product", {"first": first.spec, "second": second.spec})

    eye = np.eye(dim)
    support = None
    if first._support is not None and second._support is not None:
        support = sum_pieces((map_pieces(first._support, eye[:, :d1]),
                              map_pieces(second._support, eye[:, d1:])))

    return Body(
        dim,
        support=support,
        gauge=(map_pieces(first.gauge_pieces, eye[:, :d1])
               + map_pieces(second.gauge_pieces, eye[:, d1:])),
        membership=membership,
        project=proj if first.can_project and second.can_project else None,
        distance=dist,
        inner_radius=min(first.inner_radius, second.inner_radius),
        outer_radius=math.hypot(first.outer_radius, second.outer_radius)
        if math.isfinite(first.outer_radius) and math.isfinite(second.outer_radius) else math.inf,
        symmetric=first.symmetric and second.symmetric,
        truncated=first.truncated or second.truncated,
        kind="product", spec=spec, factors=(first, second),
    )


def vertex_polytope(vertices) -> Body:
    """Convex hull of a finite full-dimensional vertex list, the polyhedron
    A x <= b of its hull facets, each once, through which it projects
    (optimize.polyhedron_points).  Its gauge is the facet max
    max_i A_i x / b_i when the origin is interior, and otherwise the
    facet gauge, +inf where no dilate holds x.  It is symmetric when the
    vertex list is centrally symmetric."""
    V = _finite(np.atleast_2d(np.asarray(vertices, dtype=float)), "vertices")
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
        # Qhull triangulates each facet, and its triangles share the
        # facet's equation bit for bit: keep one copy, in Qhull's order
        _, first = np.unique(hull.equations, axis=0, return_index=True)
        eq = hull.equations[np.sort(first)]
        A, b = eq[:, :-1], -eq[:, -1]

    def _rows_sorted(A):
        return A[np.lexsort(A.T[::-1])]

    symmetric = bool(np.allclose(_rows_sorted(np.round(V, 12)),
                                 _rows_sorted(np.round(-V, 12)), atol=1e-9))

    interior0 = bool((b > FACET_TOL).all())

    def facet_gauge(X):
        # x is in tP for t > 0 iff A_i x <= t b_i for every facet i: the
        # facets with b_i > 0 bound t from below, those with b_i < 0 from
        # above, and those through the origin admit no t when A_i x > 0
        T = X @ A.T
        g = np.max(T[:, b > FACET_TOL] / b[b > FACET_TOL], axis=1, initial=0.0)
        top = np.min(T[:, b < -FACET_TOL] / b[b < -FACET_TOL], axis=1, initial=np.inf)
        blocked = np.any(T[:, np.abs(b) <= FACET_TOL] > 0.0, axis=1)
        return np.where(blocked | (g > top), np.inf, g)

    def membership(X):
        return (X @ A.T <= b + DIST_TOL).all(axis=1)

    return Body(
        dim,
        support=(Piece("linear", V),),
        gauge=(Piece("linear", A / b[:, None]) if interior0
               else Piece("smooth", value=facet_gauge),),
        membership=membership,
        project=lambda X: optimize.polyhedron_points(A, b, X),
        inner_radius=float(b.min()) if interior0 else 0.0,
        outer_radius=float(row_norms(V).max()),
        symmetric=symmetric,
        kind="vertex_polytope",
        spec=BodySpec("vertex_polytope", {"vertices": V.tolist()}),
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

@dataclass(frozen=True)
class BodySpec:
    """Declarative body description: a kind tag plus numeric parameters.

    Serializes to a flat JSON object {"kind": ..., <params>}; nested specs
    (products, cylinders) recurse.  _CATALOG lists the fields of a kind.
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
        params = {key: val for key, val in data.items() if key != "kind"}
        _, required, _ = _catalog_entry(kind, params)
        for key, cast in required.items():
            if cast is construct_body:
                params[key] = cls.from_json_dict(params[key])
        return cls(kind, params)


def construct_body(spec: BodySpec) -> Body:
    """Build the catalog body described by a spec (or its JSON object): a
    field whose cast fails raises SpecError naming it, and an optional
    field the spec omits or sets to null takes the constructor's default."""
    if not isinstance(spec, BodySpec):
        spec = BodySpec.from_json_dict(spec)
    p = spec.params
    make, required, optional = _catalog_entry(spec.kind, p)
    fields = {**required, **{key: cast for key, cast in optional.items()
                             if p.get(key) is not None}}
    return make(**{key: read_field(cast, p[key], key, SpecError)
                   for key, cast in fields.items()})


def _float_array(value):
    return np.asarray(value, dtype=float)


# kind -> (constructor, required fields, optional fields), each field with
# its cast; the fields are named as the constructor's parameters
_CATALOG = {
    "ball": (ball, {"dim": int, "radius": float}, {}),
    "cube": (cube, {"dim": int, "half_width": float}, {}),
    "cross_polytope": (cross_polytope, {"dim": int, "radius": float}, {}),
    "ellipsoid": (ellipsoid, {"semiaxes": _float_array}, {}),
    "slab_intersection": (slab_body, {"normals": _float_array, "widths": _float_array}, {}),
    "product": (product_body, {"first": construct_body, "second": construct_body}, {}),
    "vertex_polytope": (vertex_polytope, {"vertices": _float_array}, {}),
    "truncated_cylinder": (truncated_cylinder, {"core": construct_body, "dim": int},
                           {"transverse_radius": float, "truncation_radius": float}),
}


def _catalog_entry(kind, keys):
    """The _CATALOG entry of kind, once keys are known to be its fields."""
    if kind not in _CATALOG:
        raise SpecError(f"kind: unknown body kind {kind!r}")
    make, required, optional = _CATALOG[kind]
    for key in keys:
        if key not in required and key not in optional:
            raise SpecError(f"unknown field {key!r} for body kind {kind!r}")
    missing = sorted(set(required) - set(keys))
    if missing:
        raise SpecError(f"missing field {missing[0]!r} for body kind {kind!r}")
    return make, required, optional


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def check_dims(K: Body, L: Body):
    if K.dim != L.dim:
        raise DomainError(f"dimension mismatch: {K.dim} vs {L.dim}")


def ball_factors(K: Body) -> tuple:
    """The Euclidean balls K is made of: (K,) when K is a ball, K.factors
    when both are balls (K is then an orthogonal image of their product),
    and () otherwise.  A ball is read off the certified radii, not the
    kind: an untruncated body with inner_radius == outer_radius is the ball
    of that radius, as inner_radius <= radial(u) <= outer_radius."""
    if not K.truncated and K.inner_radius == K.outer_radius:
        return (K,)
    if K.factors is not None and all(len(ball_factors(F)) == 1 for F in K.factors):
        return K.factors
    return ()


def _polyhedral_project(gauge, dim):
    """The projection onto {x : max(gauge)(x) <= 1} when that gauge is
    polyhedral, max_i <P_i, x> (see optimize._polyhedral_rows): the
    polyhedron P x <= 1, which projects by least distance.  None when the
    gauge is not polyhedral."""
    rows = optimize._polyhedral_rows(gauge, dim)
    if rows is None:
        return None
    ones = np.ones(len(rows))
    return lambda X: optimize.polyhedron_points(rows, ones, X)


def intersect(K: Body, L: Body) -> Body:
    """Intersection: gauges take the max, radials the min.  It has no support
    evaluator: the min of the two supports is only an upper bound.  With
    the origin inside, a polyhedral joined gauge makes it a polyhedron,
    which projects by least distance (_polyhedral_project); otherwise,
    when both parts project, it projects by cyclic corrected projections."""
    check_dims(K, L)
    gauge = K.gauge_pieces + L.gauge_pieces
    inner = min(K.inner_radius, L.inner_radius)
    project = _polyhedral_project(gauge, K.dim) if inner > 0 else None
    if project is None and K.can_project and L.can_project:
        def project(X):
            return dykstra([K._project_batch, L._project_batch], X)

    return Body(
        K.dim,
        gauge=gauge,
        membership=lambda X: np.asarray(K.contains(X)) & np.asarray(L.contains(X)),
        project=project,
        inner_radius=inner,
        outer_radius=min(K.outer_radius, L.outer_radius),
        symmetric=K.symmetric and L.symmetric,
        truncated=K.truncated or L.truncated,
        kind="intersection",
    )


def neighborhood(K: Body, eps: float) -> Body:
    """K + eps B, the Minkowski sum with the eps-ball: x belongs iff its
    distance to K is at most eps.  eps = 0 returns K itself, and the
    neighborhood of a ball is the exact ball, of kind "ball"."""
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    if eps == 0:
        return K
    out = minkowski_sum(K, ball(K.dim, eps))
    if out.kind != "ball":
        out.kind = "neighborhood"
    return out


def minkowski_sum(K: Body, L: Body) -> Body:
    """Minkowski sum K + L, the one construction of every sum of two
    bodies.  Two balls (as ball_factors finds them) give a ball, and a
    radius-0 ball summand returns the other summand itself, unchanged.
    Two polytopes whose supports are single linear pieces, with rows P
    and R, so that they are conv(P) and conv(R), give the vertex polytope
    of the row sums P_i + R_j (P's rows major) when those span R^n
    affinely.  Otherwise support functions add exactly (the sum has a
    support when both summands have one).  A ball summand of radius r
    gives the distance max(d_K - r, 0) and, when K projects, the
    closed-form projection; any other pair needs both supports and takes
    its distance from the dual program over the summed support.
    Membership is distance <= DIST_TOL, and the gauge bisects distance
    <= 0, the true boundary.  The inner radii add when each summand holds
    the origin (inner radius > 0 or a member), and are 0 otherwise."""
    check_dims(K, L)
    if len(ball_factors(K)) == 1:
        K, L = L, K
    r = L.outer_radius if len(ball_factors(L)) == 1 else None
    if r is not None:
        if len(ball_factors(K)) == 1:
            return ball(K.dim, K.outer_radius + r)
        if r == 0.0:
            return K
        L = ball(L.dim, r)

    support = None
    if K._support is not None and L._support is not None:
        if all(len(S._support) == 1 and S._support[0].kind == "linear" for S in (K, L)):
            sums = (K._support[0].matrix[:, None, :] + L._support[0].matrix).reshape(-1, K.dim)
            if np.linalg.matrix_rank(sums - sums[0]) == K.dim:
                out = vertex_polytope(sums)
                out.kind = "minkowski_sum"
                return out
        support = sum_pieces((K._support, L._support))
    distance = project = None
    if r is not None:
        def distance(X):
            return np.maximum(np.asarray(K._distance_batch(X), dtype=float) - r, 0.0)

        if K.can_project:
            def project(X):
                Y = K._project_batch(X)
                diff = X - Y
                d = row_norms(diff)
                outside = d > r
                scale = np.where(outside, r / np.where(d > 0, d, 1.0), 1.0)
                return np.where(outside[:, None], Y + diff * scale[:, None], X)
    elif support is None:
        raise EvaluationError("a generic Minkowski sum needs the support of both summands")

    r_out = K.outer_radius + L.outer_radius

    def bracket(U):
        # L lies in R_L B, inside (R_L / r_K) K, so K + L lies in (1 + R_L / r_K) K
        if K.inner_radius == 0:
            return r_out
        grown = (1.0 + L.outer_radius / K.inner_radius) * np.asarray(K.radial(U), dtype=float)
        return np.minimum(grown, r_out)

    around0 = all(S.inner_radius > 0 or S.contains(np.zeros(S.dim)) for S in (K, L))
    out = Body(
        K.dim,
        support=support,
        gauge=_bisection_gauge(lambda X: out._distance_batch(X) <= 0.0, bracket),
        membership=lambda X: out._distance_batch(X) <= DIST_TOL,
        project=project,
        distance=distance,
        inner_radius=K.inner_radius + L.inner_radius if around0 else 0.0,
        outer_radius=r_out,
        symmetric=K.symmetric and L.symmetric,
        truncated=K.truncated or L.truncated,
        kind="minkowski_sum",
    )
    return out


def orthonormal_frame(F, dim: int, k: int | None = None) -> np.ndarray:
    """F as a float (k, dim) array whose rows are orthonormal to ORTHO_TOL,
    1 <= k <= dim: a frame of a k-dimensional subspace of R^dim, and for
    k = dim an orthogonal matrix.  k None takes any row count; a given k
    is required.  Raises DomainError."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != dim or not 1 <= F.shape[0] <= dim \
            or (k is not None and F.shape[0] != k):
        rows = f"{k}" if k is not None else f"1..{dim}"
        raise DomainError(f"frame must be ({rows}, {dim}), got shape {F.shape}")
    resid = float(np.max(np.abs(F @ F.T - np.eye(F.shape[0]))))
    if resid > ORTHO_TOL:
        raise DomainError(f"frame rows are not orthonormal (residual {resid:.2e} > {ORTHO_TOL})")
    return F


def linear_image(K: Body, Q, scale: float = 1.0) -> Body:
    """Image of the body under x -> scale * Q x, for Q an orthogonal matrix
    and scale > 0: rotations, reflections and dilations.
    Every evaluator conjugates and each factor is dilated by scale; the
    support pieces map along, so the support rows P of a polytope conv(P)
    become scale * P Q^T, the points of its image.  The support evaluator
    stays absent when K has none.  The image of a ball (ball_factors) is a
    ball."""
    Q = orthonormal_frame(Q, K.dim, K.dim)
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    t = float(scale)
    if len(ball_factors(K)) == 1:
        return ball(K.dim, t * K.outer_radius)

    project = None
    if K.can_project:
        def project(X):
            return t * (K._project_batch((X @ Q) / t) @ Q.T)

    return Body(
        K.dim,
        support=None if K._support is None else map_pieces(K._support, Q, t),
        gauge=map_pieces(K.gauge_pieces, Q / t),
        membership=lambda X: np.asarray(K.contains((X @ Q) / t)),
        project=project,
        distance=lambda X: t * np.asarray(K._distance_batch((X @ Q) / t)),
        inner_radius=t * K.inner_radius, outer_radius=t * K.outer_radius,
        symmetric=K.symmetric, truncated=K.truncated,
        kind="linear_image",
        factors=None if K.factors is None
        else tuple(linear_image(F, np.eye(F.dim), t) for F in K.factors),
    )


def polar(K: Body) -> Body:
    """Polar body: support and gauge pieces swap roles.  K must carry an
    exact support, which becomes the polar's gauge.  When that support is
    polyhedral, the polar is a polyhedron, which projects by least
    distance (_polyhedral_project)."""
    if not K.symmetric:
        raise DomainError("polar requires a symmetric body")
    if not K.inner_radius > 0:
        raise DomainError("polar of a body with inner radius 0 is unbounded; rejected")
    gauge = K.support_pieces  # raises EvaluationError for a body without a support
    return Body(
        K.dim,
        support=K.gauge_pieces,
        gauge=gauge,
        membership=lambda X: np.asarray(K.support(X)) <= 1.0 + GAUGE_TOL,
        project=_polyhedral_project(gauge, K.dim),
        inner_radius=1.0 / K.outer_radius if math.isfinite(K.outer_radius) else 0.0,
        outer_radius=1.0 / K.inner_radius,
        symmetric=True,
        kind="polar",
    )


def difference_body(K: Body) -> Body:
    """K - K, the Minkowski sum K + (-K); support values in u and -u add.
    Always symmetric; equals the dilate 2K when K is already symmetric."""
    if K.symmetric:
        out = linear_image(K, np.eye(K.dim), 2.0)
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


def mc_volume(K: Body, samples: int, seed=None):
    """Hit-or-miss volume estimate inside the outer-radius ball, with its
    standard error.  Each ball point is one row of K.dim + 2 Gaussians
    (see _util.ball_points), drawn in seeded blocks and chunks of that
    width (see _util.hit_fraction), so peak memory does not grow with
    samples or the dimension, and the estimate depends neither on the
    chunk size nor on the worker count.  When no sample
    hits, the error term is the rule of three's one-sided 95% bound,
    box volume times 3 / samples, not a standard error of 0.  Unbounded
    bodies are rejected."""
    if not math.isfinite(K.outer_radius):
        raise DomainError("mc_volume requires a bounded body (finite outer radius)")
    r = K.outer_radius
    box_vol = unit_ball_volume(K.dim) * r ** K.dim
    # a body of outer radius 0 has volume 0, and its points are not drawn
    p, se = hit_fraction(samples, K.dim + 2,
                         lambda rng, m: K.contains(ball_points(rng, m, K.dim, r)) if r > 0 else 0,
                         seed)
    return box_vol * p, box_vol * (se if p > 0 else 3.0 / samples)


def volume_ratio(K: Body, samples: int, seed=None) -> float:
    """n-th root of the volume of K relative to the unit ball, after
    unit_ball_check of B in K with the identity frame, which raises
    HypothesisError when it refutes it.  EvaluationError: K has no support,
    or no volume sample hit it (the estimate then only bounds the ratio)."""
    unit_ball_check(K, np.eye(K.dim), what="K")
    vol, _ = mc_volume(K, samples, seed=seed)
    if vol == 0.0:
        raise EvaluationError(f"no one of {samples} volume samples hit the body")
    return float((vol / unit_ball_volume(K.dim)) ** (1.0 / K.dim))


def unit_ball_check(K: Body, F, opt: optimize.OptimizerConfig = optimize.DEFAULT_OPT,
                    what="P K"):
    """The one check that the unit ball lies in the projection of K onto
    the span of F (k, n), an orthonormal frame: the optimizer's min of
    h_K(w F) over unit w.  Returns (status, result), "certified" when
    result.lower >= 1 - GAUGE_TOL and "unverified" when neither bound
    decides; the result's direction is the witness w F.  A value below
    1 - GAUGE_TOL refutes the hypothesis and raises HypothesisError,
    labelled by what, with that witness.  F is checked by
    orthonormal_frame (DomainError); no support: EvaluationError."""
    F = orthonormal_frame(F, K.dim)
    res = optimize.minimize_on_sphere_batch(map_pieces(K.support_pieces, F), len(F), 1, opt)[0]
    witness = res.direction @ F
    if res.value < 1.0 - GAUGE_TOL:
        raise HypothesisError(f"{what}: projected body does not contain the unit ball "
                              f"(support {res.value:.12g} < 1)", witness=witness)
    status = "certified" if res.lower is not None and res.lower >= 1.0 - GAUGE_TOL else "unverified"
    return status, replace(res, direction=witness)
