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
closed-form pieces.  Combinators (intersection, Minkowski sum,
similarity image, polar) compose pieces: an intersection joins the gauge
pieces, a sum adds the support maxima, a product zero-pads its blocks'
pieces, an image maps them and a polar swaps them.  minkowski_sum is the
one construction of a sum of two bodies: the eps-neighborhood is the sum
with the eps-ball and the difference body is K + (-K).  Every sum of
support pieces is built by pieces.sum_pieces.  Where no closed form exists,
projection and distance fall back to programs built on the bodies' own
oracles: cyclic corrected projections for intersections (iteration cap
10^4, which raises), and the dual distance program of
optimize.nearest_points for every other body with support pieces.  An
intersection has no support evaluator: the minimum of the two supports
is only an upper bound.

Lower-dimensional bodies (radius-0 balls and their products) carry an
infinite gauge off their affine hull; membership and distance go through
the orthogonal decomposition instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import optimize
from ._util import ball_points, hit_fraction, read_field, row_norms, strict_bool
from .errors import ContainmentError, DomainError, EvaluationError, SpecError
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


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported at the first call: it is slow to import."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


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
    its support pieces, and one with neither raises EvaluationError.
    vertices holds the vertex array of a vertex polytope or of its linear
    image, and is None for every other body.  factors holds bodies (first,
    second) such that K is an orthogonal image of first x second, and is
    None for every other body.  kind is only a label: ball_factors says
    whether a body is a ball or a product of two balls.
    """

    def __init__(self, dim, *, gauge, support=None, membership=None,
                 project=None, distance=None,
                 inner_radius, outer_radius, symmetric, truncated=False,
                 kind="custom", spec=None, vertices=None, factors=None):
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
        self.vertices = vertices
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
    if not (s > 0).all():
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

    Normals need not be unit; each pair is renormalized.  Unbounded when
    the normals do not span, in which case outer_radius is infinite.
    When the normals form a basis, the body is {x : |A x|_inf <= 1} for
    A = diag(1/w) N, and its support is the closed form |u A^-1|_1 (an
    l1 piece); any other slab body's support is an LP per row.
    """
    N = np.atleast_2d(np.asarray(normals, dtype=float))
    w = np.atleast_1d(np.asarray(widths, dtype=float))
    if N.shape[0] != w.shape[0]:
        raise SpecError("widths: must match the number of normals")
    if not (w > 0).all():
        raise SpecError("widths: must be strictly positive")
    norms = row_norms(N)
    if not (norms > 0).all():
        raise SpecError("normals: zero normal vector")
    Nh = N / norms[:, None]
    wh = w / norms
    dim = N.shape[1]

    sv = np.linalg.svd(Nh, compute_uv=False)
    full_rank = sv.size >= dim and sv[min(dim, sv.size) - 1] > 1e-12
    r_out = float(np.linalg.norm(wh) / sv[dim - 1]) if full_rank else math.inf

    def lp_support(U):
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

    A = Nh / wh[:, None]
    if full_rank and A.shape[0] == dim:
        support = Piece("l1", np.linalg.inv(A))
    else:
        support = Piece("smooth", value=lp_support)

    return Body(
        dim,
        support=(support,),
        gauge=(_abs_rows(A),),
        project=lambda X: dykstra(projectors, X),
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
            if res.status == 2:  # infeasible: x is outside the cone of V
                vals[i] = np.inf
            elif res.success:
                vals[i] = res.fun
            else:
                raise EvaluationError(f"gauge LP failed: {res.message}")
        return vals

    def membership(X):
        return (X @ A.T <= b + DIST_TOL).all(axis=1)

    return Body(
        dim,
        support=(Piece("linear", V),),
        gauge=(Piece("linear", A / b[:, None]) if interior0
               else Piece("smooth", value=gauge_lp),),
        membership=membership,
        inner_radius=float(b.min()) if interior0 else 0.0,
        outer_radius=float(row_norms(V).max()),
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
    "vertex_polytope": (vertex_polytope, {"vertices": _float_array}, {"symmetric": strict_bool}),
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


def intersect(K: Body, L: Body) -> Body:
    """Intersection: gauges take the max, radials the min.  It has no support
    evaluator: the min of the two supports is only an upper bound."""
    check_dims(K, L)
    project = None
    if K.can_project and L.can_project:
        def project(X):
            return dykstra([K._project_batch, L._project_batch], X)

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
    bodies.  Two balls (as ball_factors finds them) give a ball, a radius-0
    ball summand returns the other summand itself, unchanged, and two
    bodies with vertex lists give the hull of their vertex sums.  Otherwise support functions add
    exactly (the sum has a support when both summands have one).  A ball
    summand of radius r gives the distance max(d_K - r, 0) and, when K
    projects, the closed-form projection; any other pair needs both
    supports and takes its distance from the dual program over the summed
    support.  Membership is distance <= DIST_TOL, and the gauge bisects
    distance <= 0, the true boundary."""
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
    if K.vertices is not None and L.vertices is not None:
        sums = (K.vertices[:, None, :] + L.vertices[None, :, :]).reshape(-1, K.dim)
        out = vertex_polytope(sums)
        out.kind = "minkowski_sum"
        return out

    support = None
    if K._support is not None and L._support is not None:
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

    out = Body(
        K.dim,
        support=support,
        gauge=_bisection_gauge(lambda X: out._distance_batch(X) <= 0.0, bracket),
        membership=lambda X: out._distance_batch(X) <= DIST_TOL,
        project=project,
        distance=distance,
        inner_radius=K.inner_radius + L.inner_radius,
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
    Every evaluator conjugates, the vertex list maps along and each factor
    is dilated by scale; the support evaluator stays absent when K has
    none.  The image of a ball (ball_factors) is a ball."""
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
        vertices=None if K.vertices is None else t * K.vertices @ Q.T,
        factors=None if K.factors is None
        else tuple(linear_image(F, np.eye(F.dim), t) for F in K.factors),
    )


def polar(K: Body) -> Body:
    """Polar body: support and gauge pieces swap roles.  K must carry an
    exact support, which becomes the polar's gauge."""
    if not K.symmetric:
        raise DomainError("polar requires a symmetric body")
    if not K.inner_radius > 0:
        raise DomainError("polar of a body with inner radius 0 is unbounded; rejected")
    return Body(
        K.dim,
        support=K.gauge_pieces,
        gauge=K.support_pieces,  # raises EvaluationError for a body without a support
        membership=lambda X: np.asarray(K.support(X)) <= 1.0 + GAUGE_TOL,
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
    """n-th root of the volume of K relative to the unit ball.  First
    unit_ball_check with the identity frame: a refuted check raises
    ContainmentError with its witness.  EvaluationError: K has no support,
    or no volume sample hit it (the estimate then only bounds the ratio)."""
    status, res = unit_ball_check(K, np.eye(K.dim))
    if status == "refuted":
        raise ContainmentError(f"unit ball not contained: support {res.value:.12g} < 1 "
                               f"on a sphere direction", direction=res.direction)
    vol, _ = mc_volume(K, samples, seed=seed)
    if vol == 0.0:
        raise EvaluationError(f"no one of {samples} volume samples hit the body")
    return float((vol / unit_ball_volume(K.dim)) ** (1.0 / K.dim))


def unit_ball_check(K: Body, F, opt: optimize.OptimizerConfig = optimize.DEFAULT_OPT):
    """(status, result) of the optimizer's min of h_K(w F) over unit w, for
    F (k, n) an orthonormal frame: "certified" (the unit ball lies in the
    projection of K onto F's span) when result.lower >= 1 - GAUGE_TOL,
    "refuted" when result.value is below that, else "unverified"; the
    result's direction is the witness w F.  F is checked by
    orthonormal_frame (DomainError); no support: EvaluationError."""
    F = orthonormal_frame(F, K.dim)
    res = optimize.minimize_on_sphere_batch(map_pieces(K.support_pieces, F), len(F), 1, opt)[0]
    status = ("certified" if res.lower is not None and res.lower >= 1.0 - GAUGE_TOL
              else "refuted" if res.value < 1.0 - GAUGE_TOL else "unverified")
    return status, replace(res, direction=res.direction @ F)
