import inspect
import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from waistlab import _util, optimize
from waistlab._util import row_norms, sphere_points
from waistlab.bodies import (BodySpec, ball, ball_factors, construct_body,
                             cross_polytope, cube, dykstra,
                             difference_body, ellipsoid, intersect, linear_image,
                             mc_volume, minkowski_sum, neighborhood, polar,
                             product_body, slab_body, truncated_cylinder,
                             unit_ball_check, unit_ball_volume, vertex_polytope,
                             volume_ratio)
from waistlab.errors import DomainError, EvaluationError, HypothesisError, SpecError
from waistlab.estimators import diameter_of_intersection
from waistlab.geometry import haar_rotation, haar_rotations
from waistlab.optimize import nearest_points
from waistlab.pieces import Piece, map_pieces, sum_pieces


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


SIMPLEX = np.array([[1.0, 0.2, -0.3], [-0.4, 1.1, 0.0],
                    [-0.5, -0.6, 0.9], [0.1, -0.3, -1.0]])


# five normals of R^3: a bounded slab body whose support comes from the
# polar's Qhull facets, not from an l1 piece
SLAB5 = np.random.default_rng(5).normal(size=(5, 3))

# the eight vertices of the cube [-1, 1]^3
CUBE8 = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1],
                  [-1, -1, 1], [-1, 1, -1], [1, -1, -1], [-1, -1, -1]], dtype=float)


def catalog3():
    simplex = vertex_polytope(SIMPLEX)
    return [ball(3, 1.5), cube(3, 0.8), cross_polytope(3, 1.2),
            ellipsoid([1.0, 2.0, 0.5]),
            vertex_polytope(CUBE8),
            linear_image(simplex, haar_rotation(3, seed=21)),
            linear_image(ellipsoid([1.0, 2.0, 0.5]), np.eye(3), 1.7),
            linear_image(cube(3, 0.8), -np.eye(3)),
            slab_body(np.eye(3)[:2], [0.9, 0.6]),
            slab_body(SLAB5, 1.05 * np.linalg.norm(SLAB5, axis=1)),
            minkowski_sum(cross_polytope(3, 0.6), vertex_polytope(CUBE8))]


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------


def test_cube_anchors():
    K = cube(4, 1.0)
    assert K.support(np.eye(4)[0]) == 1.0
    assert K.gauge(np.ones(4)) == 1.0
    assert K.contains(np.ones(4))


def test_cross_polytope_support_anchor():
    K = cross_polytope(2, 1.0)
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    # the l1-ball support is the sup-norm of the direction
    assert K.support(u) == pytest.approx(max(abs(u)), abs=1e-15)
    assert K.support(u) == pytest.approx(0.70711, abs=5e-6)


def test_ellipsoid_anchor():
    E = ellipsoid([1.0, 2.0])
    assert E.gauge([0.0, 2.0]) == pytest.approx(1.0, abs=1e-15)
    assert E.contains([0.0, 2.0])
    assert not E.contains([0.0, 2.0 + 1e-6])


def test_ellipsoid_projection_matches_bisection_oracle():
    E = ellipsoid([1.0, 2.0, 0.5])
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3)) * 3.0
    P = E.project(X)
    assert np.all(np.asarray(E.gauge(P)) <= 1.0 + 1e-9)
    # optimality: the residual must be normal to the ellipsoid at the projection
    for x, p in zip(X, P):
        if float(E.gauge(x)) <= 1.0:
            assert np.allclose(x, p)
            continue
        grad = p / np.array([1.0, 2.0, 0.5]) ** 2
        cosang = (x - p) @ grad / (np.linalg.norm(x - p) * np.linalg.norm(grad))
        assert cosang == pytest.approx(1.0, abs=1e-6)


def test_degenerate_ball_is_origin():
    Z = ball(3, 0.0)
    assert Z.distance([0.3, 0.4, 0.0]) == pytest.approx(0.5, abs=1e-15)
    assert Z.contains([0.0, 0.0, 0.0])
    assert not Z.contains([1e-6, 0.0, 0.0])
    assert math.isinf(Z.gauge([1.0, 0.0, 0.0]))


def test_slab_body_evaluators():
    K = slab_body([[1.0, 0.0], [-1.0, 1.0]], [1.0, 0.5])
    # widths divide by the normal length: second slab is |x2-x1| <= 0.5
    assert K.contains([1.0, 1.2])
    assert not K.contains([1.0, 1.6])
    assert K.gauge([1.0, 1.5]) == pytest.approx(1.0, abs=1e-12)
    assert K.support([1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    assert K.support([0.0, 1.0]) == pytest.approx(1.5, abs=1e-9)


def test_slab_body_unbounded_support():
    K = slab_body([[1.0, 0.0, 0.0]], [0.5])
    assert math.isinf(K.outer_radius)
    assert math.isinf(K.support([0.0, 1.0, 0.0]))


def test_slab_basis_support_is_closed_form():
    # three normals in R^3: the support is one l1 piece, which equals the
    # polar facet support of the same slabs with a redundant fourth slab
    N = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3], [-0.5, 1.0, 1.0]])
    w = [1.1, 1.0, 1.3]
    K = slab_body(N, w)
    (piece,) = K.support_pieces
    assert piece.kind == "l1"
    over = slab_body(np.vstack([N, [1.0, 0.0, 0.0]]), w + [5.0])
    assert over.support_pieces[0].kind == "linear"
    U = sphere_points(np.random.default_rng(30), 50, 3)
    assert np.allclose(K.support(U), over.support(U), rtol=1e-12, atol=0)


def _slab_normals(m, n, rank, seed):
    """m random normals spanning a random rank-dimensional subspace of R^n,
    off the axes when rank < n, and m widths."""
    rng = np.random.default_rng(seed)
    frame = np.linalg.qr(rng.normal(size=(n, n)))[0][:rank]
    return rng.normal(size=(m, rank)) @ frame, rng.uniform(0.3, 1.2, m)


SLAB_CASES = {"basis-3": (3, 3, 3), "basis-6": (6, 6, 6),
              "over-4x3": (4, 3, 3), "over-7x5": (7, 5, 5), "over-12x6": (12, 6, 6),
              "over-12x8": (12, 8, 8),
              "flat-1in3": (1, 3, 1), "flat-2in3": (4, 3, 2), "flat-1in5": (2, 5, 1),
              "flat-3in6": (5, 6, 3), "flat-7in8": (9, 8, 7)}


@pytest.mark.parametrize("m, n, rank", SLAB_CASES.values(), ids=SLAB_CASES)
def test_slab_support_agrees_with_linprog(m, n, rank):
    # the support is the gauge of the polar vertex polytope on the span of
    # the normals: a closed l1 form for independent normals, else one
    # linear piece of the polar's facets; a second piece reads +inf off it
    from scipy.optimize import linprog

    N, w = _slab_normals(m, n, rank, seed=10 * m + n)
    K = slab_body(N, w)
    kinds = ["l1" if rank == m else "linear"] + ["smooth"] * (rank < n)
    assert [p.kind for p in K.support_pieces] == kinds
    Nh, wh = N / row_norms(N)[:, None], w / row_norms(N)
    B = np.linalg.svd(Nh)[2][:rank]
    rng = np.random.default_rng(n)
    U = rng.normal(size=(40, rank)) @ B
    lp = [linprog(-u, A_ub=np.vstack([Nh, -Nh]), b_ub=np.r_[wh, wh],
                  bounds=(None, None), method="highs") for u in U]
    assert all(res.status == 0 for res in lp)
    np.testing.assert_allclose(K.support(U), [-res.fun for res in lp], rtol=1e-9, atol=0)
    if rank < n:
        assert np.all(np.isinf(K.support(rng.normal(size=(40, n)))))


def test_basis_slab_support_stays_closed_form_in_high_dimension():
    # independent normals keep their 2^m sign rows implicit: a basis of
    # R^24 builds and evaluates a thousand rows at once, where its polar
    # cross-polytope would list 2^24 facets
    rng = np.random.default_rng(24)
    N, w = rng.normal(size=(24, 24)), rng.uniform(0.5, 1.5, 24)
    t0 = time.perf_counter()
    K = slab_body(N, w)
    U = rng.normal(size=(1000, 24))
    h = K.support(U)
    assert time.perf_counter() - t0 < 1.0
    assert [p.kind for p in K.support_pieces] == ["l1"]
    A = N / w[:, None]
    np.testing.assert_allclose(h, np.abs(np.linalg.solve(A.T, U.T)).sum(axis=0), rtol=1e-9)


def _slabs(m, seed):
    rng = np.random.default_rng(seed)
    return slab_body(rng.normal(size=(m, 3)), rng.uniform(0.3, 1.2, m))


POLYHEDRA = {
    **{f"slab-m{m}": _slabs(m, 40 + m) for m in (4, 5, 6, 8)},
    **{f"cube-cross-{n}": intersect(cube(n, 1.0), linear_image(cross_polytope(n, 1.3),
                                                               haar_rotation(n, seed=n)))
       for n in (5, 8)},
    **{f"cube-cube-{n}": intersect(cube(n, 1.0), linear_image(cube(n, 0.9),
                                                              haar_rotation(n, seed=n)))
       for n in (5, 8)},
}


@pytest.mark.parametrize("name", POLYHEDRA)
def test_polyhedral_projections_are_exact(name):
    # redundant slab normals and polyhedral intersections project by one
    # least-distance program: every point is a member to 1e-12 relative,
    # and no member y lies beyond the plane through it normal to x - p
    K = POLYHEDRA[name]
    X = 2.0 * np.random.default_rng(7).normal(size=(1000, K.dim))
    P = K.project(X)
    assert not np.all(K.contains(X))
    assert np.max(K.gauge(P)) <= 1.0 + 1e-12
    U = np.random.default_rng(8).normal(size=(300, K.dim))
    Y = U / K.gauge(U)[:, None]  # boundary members
    D = X - P
    assert np.max(D @ Y.T - np.sum(D * P, axis=1)[:, None]) <= 1e-9


_TWELVE = np.random.default_rng(3).standard_normal((12, 3))
_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("V", [_TWELVE, _TRIANGLE], ids=["12-vertex", "triangle"])
@pytest.mark.parametrize("scale", [10.0, 100.0, 1000.0])
def test_far_rows_project_to_their_nearest_points(V, scale):
    # rows far from a polytope keep the least-distance program's digits:
    # each point is a member, and no vertex v lies beyond the plane
    # through p normal to x - p
    K = vertex_polytope(V)
    X = scale * np.random.default_rng(9).standard_normal((300, K.dim))
    P = K.project(X)
    assert np.all(K.contains(P))
    beyond = np.einsum("ij,ikj->ik", X - P, V[None, :, :] - P[:, None, :])
    assert np.all(beyond <= 1e-9 * row_norms(X)[:, None])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_cube_vertex_list_keeps_each_facet_once(n):
    # Qhull's triangles of a facet share its equation: 2 n rows remain, and
    # the vertex polytope's diameters are cube(n)'s, exact by the convex hull
    V = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    K = vertex_polytope(V)
    (piece,) = K.gauge_pieces
    assert piece.matrix.shape == (2 * n, n)
    U = haar_rotations(n, 4, seed=n)
    got = diameter_of_intersection(K, K, U)
    want = diameter_of_intersection(cube(n, 1.0), cube(n, 1.0), U)
    assert all(g.note == "exact (convex hull)" for g in got)
    assert [g.diameter for g in got] == pytest.approx([w.diameter for w in want],
                                                      rel=1e-12, abs=0)


def test_cyclic_projection_raises_at_its_cap():
    # two crossing ellipsoids: with tol 0 no sweep stops a row, and the
    # cap raises instead of returning the fifth sweep's point
    E1, E2 = ellipsoid([2.0, 0.5, 1.0]), ellipsoid([0.5, 2.0, 1.0])
    X = np.array([[2.0, 2.0, 0.5], [0.0, 0.0, 3.0]])
    with pytest.raises(EvaluationError, match="within 5 iterations"):
        dykstra([E1.project, E2.project], X, tol=0.0, max_iter=5)


@pytest.mark.parametrize("n, w", [(3, 0.35), (5, 0.45), (8, 0.5)])
def test_one_normal_slab_projects_by_its_clip(n, w):
    # the slabs of acceptance criterion 8 keep the clip's bits
    X = np.random.default_rng(n).normal(size=(2000, n))
    t = X[:, 0]
    clip = X - np.outer(t - np.clip(t, -w, w), np.eye(n)[0])
    assert np.array_equal(slab_body(np.eye(n)[:1], [w]).project(X), clip)


def test_slab_unit_ball_check_certifies_fast():
    # a basis certifies by its l1 piece's floor and five normals of R^3 by
    # the convex hull; one normal checked along itself reads its width, as
    # the off-span piece reads 0 on the span
    N5 = np.random.default_rng(5).normal(size=(5, 3))
    one = np.array([[1.0, 2.0, 0.5]])
    for K, F, value, method in [
            (slab_body(np.eye(3), [1.0, 1.2, 1.5]), np.eye(3), 1.0, "piece floor"),
            (slab_body(N5, 1.05 * row_norms(N5)), np.eye(3), 1.05, "convex hull"),
            (slab_body(one, 1.2 * row_norms(one)), one / row_norms(one), 1.2,
             "both points of the 0-sphere")]:
        t0 = time.perf_counter()
        status, res = unit_ball_check(K, F)
        assert time.perf_counter() - t0 < 1.0
        assert status == "certified" and res.method == method
        assert res.value == pytest.approx(value, abs=1e-12)


def test_unit_ball_check_rejects_a_non_orthonormal_frame():
    # 2 I is no frame: read as one, it would certify that the ball of
    # radius 0.6 contains the unit ball
    with pytest.raises(DomainError):
        unit_ball_check(ball(3, 0.6), 2 * np.eye(3))
    with pytest.raises(HypothesisError, match="0.6 < 1"):
        unit_ball_check(ball(3, 0.6), np.eye(3))


def test_vertex_polytope_interval():
    # the one-dimensional branch: the interval [-1, 2]
    K = vertex_polytope([[-1.0], [2.0]])
    assert K.support([1.0]) == 2.0 and K.support([-1.0]) == 1.0
    assert np.array_equal(K.gauge(np.array([[1.0], [-1.0], [0.5]])), [0.5, 1.0, 0.25])
    assert K.contains([2.0]) and not K.contains([2.1])
    assert not K.symmetric
    with pytest.raises(SpecError):
        vertex_polytope([[1.0], [1.0]])


def test_vertex_polytope_triangle():
    T = vertex_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert T.contains([0.2, 0.2])
    assert not T.contains([0.6, 0.6])
    assert T.support([1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert not T.symmetric


def test_vertex_polytope_facet_gauge_off_an_interior_origin():
    T = vertex_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # 0 is a vertex
    assert T.gauge([0.25, 0.25]) == pytest.approx(0.5, abs=1e-12)
    assert math.isinf(T.gauge([-1.0, 0.5]))  # outside the cone of the vertices
    # with the origin outside, a facet with b_i < 0 bounds the scale from above
    S = vertex_polytope([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    assert np.allclose(S.gauge([[1.5, 0.25], [3.0, 0.0]]), [0.875, 1.5], rtol=0, atol=1e-12)
    assert math.isinf(S.gauge([0.5, 1.0]))  # no dilate holds it


def test_vertex_polytope_symmetric_detection():
    assert vertex_polytope([[1, 0], [-1, 0], [0, 1], [0, -1]]).symmetric
    assert not vertex_polytope([[0, 0], [1, 0], [0, 1]]).symmetric


def test_product_body_split():
    P = product_body(cube(1, 1.0), ball(2, 0.0))  # segment in R^3
    x = np.array([math.cos(math.pi / 6), 0.5, 0.0])
    assert P.distance(x) == pytest.approx(0.5, abs=1e-12)
    assert P.support([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    assert math.isinf(P.gauge([0.5, 0.1, 0.0]))


def test_flat_disk_support_is_one_euclidean_norm():
    (piece,) = product_body(ball(3, 1.0), ball(1, 0.0)).support_pieces
    assert piece.kind == "l2"
    np.testing.assert_array_equal(piece.matrix, np.eye(4)[:, :3])


@pytest.mark.parametrize("first, second", [
    (ball(3, 1.0), ball(1, 0.0)), (ball(1, 0.0), ellipsoid([1.0, 2.0, 0.5])),
    (cube(2, 1.0), ball(2, 0.0)), (ball(2, 0.0), ball(2, 0.0)),
    (cross_polytope(2, 1.5), ball(2, 0.7))], ids=["disk", "ellipsoid", "square", "origin", "both"])
def test_canonical_product_supports_keep_their_bits(first, second):
    # the support the product had before its sum was made canonical
    d1, eye = first.dim, np.eye(4)
    raw = Piece("sum", parts=(map_pieces(first.support_pieces, eye[:, :d1]),
                              map_pieces(second.support_pieces, eye[:, d1:])))
    X = np.random.default_rng(11).standard_normal((1000, 4))
    assert np.array_equal(product_body(first, second).support(X), raw.evaluate(X))


def test_zero_pieces_leave_a_maximum_only_beside_a_norm():
    zero = Piece("l2", np.zeros((2, 1)))
    norm, rows = Piece("l2", np.eye(2)), Piece("linear", np.array([[-1.0, 0.0]]))
    (s,) = sum_pieces(((rows, zero), (norm, zero), (zero,)))
    # beside the linear piece the zero is max(<P, x>, 0), which can differ
    assert s.parts == ((rows, zero), (norm,))
    X = np.random.default_rng(12).standard_normal((200, 2))
    expected = np.maximum(-X[:, 0], 0.0) + np.linalg.norm(X, axis=1)
    assert np.array_equal(s.evaluate(X), expected)
    assert sum_pieces(((norm,), (zero,))) == (norm,)


def test_truncated_cylinder_flags():
    C = truncated_cylinder(ball(2, 0.5), 5, truncation_radius=100.0)
    assert C.truncated
    assert C.dim == 5
    assert C.contains([0.3, 0.0, 50.0, 0.0, 0.0])
    C2 = truncated_cylinder(ball(2, 0.5), 5, transverse_radius=2.0, truncation_radius=100.0)
    assert not C2.truncated


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------


def test_spec_roundtrip():
    spec = BodySpec.from_json_dict({"kind": "product",
                                    "first": {"kind": "ball", "dim": 2, "radius": 0.5},
                                    "second": {"kind": "cube", "dim": 3, "half_width": 1.0}})
    assert BodySpec.from_json_dict(spec.to_json_dict()) == spec
    K = construct_body(spec)
    assert K.dim == 5


def test_spec_unknown_field_named():
    with pytest.raises(SpecError, match="hlaf_width"):
        BodySpec.from_json_dict({"kind": "cube", "dim": 2, "hlaf_width": 1.0})


def test_spec_missing_field_named():
    with pytest.raises(SpecError, match="radius"):
        BodySpec.from_json_dict({"kind": "ball", "dim": 2})


def test_spec_invalid_value_named():
    with pytest.raises(SpecError, match="half_width"):
        construct_body(BodySpec.from_json_dict({"kind": "cube", "dim": 2, "half_width": -1.0}))


@pytest.mark.parametrize("make, field", [
    (lambda: ball(3, math.inf), "radius"),
    (lambda: ball(3, math.nan), "radius"),
    (lambda: cube(3, math.inf), "half_width"),
    (lambda: cross_polytope(3, math.inf), "radius"),
    (lambda: ellipsoid([1.0, math.inf]), "semiaxes"),
    (lambda: slab_body(np.eye(2), [1.0, math.inf]), "widths"),
    (lambda: slab_body([[1.0, math.inf], [0.0, 1.0]], [1.0, 1.0]), "normals"),
    (lambda: vertex_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, math.inf]]), "vertices"),
    (lambda: truncated_cylinder(ball(2, 1.0), 4, transverse_radius=math.inf),
     "transverse_radius"),
    (lambda: truncated_cylinder(ball(2, 1.0), 4, truncation_radius=math.inf),
     "truncation_radius"),
], ids=["ball", "ball-nan", "cube", "cross_polytope", "ellipsoid", "slab-width", "slab-normal",
        "vertex_polytope", "cylinder-transverse", "cylinder-truncation"])
def test_non_finite_parameters_are_spec_errors_naming_the_field(make, field):
    # inf * 0 = nan: an infinite radius would put nan into a ball's matrix
    with pytest.raises(SpecError, match=f"^{field}: must be finite, got "):
        make()


def test_catalog_fields_are_constructor_parameters():
    from waistlab.bodies import _CATALOG

    for kind, (make, required, optional) in _CATALOG.items():
        params = inspect.signature(make).parameters
        assert set(required) | set(optional) == set(params), kind
        for key in optional:
            assert params[key].default is not inspect.Parameter.empty, (kind, key)


def test_spec_omitted_optional_field_takes_constructor_default():
    core = {"kind": "ball", "dim": 2, "radius": 0.5}
    K = construct_body({"kind": "truncated_cylinder", "core": core, "dim": 4})
    default = inspect.signature(truncated_cylinder).parameters["truncation_radius"].default
    assert K.spec.params["truncation_radius"] == default
    assert K.spec.params["transverse_radius"] is None and K.truncated
    # null is the unbounded cylinder, not a non-finite radius
    K = construct_body({"kind": "truncated_cylinder", "core": core, "dim": 4,
                        "transverse_radius": None})
    assert K.truncated and K.support(np.eye(4)[3]) == default


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def test_intersect_cube_ball_membership():
    K = intersect(cube(2, 1.0), ball(2, 1.0))
    x = np.array([0.9, 0.9])
    assert K.gauge(x) == pytest.approx(0.9 * math.sqrt(2.0), abs=1e-12)
    assert not K.contains(x)
    with pytest.raises(EvaluationError):
        K.support(x)


def test_intersect_self_is_identity():
    K = cube(3, 0.7)
    KK = intersect(K, K)
    u = sphere_points(np.random.default_rng(1), 50, 3)
    assert np.allclose(KK.gauge(u), np.asarray(K.gauge(u)), atol=1e-14)


def test_intersect_rotated_diamonds_radial():
    B = cross_polytope(2, 1.0)
    K = intersect(B, linear_image(B, rotation2(math.pi / 4)))
    u = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    oracle = 1.0 / (math.cos(math.pi / 8) + math.sin(math.pi / 8))
    assert K.radial(u) == pytest.approx(oracle, abs=1e-12)
    assert K.radial(u) == pytest.approx(0.76537, abs=5e-6)


def test_intersect_octagon_has_no_support():
    # cube meets its pi/4-rotation in a regular octagon of inradius 1 whose
    # vertex lies along u; min of the two supports (1.3066) overstates the
    # exact support 1/cos(pi/8), so no support evaluator is offered
    C = cube(2, 1.0)
    K = intersect(C, linear_image(C, rotation2(math.pi / 4)))
    u = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    with pytest.raises(EvaluationError):
        K.support(u)
    with pytest.raises(EvaluationError):
        polar(K)
    assert K.radial(u) == pytest.approx(1.0 / math.cos(math.pi / 8), abs=1e-12)


def test_minkowski_support_additivity():
    S = minkowski_sum(cube(3, 1.0), ball(3, 1.0))
    assert S.support(np.eye(3)[0]) == pytest.approx(2.0, abs=1e-12)
    rng = np.random.default_rng(2)
    u = sphere_points(rng, 80, 3)
    expect = np.asarray(cube(3, 1.0).support(u)) + 1.0
    assert np.allclose(S.support(u), expect, atol=1e-12)


def test_minkowski_zero_identity():
    K = cube(2, 0.6)
    S = minkowski_sum(K, ball(2, 0.0))
    u = sphere_points(np.random.default_rng(3), 40, 2)
    assert np.allclose(S.support(u), np.asarray(K.support(u)), atol=1e-15)
    # the summand comes back untouched, in either order
    assert S is K and minkowski_sum(ball(2, 0.0), K) is K
    assert K.kind == "cube"


def test_minkowski_segments_cross():
    seg1 = product_body(cube(1, 1.0), ball(1, 0.0))
    seg2 = product_body(ball(1, 0.0), cube(1, 1.0))
    S = minkowski_sum(seg1, seg2)
    for phi in np.linspace(0, 2 * math.pi, 37):
        u = np.array([math.cos(phi), math.sin(phi)])
        assert float(S.support(u)) == pytest.approx(abs(u[0]) + abs(u[1]), abs=1e-12)


def test_neighborhood_of_ball_is_ball():
    N = neighborhood(ball(3, 1.0), 0.5)
    u = sphere_points(np.random.default_rng(4), 50, 3)
    assert np.allclose(N.support(u), 1.5, atol=1e-12)
    assert N.contains(np.array([1.5, 0.0, 0.0]))
    # the exact ball, not a bisection
    assert (N.kind, N.inner_radius, N.outer_radius) == ("ball", 1.5, 1.5)
    X = np.random.default_rng(5).normal(size=(30, 3))
    assert np.array_equal(N.gauge(X), ball(3, 1.5).gauge(X))


def test_neighborhood_zero_is_same_body():
    K = cube(2, 1.0)
    assert neighborhood(K, 0.0) is K
    with pytest.raises(DomainError):
        neighborhood(K, -0.1)


def test_neighborhood_zero_keeps_the_kind_of_a_sum():
    S = minkowski_sum(cube(2, 1.0), ellipsoid([1.0, 0.5]))
    assert neighborhood(S, 0.0) is S and S.kind == "minkowski_sum"


def test_neighborhood_of_an_intersection_has_a_distance_and_no_support():
    C = cube(3, 0.8)
    K = intersect(C, linear_image(C, haar_rotation(3, seed=3)))
    N = neighborhood(K, 0.3)
    X = np.random.default_rng(6).normal(size=(20, 3)) * 1.5
    assert np.array_equal(N.distance(X), np.maximum(K.distance(X) - 0.3, 0.0))
    with pytest.raises(EvaluationError):
        N.support(X)


def test_neighborhood_segment_cap_membership():
    seg = product_body(cube(1, 1.0), ball(2, 0.0))
    N = neighborhood(seg, 0.5)
    p = np.array([math.cos(math.pi / 6), 0.5, 0.0])  # 30 degrees off the axis
    assert N.contains(p)
    assert N.distance(p) == 0.0


def test_neighborhood_of_flat_unbounded_body_has_a_finite_gauge():
    # inner radius 0 and outer radius inf give no bracket: the boundary
    # radius along e1 is found by doubling, and along e2 there is none
    N = neighborhood(product_body(slab_body([[1.0, 0.0]], [1.0]), ball(1, 0.0)), 0.5)
    assert N.gauge([1.6, 0.0, 0.0]) == pytest.approx(1.6 / 1.5, abs=1e-9)
    assert math.isinf(N.radial([0.0, 1.0, 0.0]))


def test_neighborhood_gauge_bisects_the_boundary_without_tolerance():
    # membership admits distance r + DIST_TOL; the gauge bisects distance <= r
    N = neighborhood(product_body(slab_body([[1, 0]], [1]), ball(1, 0.0)), 0.5)
    assert N.gauge([1.6, 0, 0]) == pytest.approx(1.6 / 1.5, rel=0, abs=1e-12)
    assert N.contains([1.5 + 0.5e-9, 0.0, 0.0])


_POLYGON = vertex_polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
# a generic sum with a curved summand: its distance is the dual program
_CURVED_SUM = minkowski_sum(cube(2, 0.5), ellipsoid([0.4, 0.2]))


def _count_rows(monkeypatch, name, probe):
    """A one-item list that counts the rows passed to optimize.<name>,
    after probe, a body whose distance goes through it, shows that the
    patch is live."""
    import waistlab.optimize

    rows = [0]
    real = getattr(waistlab.optimize, name)

    def counting(*args):
        rows[0] += len(args[-1])
        return real(*args)

    monkeypatch.setattr(waistlab.optimize, name, counting)
    probe.distance(np.full(probe.dim, 2.0))
    assert rows[0] >= 1
    rows[0] = 0
    return rows


def test_batched_projection_rows_end_as_alone(monkeypatch):
    # a row leaves the cyclic projections once it stops moving, so a batch
    # projects each row as often as the row alone, to the same bits; the
    # vertex polytope's rows are those of its least-distance program
    projected = _count_rows(monkeypatch, "polyhedron_points", _POLYGON)
    K = intersect(vertex_polytope(np.random.default_rng(4).normal(size=(12, 3))),
                  ellipsoid([0.9, 0.5, 1.4]))
    X = np.random.default_rng(5).normal(size=(5, 3)) * 2
    batched = K.distance(X)
    batched_rows, projected[0] = projected[0], 0
    alone = np.array([K.distance(x) for x in X])
    assert np.array_equal(batched, alone)
    assert batched_rows == projected[0] > 0


def _assert_is_the_neighborhood(S, K, eps):
    N = neighborhood(K, eps)
    X = np.random.default_rng(9).normal(size=(20, 3)) * 1.5
    assert np.array_equal(S.gauge(X), N.gauge(X))
    assert np.array_equal(S.distance(X), N.distance(X))


def test_rotated_ball_sum_is_the_neighborhood(monkeypatch):
    # the image of a ball is a ball, so the sum takes the closed-form
    # distance of a ball summand and never the dual distance program
    calls = _count_rows(monkeypatch, "nearest_points", _CURVED_SUM)
    B = linear_image(ball(3, 0.5), haar_rotation(3, seed=8))
    assert B.kind == "ball" and B.outer_radius == 0.5
    _assert_is_the_neighborhood(minkowski_sum(cube(3, 0.8), B), cube(3, 0.8), 0.5)
    assert calls[0] == 0


def test_sum_with_a_relabeled_ball_is_the_neighborhood(monkeypatch):
    # difference_body labels its ball 2 B(0.25) "difference_body"; the sum
    # reads the ball off its certified radii, not off the label
    calls = _count_rows(monkeypatch, "nearest_points", _CURVED_SUM)
    B = difference_body(ball(3, 0.25))
    assert B.kind == "difference_body" and B.inner_radius == B.outer_radius == 0.5
    _assert_is_the_neighborhood(minkowski_sum(cube(3, 0.8), B), cube(3, 0.8), 0.5)
    assert calls[0] == 0


def test_ball_factors_follow_orthogonal_images():
    K = truncated_cylinder(ball(3, 0.9), 4, transverse_radius=0.2)
    a, b = ball_factors(linear_image(K, haar_rotation(4, seed=3), 2.0))
    assert (a.dim, a.outer_radius, b.dim, b.outer_radius) == (3, 1.8, 1, 0.4)
    assert ball_factors(cube(1, 0.5))[0].outer_radius == 0.5  # an interval is a ball
    assert ball_factors(ellipsoid([0.6, 0.7, 0.8])) == ()
    assert ball_factors(product_body(ball(2, 1.0), cube(2, 1.0))) == ()


def test_neighborhood_of_unbounded_slab_has_its_own_gauge():
    N = neighborhood(slab_body([[1.0, 0.0]], [1.0]), 0.5)
    assert N.inner_radius == 1.5
    assert N.gauge([1.5, 0.0]) == pytest.approx(1.0, abs=1e-8)
    assert N.radial([1.0, 0.0]) == pytest.approx(1.5, abs=1e-8)
    assert math.isinf(N.radial([0.0, 1.0]))


def test_generic_minkowski_sum_matches_vertex_twin():
    # a prism over a triangle has no vertex list, so its difference body is
    # a generic Minkowski sum evaluated through the dual distance program
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    D = difference_body(product_body(vertex_polytope(tri), cube(1, 1.0)))
    assert D.kind == "difference_body" and D.support_pieces[0].kind == "sum"
    prism = np.array([[*v, z] for v in tri for z in (-1.0, 1.0)])
    twin = vertex_polytope((prism[:, None, :] - prism[None, :, :]).reshape(-1, 3))
    X = np.random.default_rng(17).normal(size=(20, 3))
    np.testing.assert_allclose(D.distance(X), twin.distance(X), rtol=0, atol=1e-12)
    assert np.array_equal(D.contains(X), twin.contains(X))
    np.testing.assert_allclose(D.gauge(X), twin.gauge(X), rtol=0, atol=1e-8)


@pytest.mark.parametrize("s", [1.0, 1e-3])
def test_generic_minkowski_sum_gauge_bisects_the_boundary_without_tolerance(s):
    # membership admits distance DIST_TOL; the gauge bisects distance <= 0,
    # which the dual program reports exactly for members
    S = minkowski_sum(cube(2, s), ellipsoid([s, s / 2]))
    assert S.support_pieces[0].kind == "sum"
    assert S.gauge([2 * s, 0.0]) == pytest.approx(1.0, rel=0, abs=1e-12)


def test_minkowski_sum_needs_both_supports():
    C = cube(2, 1.0)
    with pytest.raises(EvaluationError):
        minkowski_sum(C, intersect(C, linear_image(C, rotation2(math.pi / 4))))


def test_rotate_identity_and_invariance():
    K = cube(3, 1.0)
    R = linear_image(K, np.eye(3))
    u = sphere_points(np.random.default_rng(5), 40, 3)
    assert np.allclose(R.support(u), np.asarray(K.support(u)), atol=1e-15)
    B = ball(3, 1.0)
    U = haar_rotation(3, seed=9)
    RB = linear_image(B, U)
    assert np.allclose(RB.gauge(u), 1.0, atol=1e-12)


def test_rotate_diamond_anchor():
    B = cross_polytope(2, 1.0)
    R = linear_image(B, rotation2(math.pi / 4))
    v = R.support(np.array([1.0, 0.0]))
    assert v == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_rotate_rejects_non_orthogonal():
    for Q, scale in [(np.array([[1.0, 0.1], [0.0, 1.0]]), 1.0),
                     (np.eye(2), 0.0), (np.eye(2), -1.0)]:
        with pytest.raises(DomainError):
            linear_image(cube(2, 1.0), Q, scale)


def test_polar_cube_is_cross():
    P = polar(cube(2, 1.0))
    assert P.gauge([1.0, 1.0]) == pytest.approx(2.0, abs=1e-15)
    C = cross_polytope(2, 1.0)
    u = sphere_points(np.random.default_rng(6), 60, 2)
    assert np.allclose(P.support(u), np.asarray(C.support(u)), atol=1e-15)


@pytest.mark.parametrize("n, a", [(3, 1.0), (4, 0.8)])
def test_polar_cube_projects_as_the_cross_polytope(monkeypatch, n, a):
    # the polar's support rows make it the polyhedron P x <= 1, which
    # projects by least distance, with no dual program per row
    def no_dual_program(*args):
        raise AssertionError("polar of a cube projected by the dual program")

    monkeypatch.setattr(optimize, "nearest_points", no_dual_program)
    P, C = polar(cube(n, a)), cross_polytope(n, 1.0 / a)
    X = 1.5 * np.random.default_rng(8).standard_normal((200, n))
    assert np.max(np.abs(np.asarray(P.distance(X)) - np.asarray(C.distance(X)))) <= 1e-12
    assert np.array_equal(P.contains(X), C.contains(X))
    assert 0 < np.count_nonzero(C.contains(X)) < len(X)


def test_polar_ball_scaling():
    P = polar(ball(3, 2.0))
    assert P.support(np.eye(3)[1]) == pytest.approx(0.5, abs=1e-15)
    assert P.outer_radius == pytest.approx(0.5)


def test_polar_involution_on_ellipsoid():
    E = ellipsoid([1.0, 2.0])
    PP = polar(polar(E))
    rng = np.random.default_rng(7)
    X = rng.normal(size=(100, 2))
    assert np.max(np.abs(np.asarray(PP.gauge(X)) - np.asarray(E.gauge(X)))) < 1e-10


def test_polar_rejects_flat():
    flat = product_body(ball(1, 1.0), ball(1, 0.0))
    with pytest.raises(DomainError):
        polar(flat)


def test_difference_body_anchors():
    D = difference_body(ball(2, 1.0))
    assert D.support(np.eye(2)[0]) == pytest.approx(2.0, abs=1e-15)
    K = ellipsoid([1.0, 0.5, 2.0])
    DK = difference_body(K)
    u = sphere_points(np.random.default_rng(8), 40, 3)
    assert np.allclose(DK.support(u), 2.0 * np.asarray(K.support(u)), atol=1e-12)


def test_difference_body_simplex_exact_ratio():
    # shoelace-oracle: simplex difference body has 6x the area
    tri = vertex_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    diff = difference_body(tri)
    assert diff.symmetric

    def shoelace(V):
        from scipy.spatial import ConvexHull

        hull = ConvexHull(V)
        P = V[hull.vertices]
        x, y = P[:, 0], P[:, 1]
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    area_tri = shoelace(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    area_diff = shoelace(diff.support_pieces[0].matrix)
    assert area_diff / area_tri == pytest.approx(6.0, abs=1e-12)
    assert area_diff / area_tri == pytest.approx(math.comb(4, 2), abs=1e-12)


def test_scale_and_reflect():
    K = cube(2, 1.0)
    S = linear_image(K, np.eye(2), 2.5)
    assert S.support(np.eye(2)[0]) == pytest.approx(2.5)
    assert S.gauge([2.5, 0.0]) == pytest.approx(1.0)
    T = vertex_polytope([[0, 0], [1, 0], [0, 1]])
    R = linear_image(T, -np.eye(2))
    assert R.contains([-0.2, -0.2]) and not R.contains([0.2, 0.2])


def test_sum_of_a_rotated_vertex_polytope_and_a_cross_polytope_is_the_hull_of_the_row_sums():
    # the image's support rows are 1.7 V Q^T and the cross-polytope's are
    # +-0.6 e_i, so the sum is the vertex polytope of their pairwise sums
    Q = haar_rotation(3, seed=21)
    S = minkowski_sum(linear_image(vertex_polytope(SIMPLEX), Q, 1.7), cross_polytope(3, 0.6))
    cross_rows = np.vstack([0.6 * np.eye(3), -0.6 * np.eye(3)])
    twin = vertex_polytope(((1.7 * (SIMPLEX @ Q.T))[:, None, :] + cross_rows).reshape(-1, 3))
    assert (S.kind, [p.kind for p in S.support_pieces]) == ("minkowski_sum", ["linear"])
    assert np.array_equal(S.support_pieces[0].matrix, twin.support_pieces[0].matrix)
    assert S.inner_radius == twin.inner_radius
    X = 2.0 * np.random.default_rng(22).standard_normal((40, 3))
    assert np.array_equal(S.gauge(X), twin.gauge(X))
    assert np.array_equal(S.distance(X), twin.distance(X))
    assert 0 < np.count_nonzero(S.contains(X)) < len(X)


def test_polytope_sum_projects_to_members_at_the_dual_program_distances():
    # the sum of two polytopes given by their support rows is exact: its
    # projections are members, its distances are the dual program's over
    # the summed supports, and its inner radius is that of its facets
    from scipy.spatial import ConvexHull

    C = cross_polytope(3, 0.7)
    R = linear_image(vertex_polytope(np.random.default_rng(3).standard_normal((8, 3))),
                     haar_rotation(3, seed=4))
    S = minkowski_sum(C, R)
    assert (S.kind, [p.kind for p in S.support_pieces]) == ("minkowski_sum", ["linear"])
    facets = ConvexHull(S.support_pieces[0].matrix).equations
    assert S.inner_radius == pytest.approx(np.min(-facets[:, -1]), rel=0, abs=1e-12)
    assert S.inner_radius == pytest.approx(0.3426, abs=1e-4)
    X = 2.0 * np.random.default_rng(0).standard_normal((20, 3))
    dual = row_norms(X - nearest_points(sum_pieces((C.support_pieces, R.support_pieces)), X))
    np.testing.assert_allclose(S.distance(X), dual, rtol=0, atol=1e-12)
    assert np.all(S.contains(S.project(X)))


def test_flat_polytope_sum_keeps_the_generic_route():
    # P is the segment [-e1, e1], whose support rows +-e1 sum to a flat set:
    # no vertex polytope, so the sum is generic, as a sum of two segments
    P = polar(slab_body([[1.0, 0.0]], [1.0]))
    F = minkowski_sum(P, P)
    assert F.kind == "minkowski_sum" and F.support_pieces[0].kind == "sum"
    assert F.support([1.0, 0.0]) == 2.0
    assert F.distance([3.0, 1.0]) == pytest.approx(math.sqrt(2.0), rel=0, abs=1e-12)


@pytest.mark.parametrize("make", [lambda T: minkowski_sum(cube(2, 1.0), T),
                                  lambda T: neighborhood(T, 0.5)],
                         ids=["cube", "neighborhood"])
def test_minkowski_sum_claims_an_inner_radius_only_around_the_origin(make):
    # T does not hold the origin, so neither does its sum with the cube
    # [-1, 1]^2 or with the 0.5-ball: the inner radii do not add
    T = vertex_polytope([[2.0, 0.1], [3.0, 0.1], [2.5, 1.0]])
    S = make(T)
    u = sphere_points(np.random.default_rng(23), 20, 2)
    assert np.all(np.asarray(S.radial(u)) >= S.inner_radius)
    assert S.radial([-1.0, 0.0]) == 0.0


def test_difference_body_of_a_vertex_polytope_lists_the_pairwise_differences():
    V = np.random.default_rng(10).normal(size=(6, 3)) + 0.4
    D = difference_body(vertex_polytope(V))
    assert (D.kind, D.symmetric) == ("difference_body", True)
    assert np.array_equal(D.support_pieces[0].matrix,
                          (V[:, None, :] - V[None, :, :]).reshape(-1, 3))


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        intersect(cube(2, 1.0), cube(3, 1.0))


# ---------------------------------------------------------------------------
# oracle-bundle invariants
# ---------------------------------------------------------------------------


def test_radial_gauge_roundtrip_and_membership_flip():
    rng = np.random.default_rng(10)
    for K in catalog3():
        u = sphere_points(rng, 200, K.dim)
        r = np.asarray(K.radial(u), dtype=float)
        ok = np.isfinite(r) & (r > 0)
        pts = u[ok] * r[ok][:, None]
        assert np.max(np.abs(np.asarray(K.gauge(pts)) - 1.0)) < 1e-9
        assert np.all(K.contains(u[ok] * (r[ok] * (1 - 1e-6))[:, None]))
        assert not np.any(K.contains(u[ok] * (r[ok] * (1 + 1e-6))[:, None]))
        assert np.all(r[ok] >= K.inner_radius - 1e-9)
        assert np.all(r[ok] <= K.outer_radius + 1e-9)


def test_boundary_ties_are_members():
    K = cube(2, 1.0)
    assert K.contains([1.0, 0.5])
    assert ball(2, 1.0).contains([1.0, 0.0])


def test_support_dominates_members():
    rng = np.random.default_rng(11)
    for K in catalog3():
        u = sphere_points(rng, 30, K.dim)
        r = np.asarray(K.radial(u), dtype=float)
        ok = np.isfinite(r)
        members = u[ok] * r[ok][:, None]
        h = np.asarray(K.support(u), dtype=float)
        inner = members @ u.T  # <x_i, u_j>
        assert np.all(inner.max(axis=0) <= h + 1e-9)


def test_support_gauge_duality_dense_2d():
    # sampled members approach the support value in the plane
    for K in [cube(2, 1.0), cross_polytope(2, 1.3), ellipsoid([0.7, 1.4])]:
        phis = np.linspace(0, 2 * math.pi, 4000, endpoint=False)
        dirs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        members = dirs * np.asarray(K.radial(dirs))[:, None]
        for u in np.stack([np.cos(phis[::571]), np.sin(phis[::571])], axis=1):
            sup = float(np.max(members @ u))
            assert sup <= float(K.support(u)) + 1e-9
            assert sup >= float(K.support(u)) - 5e-3


def test_distance_zero_iff_member():
    rng = np.random.default_rng(12)
    for K in catalog3():
        pts = rng.normal(size=(100, K.dim))
        d = np.asarray(K.distance(pts), dtype=float)
        inside = np.asarray(K.contains(pts), dtype=bool)
        assert np.all(d[inside] <= 1e-8)
        assert np.all(d[~inside] > 0)


def test_support_homogeneity():
    rng = np.random.default_rng(13)
    for K in catalog3():
        u = sphere_points(rng, 20, K.dim)
        assert np.allclose(np.asarray(K.support(3.5 * u)),
                           3.5 * np.asarray(K.support(u)), rtol=1e-12)


def _l1(X):
    return np.abs(X).sum(axis=1)


def _l2(X):
    return np.linalg.norm(X, axis=1)


def _sup(X):
    return np.abs(X).max(axis=1)


def _slab_vertices(N, w):
    """The vertices of {x : |<N_i, x>| <= w_i} in R^3: the points where
    three of its facets meet that lie in every slab."""
    A, b = np.vstack([N, -N]), np.concatenate([w, w])
    V = []
    for rows in itertools.combinations(range(len(A)), 3):
        T = A[list(rows)]
        if abs(np.linalg.det(T)) > 1e-9:
            x = np.linalg.solve(T, b[list(rows)])
            if np.all(A @ x <= b + 1e-9):
                V.append(x)
    return np.array(V)


def piece_bodies():
    """(body, gauge, support) for catalog3(), the polars of its symmetric
    bodies and a truncated cylinder, whose product pieces are zero-padded;
    gauge and support are written out in closed form."""
    from scipy.spatial import ConvexHull

    s = np.array([1.0, 2.0, 0.5])
    Q = haar_rotation(3, seed=21)
    facets = ConvexHull(SIMPLEX).equations
    A, b = facets[:, :-1], -facets[:, -1]
    N5 = SLAB5 / np.linalg.norm(SLAB5, axis=1)[:, None]  # unit normals, every width 1.05
    V5 = _slab_vertices(N5, np.full(5, 1.05))
    # the cross-polytope 0.6 B_1 plus the cube polytope: the hull of the row sums
    sums = (np.vstack([0.6 * np.eye(3), -0.6 * np.eye(3)])[:, None, :] + CUBE8).reshape(-1, 3)
    eq = ConvexHull(sums).equations
    A8, b8 = eq[:, :-1], -eq[:, -1]
    closed = [
        (lambda X: _l2(X) / 1.5, lambda U: 1.5 * _l2(U)),
        (lambda X: _sup(X) / 0.8, lambda U: 0.8 * _l1(U)),
        (lambda X: _l1(X) / 1.2, lambda U: 1.2 * _sup(U)),
        (lambda X: _l2(X / s), lambda U: _l2(U * s)),
        (_sup, _l1),
        (lambda X: ((X @ Q) @ A.T / b).max(axis=1), lambda U: ((U @ Q) @ SIMPLEX.T).max(axis=1)),
        (lambda X: _l2(X / (1.7 * s)), lambda U: 1.7 * _l2(U * s)),
        (lambda X: _sup(X) / 0.8, lambda U: 0.8 * _l1(U)),
        # unbounded along the third axis: the support is infinite off u3 = 0
        (lambda X: _sup(X[:, :2] / [0.9, 0.6]),
         lambda U: np.where(U[:, 2] == 0, _l1(U[:, :2] * [0.9, 0.6]), np.inf)),
        (lambda X: _sup(X @ N5.T) / 1.05, lambda U: (U @ V5.T).max(axis=1)),
        (lambda X: (X @ A8.T / b8).max(axis=1), lambda U: 0.6 * _sup(U) + _l1(U)),
    ]
    out = [(K, g, h) for K, (g, h) in zip(catalog3(), closed, strict=True)]
    out += [(polar(K), h, g) for K, g, h in out if K.symmetric and K.inner_radius > 0]
    out.append((truncated_cylinder(cross_polytope(2, 1.2), 4, 0.7),
                lambda X: np.maximum(_l1(X[:, :2]) / 1.2, _l2(X[:, 2:]) / 0.7),
                lambda U: 1.2 * _sup(U[:, :2]) + 0.7 * _l2(U[:, 2:])))
    return out


def _pieces_of(K):
    """(name, pieces) of the gauge and, when K has one, the support."""
    out = [("gauge", K.gauge_pieces)]
    try:
        out.append(("support", K.support_pieces))
    except EvaluationError:
        pass
    return out


def test_pieces_max_equals_evaluator():
    rng = np.random.default_rng(14)
    for K, gauge, support in piece_bodies():
        X = rng.normal(size=(25, K.dim))
        for (what, pieces), evaluator, closed in zip(
                _pieces_of(K), (K.gauge, K.support), (gauge, support), strict=True):
            exact = closed(X)
            via = np.max([p.evaluate(X) for p in pieces], axis=0)
            # infinite supports of the unbounded slab body must match too
            for got in (via, np.asarray(evaluator(X), dtype=float)):
                np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-12,
                                           err_msg=f"{K.kind} {what}")


def _flat(pieces):
    for p in pieces:
        if p.kind == "sum":
            for part in p.parts:
                yield from _flat(part)
        else:
            yield p


def _nested(pieces):
    """Every piece, and every piece inside a sum's parts."""
    for p in pieces:
        yield p
        if p.kind == "sum":
            for part in p.parts:
                yield from _nested(part)


def test_smooth_piece_gradients_match_differences():
    rng = np.random.default_rng(15)
    h = 1e-6
    checked, total = Counter(), 0
    # a neighborhood's gauge is a bisection: the one finite smooth piece here
    bodies = [K for K, _, _ in piece_bodies()] + [neighborhood(cube(3, 0.5), 0.3)]
    for K in bodies:
        X = rng.normal(size=(10, K.dim))
        E = h * np.eye(K.dim)
        for what, pieces in _pieces_of(K):
            for p in _nested(pieces):
                for x, g in zip(X, p.gradient(X)):
                    f0 = p.evaluate(x[None, :])[0]
                    fp, fm = p.evaluate(x + E), p.evaluate(x - E)
                    if not np.all(np.isfinite(np.r_[f0, fp, fm])):
                        continue  # the unbounded slab body's infinite support
                    total += 1
                    if np.max(np.abs((fp - f0) - (f0 - fm))) > 1e-4 * h:
                        continue  # a crease lies within h
                    assert np.allclose(g, (fp - fm) / (2 * h), atol=1e-6), (K.kind, what)
                    checked[p.kind] += 1
    assert set(checked) == {"linear", "l1", "l2", "sum", "smooth"}
    assert total >= 100 and sum(checked.values()) >= 0.9 * total


def test_combinators_of_closed_forms_have_no_smooth_piece():
    C, E = cube(3, 0.8), ellipsoid([1.0, 2.0, 0.5])
    s = np.array([1.0, 2.0, 0.5])
    X = np.random.default_rng(16).normal(size=(30, 3))
    for pieces, closed in [
            (intersect(C, E).gauge_pieces, np.maximum(_sup(X) / 0.8, _l2(X / s))),
            (neighborhood(C, 0.3).support_pieces, 0.8 * _l1(X) + 0.3 * _l2(X)),
            (minkowski_sum(C, E).support_pieces, 0.8 * _l1(X) + _l2(X * s))]:
        assert all(p.kind != "smooth" for p in _flat(pieces))
        via = np.max([p.evaluate(X) for p in pieces], axis=0)
        np.testing.assert_allclose(via, closed, rtol=1e-12)


def test_sign_families_stay_implicit():
    # the cube support and the cross-polytope gauge are maxima over 2^n
    # sign patterns; their pieces must not list the patterns
    for K in (cube(12, 1.0), cross_polytope(12, 1.0)):
        for pieces in (K.gauge_pieces, K.support_pieces):
            assert sum(p.matrix.shape[0] for p in pieces) <= 24


# ---------------------------------------------------------------------------
# volume estimation
# ---------------------------------------------------------------------------


def test_mc_volume_ball_anchor():
    vol, se = mc_volume(ball(3, 1.0), 400_000, seed=1)
    assert abs(vol - 4.0 * math.pi / 3.0) <= max(3 * se, 1e-12)


def test_mc_volume_cube_anchor():
    vol, se = mc_volume(cube(2, 1.0), 400_000, seed=2)
    assert abs(vol - 4.0) <= 3 * se


def test_mc_volume_flat_is_zero():
    seg = product_body(cube(1, 1.0), ball(1, 0.0))
    vol, se = mc_volume(seg, 50_000, seed=3)
    assert vol == 0.0


def test_mc_volume_without_a_hit_reports_the_rule_of_three_bound():
    # cube(30, 1) fills about 3e-9 of its outer ball, so no seed gets a hit
    K = cube(30, 1.0)
    box = unit_ball_volume(30) * K.outer_radius ** 30
    for seed in range(3):
        assert mc_volume(K, 20_000, seed=seed) == (0.0, box * 3.0 / 20_000)


def test_volume_ratio_rejects_a_volume_without_a_hit():
    with pytest.raises(EvaluationError, match="hit"):
        volume_ratio(cube(30, 1.0), 20_000, seed=0)


def test_mc_volume_golden_value_and_chunk_size(monkeypatch):
    # each ball point is one row of 3 + 2 Gaussians, so chunks of 7 and
    # 1003 rows (at one worker; 3 and 501 at two) draw each block's stream
    # of the default chunks; (vol, se) as at one and at two workers
    K = cross_polytope(3, 1.0)
    vol, se = mc_volume(K, 100_003, seed=11)
    assert (vol, se) == (1.3278904340083613, 0.006163479109114164)
    assert abs(vol - 4.0 / 3.0) <= 3 * se
    for rows in (7, 1003):  # 4096 = 7 * 585 + 1 = 1003 * 4 + 84
        monkeypatch.setattr(_util, "CHUNK_FLOATS", 5 * rows)
        assert _util.chunk_rows(5) == rows
        assert mc_volume(K, 100_003, seed=11) == (vol, se)


@pytest.mark.parametrize("n", [4, 10, 20])
def test_mc_volume_memory_does_not_grow_with_the_dimension(n):
    # one chunk of ball points holds _util.CHUNK_FLOATS values at any dimension
    tracemalloc.start()
    try:
        mc_volume(cube(n, 1.0), 200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_mc_volume_rejects_unbounded():
    with pytest.raises(DomainError):
        mc_volume(slab_body([[1.0, 0.0]], [1.0]), 1000, seed=0)


def test_volume_ratio_anchors():
    assert volume_ratio(ball(3, 1.0), 10_000, seed=4) == pytest.approx(1.0, abs=1e-12)
    assert volume_ratio(ball(4, 2.0), 10_000, seed=5) == pytest.approx(2.0, abs=1e-12)
    A = volume_ratio(cube(2, 1.0), 400_000, seed=6)
    assert A == pytest.approx(math.sqrt(4.0 / math.pi), abs=0.005)


def test_volume_ratio_containment_witness():
    with pytest.raises(HypothesisError, match=r"^K: .*\(support 0\.5 < 1\)") as exc:
        volume_ratio(ball(3, 0.5), 1000, seed=7)
    assert np.linalg.norm(exc.value.witness) == pytest.approx(1.0, abs=1e-12)


def test_rogers_shephard_random_polytopes():
    # difference-body volume ratio stays below the central binomial bound
    rng = np.random.default_rng(14)
    for n in (2, 3, 4):
        V = rng.normal(size=(n + 4, n))
        K = vertex_polytope(V)
        D = difference_body(K)
        v1, se1 = mc_volume(K, 120_000, seed=int(rng.integers(1 << 30)))
        v2, se2 = mc_volume(D, 120_000, seed=int(rng.integers(1 << 30)))
        ratio = v2 / v1
        slack = 3 * ratio * math.hypot(se1 / v1, se2 / v2)
        assert ratio <= math.comb(2 * n, n) + slack


def test_unit_ball_volume_values():
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


@pytest.mark.parametrize("K", [cube(3, 0.8), ellipsoid([1.0, 2.0, 0.5])],
                         ids=["cube", "ellipsoid"])
def test_linear_image_projects_by_conjugation(K):
    image = linear_image(K, haar_rotation(3, seed=21), 1.7)
    rng = np.random.default_rng(3)
    X = sphere_points(rng, 40, 3) * rng.uniform(0.1, 4.0, 40)[:, None]
    P = image.project(X)
    d = np.linalg.norm(X - P, axis=1)
    assert np.any(d <= 1e-12) and np.any(d > 0.5)  # members and far points
    assert np.max(np.abs(d - image.distance(X))) <= 1e-12
    dual = np.linalg.norm(X - nearest_points(image.support_pieces, X), axis=1)
    assert np.max(np.abs(d - dual)) <= 1e-12
    assert np.all(image.contains(P))
    assert np.max(np.abs(image.project(P) - P)) <= 1e-12
