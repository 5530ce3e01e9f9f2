import math

import numpy as np
import pytest

from waistlab import optimize
from waistlab._util import sphere_points
from waistlab.bodies import (Body, ball, cross_polytope, cube, ellipsoid, linear_image,
                             polar, product_body, slab_body,
                             truncated_cylinder, unit_ball_volume, vertex_polytope)
from waistlab.errors import DomainError
from waistlab.estimators import (covering_number_upper, diameter_of_intersection,
                                 entropy_bound, inclusion_radius, mc_sigma_body,
                                 section_diameter)
from waistlab.geometry import canonical_frame, haar_rotation, haar_rotations
from waistlab.measures import SubsphereQuery, sigma_exact, sigma_lip_lower
from waistlab.optimize import OptimizerConfig
from waistlab.pieces import Piece


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# mc_sigma_body
# ---------------------------------------------------------------------------


def test_sigma_body_whole_sphere():
    est, se = mc_sigma_body(ball(3, 1.0), 0.1, 20_000, seed=0)
    assert est == 1.0


def test_sigma_body_origin_misses():
    est, se = mc_sigma_body(ball(3, 0.0), 0.5, 20_000, seed=1)
    assert est == 0.0


def test_sigma_body_two_caps_anchor():
    # closed-form oracle: two caps of angular radius 30 degrees
    seg = product_body(cube(1, 1.0), ball(2, 0.0))
    est, se = mc_sigma_body(seg, 0.5, 300_000, seed=2)
    oracle = 1.0 - math.cos(math.pi / 6)
    assert abs(est - oracle) <= 4 * se
    assert oracle == pytest.approx(sigma_exact(SubsphereQuery(2, 0, math.asin(0.5))), abs=1e-12)
    assert oracle == pytest.approx(0.13397, abs=5e-6)


def test_sigma_body_equality_case_embedded_ball():
    # flat unit k-ball in R^n: neighborhood fraction equals the subsphere value
    for n, k, eps, sd in [(4, 2, 0.3, 3), (6, 3, 0.5, 4)]:
        K = product_body(ball(k, 1.0), ball(n - k, 0.0))
        est, se = mc_sigma_body(K, eps, 200_000, seed=sd)
        ref = sigma_exact(SubsphereQuery(n - 1, k - 1, math.asin(eps)))
        assert abs(est - ref) <= 4 * se


def test_sigma_body_projection_lower_bound():
    # cylinder over the unit 2-ball: measure dominates the odd-map bound
    n, k, eps = 5, 2, 0.4
    K = product_body(ball(k, 1.0), ball(n - k, 0.1))
    est, se = mc_sigma_body(K, eps, 200_000, seed=5)
    assert est + 4 * se >= sigma_lip_lower(n - 1, k - 1, math.asin(eps))


def test_sigma_body_deterministic():
    K = cube(3, 0.8)
    assert mc_sigma_body(K, 0.2, 50_000, seed=9) == mc_sigma_body(K, 0.2, 50_000, seed=9)


# ---------------------------------------------------------------------------
# covering numbers and the entropy bound
# ---------------------------------------------------------------------------


def test_covering_identity():
    D = ball(2, 1.0)
    assert covering_number_upper(D, D, probes=4000, seed=0) == 1


def test_covering_interval():
    assert covering_number_upper(cube(1, 1.0), cube(1, 0.5), probes=2000, seed=0) == 2


def test_covering_half_disk():
    n = covering_number_upper(ball(2, 1.0), ball(2, 0.5), probes=6000, seed=0)
    assert n <= 25  # volumetric (1 + 2/eps)^n at eps = 1/2


def test_covering_volumetric_sanity_balls():
    # packing-form volumetric bound |L + K/2| / |K/2| for ball pairs
    for rho in (0.4, 0.7):
        n = covering_number_upper(ball(2, 1.0), ball(2, rho), probes=6000, seed=1)
        assert n <= ((1 + rho / 2) / (rho / 2)) ** 2


def test_covering_requires_interior():
    with pytest.raises(DomainError):
        covering_number_upper(ball(2, 1.0), ball(2, 0.0), probes=100, seed=0)


def test_entropy_bound_values():
    D3 = ball(3, 1.0)
    assert entropy_bound(D3, 1.0) == 8.0
    assert entropy_bound(D3, 0.134) == pytest.approx(8.0 / 0.134, rel=1e-12)
    assert entropy_bound(D3, 0.134) == pytest.approx(59.7, abs=0.02)
    big = entropy_bound(ball(8, 1.0), 1e-9)
    assert math.isfinite(big) and big == pytest.approx(2.0 ** 8 / 1e-9, rel=1e-12)
    with pytest.raises(DomainError):
        entropy_bound(D3, 0.0)


def test_entropy_bound_dominates_greedy_cover():
    # slab through the sphere at n = 4: exact measure available
    K = slab_body(np.eye(4)[:1], [0.4])
    sigma = sigma_exact(SubsphereQuery(3, 2, math.asin(0.4)))
    est, se = mc_sigma_body(K, 0.0, 100_000, seed=3)
    assert abs(est - sigma) <= 4 * se
    N = covering_number_upper(ball(4, 1.0), K, probes=6000, seed=4)
    assert N <= entropy_bound(K, max(est - 3 * se, 1e-9))


# ---------------------------------------------------------------------------
# intersection diameter
# ---------------------------------------------------------------------------


def test_diameter_balls(opt_small):
    d = diameter_of_intersection(ball(3, 1.0), ball(3, 1.0), np.eye(3), opt=opt_small)
    assert d.diameter == pytest.approx(2.0, abs=1e-12)
    assert d.upper_bracket == d.diameter


def test_diameter_cubes_diagonal(opt_small):
    for n in (2, 3, 4):
        K = cube(n, 1.0)
        d = diameter_of_intersection(K, K, np.eye(n), opt=opt_small)
        assert d.diameter == pytest.approx(2.0 * math.sqrt(n), abs=1e-9)


def test_diameter_rotated_diamonds(opt_small):
    B = cross_polytope(2, 1.0)
    d = diameter_of_intersection(B, B, rotation2(math.pi / 4), opt=opt_small)
    # dense angular oracle for the max-min radial value
    phis = np.linspace(0, 2 * math.pi, 200_001)
    g1 = np.abs(np.cos(phis)) + np.abs(np.sin(phis))
    g2 = np.abs(np.cos(phis - math.pi / 4)) + np.abs(np.sin(phis - math.pi / 4))
    oracle = 2.0 / np.maximum(g1, g2).min()
    assert d.diameter == pytest.approx(float(oracle), abs=1e-8)
    assert d.diameter == pytest.approx(1.53073, abs=5e-6)


def test_diameter_requires_symmetry(opt_small):
    from waistlab.bodies import vertex_polytope

    T = vertex_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        diameter_of_intersection(T, cube(2, 1.0), np.eye(2), opt=opt_small)


def test_diameter_upper_bracket(opt_small):
    K, L = ball(2, 1.0), cube(2, 0.8)
    d = diameter_of_intersection(K, L, np.eye(2), opt=opt_small, bracket_delta=0.3)
    assert d.upper_bracket is not None
    assert d.diameter <= d.upper_bracket


def test_diameter_truncation_flag(opt_small):
    C = truncated_cylinder(ball(2, 0.5), 4, truncation_radius=50.0)
    d = diameter_of_intersection(C, C, np.eye(4), opt=opt_small)
    assert d.truncated


# ---------------------------------------------------------------------------
# inclusion radius
# ---------------------------------------------------------------------------


def test_inclusion_balls(opt_small):
    r = inclusion_radius(ball(3, 1.0), ball(3, 1.0), np.eye(3), opt=opt_small)
    assert r.value == pytest.approx(2.0, abs=1e-12)


def test_inclusion_cubes(opt_small):
    r = inclusion_radius(cube(3, 1.0), cube(3, 1.0), np.eye(3), opt=opt_small)
    # minimum of 2*l1-norm over unit directions is 2, at a coordinate axis
    assert r.value == pytest.approx(2.0, abs=1e-9)
    assert np.abs(r.direction).max() == pytest.approx(1.0, abs=1e-6)


def test_inclusion_diamonds(opt_small):
    r = inclusion_radius(cross_polytope(2, 1.0), cross_polytope(2, 1.0),
                         np.eye(2), opt=opt_small)
    assert r.value == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_inclusion_lower_bracket(opt_small):
    r = inclusion_radius(ball(2, 1.0), cube(2, 0.7), np.eye(2), opt=opt_small,
                         bracket_delta=0.3)
    assert r.lower_bracket is not None
    assert r.lower_bracket <= r.value + 1e-12


def test_inclusion_invalid_combine(opt_small):
    with pytest.raises(DomainError):
        inclusion_radius(ball(2, 1.0), ball(2, 1.0), np.eye(2), combine="avg")


# ---------------------------------------------------------------------------
# section diameter
# ---------------------------------------------------------------------------


def test_section_cube_face_diagonal(opt_small):
    d = section_diameter(cube(3, 1.0), canonical_frame(3, 2), opt=opt_small).diameter
    assert d == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_section_ball_any_subspace(opt_small):
    from waistlab.geometry import random_subspace

    E = random_subspace(5, 3, seed=11)
    assert section_diameter(ball(5, 1.0), E, opt=opt_small).diameter == pytest.approx(2.0, abs=1e-9)


def test_section_ellipsoid_axis(opt_small):
    E = ellipsoid([1.0, 2.0, 0.5])
    assert section_diameter(E, canonical_frame(3, 1, offset=1), opt=opt_small).diameter == \
        pytest.approx(4.0, abs=1e-9)
    assert section_diameter(E, canonical_frame(3, 1, offset=2), opt=opt_small).diameter == \
        pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# optimizer-level invariances
# ---------------------------------------------------------------------------


def test_common_rotation_invariance(opt_tight):
    K = ellipsoid([1.0, 1.3, 0.7])
    L = ellipsoid([0.9, 1.1, 1.2])
    U = haar_rotation(3, seed=12)
    V = haar_rotation(3, seed=13)
    d0 = diameter_of_intersection(K, L, U, opt=opt_tight).diameter
    KV, LV = linear_image(K, V), linear_image(L, V)
    UV = V @ U @ V.T
    d1 = diameter_of_intersection(KV, LV, UV, opt=opt_tight).diameter
    assert d1 == pytest.approx(d0, rel=1e-6)
    r0 = inclusion_radius(K, L, U, opt=opt_tight).value
    r1 = inclusion_radius(KV, LV, UV, opt=opt_tight).value
    assert r1 == pytest.approx(r0, rel=1e-6)


def test_monotone_under_enlargement(opt_small):
    K = ellipsoid([1.0, 0.8])
    L = cube(2, 0.9)
    U = haar_rotation(2, seed=14)
    d0 = diameter_of_intersection(K, L, U, opt=opt_small).diameter
    d1 = diameter_of_intersection(linear_image(K, np.eye(2), 1.2), L, U, opt=opt_small).diameter
    assert d1 >= d0 - 1e-9
    r0 = inclusion_radius(K, L, U, opt=opt_small).value
    r1 = inclusion_radius(linear_image(K, np.eye(2), 1.2), L, U, opt=opt_small).value
    assert r1 >= r0 - 1e-9


def test_duality_product_exact_two(opt_tight):
    K = ellipsoid([1.0, 1.4, 0.8])
    L = cube(3, 0.9)
    U = haar_rotation(3, seed=15)
    imax = inclusion_radius(K, L, U, opt=opt_tight, combine="max")
    alt = OptimizerConfig(restarts=40, iters=120, seed=777)
    pd = diameter_of_intersection(polar(K), polar(L), U, opt=alt)
    assert pd.diameter * imax.value == pytest.approx(2.0, rel=1e-4)
    isum = inclusion_radius(K, L, U, opt=opt_tight, combine="sum")
    assert 2.0 - 1e-9 <= pd.diameter * isum.value <= 4.0 + 1e-9


# ---------------------------------------------------------------------------
# batched estimators
# ---------------------------------------------------------------------------


def test_batched_estimators_equal_one_rotation_calls(opt_small):
    # a vertex polytope evaluates through matrix products; a batch stacks
    # the rotations into one array, whichever memory layout each U has,
    # and a sequence of rotations and an (F, n, n) stack are the same batch
    rng = np.random.default_rng(8)
    P = rng.standard_normal((9, 4))
    K = vertex_polytope(np.vstack([P, -P]))
    L = ellipsoid([1.0, 1.4, 0.8, 1.2])
    stack = haar_rotations(4, 5, seed=8)
    rotations = list(stack)
    rotations[1::2] = [np.asfortranarray(U) for U in rotations[1::2]]
    for batch in (rotations, stack):
        ds = diameter_of_intersection(K, L, batch, opt=opt_small)
        assert len(ds) == len(rotations)
        for d, U in zip(ds, rotations):
            one = diameter_of_intersection(K, L, U, opt=opt_small)
            assert d.diameter == one.diameter
            assert np.array_equal(d.direction, one.direction)
        for combine in ("sum", "max"):
            rs = inclusion_radius(K, L, batch, opt=opt_small, combine=combine)
            assert len(rs) == len(rotations)
            for r, U in zip(rs, rotations):
                one = inclusion_radius(K, L, U, opt=opt_small, combine=combine)
                assert r.value == one.value
                assert np.array_equal(r.direction, one.direction)
    sections = stack[:, :2]
    for batch in (sections, list(sections)):
        assert [d.diameter for d in section_diameter(K, batch, opt=opt_small)] == \
            [section_diameter(K, E, opt=opt_small).diameter for E in sections]
    for empty in ([], np.zeros((0, 4, 4))):
        assert diameter_of_intersection(K, L, empty, opt=opt_small) == []
        assert inclusion_radius(K, L, empty, opt=opt_small) == []
    assert section_diameter(K, [], opt=opt_small) == []


@pytest.mark.parametrize("bad", [np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                                 np.eye(2)], ids=["shear", "2x2"])
def test_estimators_reject_non_orthogonal_rotations(bad, opt_small):
    K, L = cube(3, 1.0), ellipsoid([1.0, 1.4, 0.8])
    calls = [lambda: diameter_of_intersection(K, L, bad, opt=opt_small),
             lambda: inclusion_radius(K, L, bad, opt=opt_small),
             lambda: diameter_of_intersection(K, L, [np.eye(3), bad], opt=opt_small),
             lambda: inclusion_radius(K, L, [np.eye(3), bad], opt=opt_small)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("K, L", [(cube(3, 1.0), cube(2, 1.0)),
                                  (ball(3, 1.0), ellipsoid([1.0, 2.0]))],
                         ids=["polyhedral", "l2"])
def test_two_body_estimators_reject_mismatched_dimensions(K, L, opt_small):
    U = np.eye(L.dim)
    calls = [lambda: diameter_of_intersection(K, L, U, opt=opt_small),
             lambda: inclusion_radius(K, L, U, opt=opt_small),
             lambda: inclusion_radius(K, L, [U], opt=opt_small, combine="max")]
    for call in calls:
        with pytest.raises(DomainError, match="dimension mismatch"):
            call()


def test_section_batch_requires_one_dimension(opt_small):
    with pytest.raises(DomainError):
        section_diameter(ball(3, 1.0), [canonical_frame(3, 1), canonical_frame(3, 2)],
                         opt=opt_small)


# ---------------------------------------------------------------------------
# the exact stage: polyhedral fields and the 0-sphere
# ---------------------------------------------------------------------------


def _polytope_pairs(n):
    P = np.random.default_rng(n).standard_normal((n + 1, n))
    return [(cube(n, 1.0), cross_polytope(n, 1.5)),
            (vertex_polytope(np.vstack([P, -P])), cross_polytope(n, 1.2))]


def _polytope_estimates(K, L, rotations, opt):
    return (diameter_of_intersection(K, L, rotations, opt=opt),
            inclusion_radius(K, L, rotations, opt=opt, combine="sum"),
            inclusion_radius(K, L, rotations, opt=opt, combine="max"))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_polytope_values_bound_the_optimizer(n, monkeypatch):
    # a short descent and its polish reach the hull's value to rounding on
    # most of these fields, and are never better beyond it
    opt = OptimizerConfig(restarts=4, iters=30, seed=0)
    rotations = [haar_rotation(n, seed=100 * n + s) for s in range(20)]
    for K, L in _polytope_pairs(n):
        diam, isum, imax = _polytope_estimates(K, L, rotations, opt)
        with monkeypatch.context() as m:
            m.setattr(optimize, "HULL_ROWS", 0)
            m.setattr(optimize, "_floor", lambda pieces, n: None)
            o_diam, o_isum, o_imax = _polytope_estimates(K, L, rotations, opt)
        pairs = ([(2.0 / d.diameter, 2.0 / od.diameter) for d, od in zip(diam, o_diam)]
                 + [(r.value, o.value) for r, o in zip(isum + imax, o_isum + o_imax)])
        # the piece floor answers some of the maxima first, the hull the rest
        exact = ("exact (piece floor)", "exact (convex hull)")
        for d, od in zip(diam, o_diam):
            assert d.note in exact and od.note.startswith("lower bound")
            assert d.upper_bracket == d.diameter
        # the sum of a cube and a cross-polytope is answered by its facets
        sum_note = "exact (Minkowski facets)" if K.kind == "cube" else "exact (convex hull)"
        for r in isum:
            assert r.note == sum_note and r.lower_bracket == r.value
        for r in imax:
            assert r.note in exact and r.lower_bracket == r.value
        assert "exact (convex hull)" in [d.note for d in diam] + [r.note for r in imax]
        # every field is a minimum: the hull's is never above the optimizer's
        assert all(exact <= found * (1.0 + 1e-12) for exact, found in pairs)
        assert sum(exact >= found * (1.0 - 1e-12) for exact, found in pairs) >= len(pairs) / 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_cube_cross_duality_product_is_two(n):
    K, L = cube(n, 1.0), cross_polytope(n, 1.5)
    U = haar_rotation(n, seed=15 + n)
    imax = inclusion_radius(K, L, U, combine="max")
    pd = diameter_of_intersection(polar(K), polar(L), U)
    assert pd.note == imax.note and pd.note in ("exact (piece floor)", "exact (convex hull)")
    assert pd.diameter * imax.value == pytest.approx(2.0, rel=1e-12)
    # both fields have the same rows, so the product is 2 at any facet; each
    # value must also be attained at its direction and be the field's minimum
    UL, PK, PUL = linear_image(L, U), polar(K), linear_image(polar(L), U)
    fields = [(lambda V: np.maximum(K.support(V), UL.support(V)), imax.value, imax.direction),
              (lambda V: np.maximum(PK.gauge(V), PUL.gauge(V)), 2.0 / pd.diameter,
               pd.direction)]
    V = sphere_points(np.random.default_rng(n), 20_000, n)
    for field, value, u in fields:
        assert value == pytest.approx(field(u[None])[0], rel=1e-14, abs=0)
        assert value <= field(V).min() * (1.0 + 1e-12)


def test_one_dimensional_sections_are_exact(opt_small):
    E = ellipsoid([1.0, 2.0, 0.5])
    frame = np.array([[0.6, 0.8, 0.0]])
    # the section's diameter is twice the radial value along the frame row
    expected = 2.0 / E.gauge(frame[0])
    assert section_diameter(E, frame, opt=opt_small).diameter == expected
    d = diameter_of_intersection(cube(1, 1.0), ball(1, 0.5), np.eye(1), opt=opt_small)
    assert (d.diameter, d.upper_bracket) == (1.0, 1.0)
    assert d.note == "exact (both points of the 0-sphere)"


# ---------------------------------------------------------------------------
# the exact stage: maxima of Euclidean norms by the S-lemma dual
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 10, 12])
def test_s_lemma_values_bound_the_optimizer(n, monkeypatch):
    # the cylinder pairs of acceptance criterion 10b; past the exact stage,
    # the descent and its polish never find a smaller gauge than the dual
    k = n // 2
    m2 = max(1, math.ceil(0.25 * k))
    K = truncated_cylinder(ball(k, 0.5), n, truncation_radius=1e6)
    L = product_body(ball(m2, 1e6), ball(n - m2, 0.5))
    opt = OptimizerConfig(restarts=16, iters=60, seed=0)
    rotations = [haar_rotation(n, seed=1000 * n + s) for s in range(8)]
    exact = diameter_of_intersection(K, L, rotations, opt=opt)
    monkeypatch.setattr(optimize, "_s_lemma", lambda pieces, n: None)
    found = diameter_of_intersection(K, L, rotations, opt=opt)
    for d, od in zip(exact, found):
        assert d.note == "exact (S-lemma dual)" and od.note.startswith("lower bound")
        assert d.upper_bracket == d.diameter
        assert od.diameter <= d.diameter * (1.0 + 1e-14)


def test_uncertified_euclidean_fields_carry_the_dual_bracket(opt_small):
    # |<x, a_i>| for three unit a_i 60 degrees apart, as rank-one Euclidean
    # norms: the gauges cut out the hexagon of inradius 1 and the supports
    # are those of its three diagonals.  Both fields have the minimum
    # sqrt(3)/2, and the dual's edges reach only phi = 1/4
    a = [np.array([[math.cos(t)], [math.sin(t)]]) for t in np.radians([0.0, 60.0, 120.0])]
    K = Body(2, gauge=(Piece("l2", a[0]), Piece("l2", a[1])),
             support=(Piece("l2", a[0]), Piece("l2", a[1])),
             inner_radius=1.0, outer_radius=2.0, symmetric=True)
    L = Body(2, gauge=(Piece("l2", a[2]),), support=(Piece("l2", a[2]),),
             inner_radius=1.0, outer_radius=math.inf, symmetric=True)
    d = diameter_of_intersection(K, L, np.eye(2), opt=opt_small)
    assert d.note == "two-sided via S-lemma dual"
    assert d.diameter == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)
    assert d.upper_bracket == pytest.approx(4.0, rel=1e-12) and d.upper_bracket >= d.diameter
    r = inclusion_radius(K, L, np.eye(2), opt=opt_small, combine="max")
    assert r.note == "two-sided via S-lemma dual"
    assert r.value == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert r.lower_bracket == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("delta, diameter_note, upper, inclusion_note, lower", [
    (0.3, "two-sided via net (delta=0.3, N=16)", 3.453427969287202,
     "two-sided via S-lemma dual", 0.4999999999999788),
    (0.05, "two-sided via net (delta=0.05, N=128)", 2.4388217213402936,
     "two-sided via net (delta=0.05, N=128)", 0.6700837674594065)], ids=["coarse", "fine"])
def test_brackets_keep_the_best_certified_floor(opt_small, delta, diameter_note, upper,
                                                inclusion_note, lower):
    # the hexagon fields above, with L bounded so that the inclusion field
    # has a Lipschitz constant: a coarse net beats the S-lemma bound on the
    # diameter's gauge but not on the max of supports, and a fine net beats
    # both
    a = [np.array([[math.cos(t)], [math.sin(t)]]) for t in np.radians([0.0, 60.0, 120.0])]
    K = Body(2, gauge=(Piece("l2", a[0]), Piece("l2", a[1])),
             support=(Piece("l2", a[0]), Piece("l2", a[1])),
             inner_radius=1.0, outer_radius=2.0, symmetric=True)
    L = Body(2, gauge=(Piece("l2", a[2]),), support=(Piece("l2", a[2]),),
             inner_radius=1.0, outer_radius=2.0, symmetric=True)
    d = diameter_of_intersection(K, L, np.eye(2), opt=opt_small, bracket_delta=delta)
    assert d.note == diameter_note
    assert d.upper_bracket == pytest.approx(upper, rel=1e-12) and d.upper_bracket >= d.diameter
    r = inclusion_radius(K, L, np.eye(2), opt=opt_small, combine="max", bracket_delta=delta)
    assert r.note == inclusion_note
    assert r.lower_bracket == pytest.approx(lower, rel=1e-12) and r.lower_bracket <= r.value
