"""Properties of the optimizer's facet stage on Minkowski sums of zonotopes
and the hull of +- pairs or ellipsoids, drawn by hypothesis, and of the
polar diameters of the two-bodies harness."""

from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from waistlab import experiments, optimize
from waistlab.bodies import ball, cross_polytope, cube, ellipsoid, polar, product_body
from waistlab.estimators import diameter_of_intersection, inclusion_radius
from waistlab.geometry import canonical_frame, haar_rotation
from waistlab.optimize import OptimizerConfig, minimize_on_sphere
from waistlab.pieces import Piece, map_pieces, max_of, sum_pieces

CFG = OptimizerConfig(restarts=16, iters=120, seed=0)


def _descended(pieces, n):
    """The field's result with the exact stage switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "_exact", lambda pieces, n: None)
        return minimize_on_sphere(pieces, n, CFG)


def _sum(M, P):
    """The field |u M|_1 + max_j |<u, p_j>| over the rows p_j of P."""
    return (Piece("sum", parts=((Piece("l1", M),), (Piece("linear", np.vstack([P, -P])),))),)


@st.composite
def minkowski_sums(draw):
    """(n, pieces) for n = 2-5: the support of cube(w) + U cross(r) for a
    Haar rotation U, of the same sum with U = I, or of a random zonotope of
    k generators plus the hull of m random pairs, k in [1, min(n + 1, 5)]
    and m in [n, n + 2], which span R^n almost surely."""
    n = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["rotated", "aligned", "random"]))
    if kind == "random":
        rng = np.random.default_rng(seed)
        k, m = draw(st.integers(1, min(n + 1, 5))), draw(st.integers(n, n + 2))
        return n, _sum(rng.standard_normal((n, k)), rng.standard_normal((m, n)))
    w, r = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    U = haar_rotation(n, seed=seed) if kind == "rotated" else np.eye(n)
    return n, sum_pieces((cube(n, w).support_pieces,
                          map_pieces(cross_polytope(n, r).support_pieces, U)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(minkowski_sums())
def test_facet_values_equal_the_hull_and_never_lose_to_the_descent(field):
    n, pieces = field
    res = optimize._minkowski_facets(pieces, n)
    assert (res.stage, res.method, res.lower) == ("exact", "Minkowski facets", res.value)
    assert res.value == max_of(pieces, res.direction[None])[0]  # attained at its direction
    assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-15)
    hull = optimize._hull(pieces, n)
    assert hull.stage == "exact" and hull.method == "convex hull"
    assert abs(res.value - hull.value) <= 1e-14 * hull.value
    assert res.value <= _descended(pieces, n).value * (1.0 + 1e-14)
    # the stage answers the field ahead of the hull, with one Qhull call less
    assert minimize_on_sphere(pieces, n, CFG).method == "Minkowski facets"


def test_facet_systems_count_every_choice_of_generators_pairs_and_signs():
    assert [len(optimize._facet_systems(n, n, n)) for n in (3, 4, 5)] == [31, 160, 841]
    # sigma is +1 on the first pair of every system: its rows index p_j, not -p_j
    idx = optimize._facet_systems(4, 3, 5)
    first = (idx >= 3).argmax(axis=1)
    assert np.all(idx[np.arange(len(idx)), first] < 3 + 5)
    assert len({tuple(sorted(row)) for row in idx}) == len(idx)


def _reference_systems(n, k, m, newest):
    """The systems of _facet_systems, listed by itertools: generators I,
    then pairs J, then the signs of J past its first pair."""
    rows = [I + (k + J[0],) + tuple(k + j + m * s for j, s in zip(J[1:], signs))
            for size in range(1, min(n, m) + 1) if n - size <= k
            for I in combinations(range(k), n - size)
            for J in (combinations(range(m), size) if not newest else
                      (c + (m - 1,) for c in combinations(range(m - 1), size - 1)))
            for signs in product((0, 1), repeat=size - 1)]
    return np.array(rows, dtype=int).reshape(-1, n)


@pytest.mark.parametrize("newest", [False, True])
def test_facet_systems_equal_an_itertools_listing_row_for_row(newest):
    for n in range(1, 6):
        for k in range(7):
            for m in range(1, 11):
                idx = optimize._facet_systems(n, k, m, newest)
                assert np.array_equal(idx, _reference_systems(n, k, m, newest)), (n, k, m)
                assert idx.shape[1] == n and idx.dtype.kind == "i"


def test_sum_field_makes_no_qhull_call(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the facet stage built a hull")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", fail)
    n = 5
    cross = map_pieces(cross_polytope(n, 1.5).support_pieces, haar_rotation(n, seed=3))
    pieces = sum_pieces((cube(n, 1.0).support_pieces, cross))
    res = minimize_on_sphere(pieces, n, CFG)
    assert (res.stage, res.method, res.descent_iters) == ("exact", "Minkowski facets", 0)
    assert res.nfev == 2 * 841 + 1  # every system of R^5 has a solution here


def _declined():
    """Fields the facet stage must leave to the other stages."""
    n = 3
    U = haar_rotation(n, seed=11)
    cross = map_pieces(cross_polytope(n, 1.5).support_pieces, U)
    simplex = Piece("linear", np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                        [-1.0, -1.0, -1.0]]))
    smooth = Piece("smooth", value=lambda V: np.linalg.norm(V, axis=1))
    flat = np.diag([1.5, 1.5, 0.0])[:2]  # pairs that span a plane only
    return {
        "l2 part": sum_pieces((ellipsoid([1.0, 1.4, 0.8]).support_pieces, cross)),
        "smooth part": (Piece("sum", parts=(cube(n, 1.0).support_pieces, cross, (smooth,))),),
        "unpaired rows": sum_pieces((cube(n, 1.0).support_pieces, (simplex,))),
        "flat pairs": _sum(np.eye(n), flat),
        "two pieces in a part": (Piece("sum", parts=(cube(n, 1.0).support_pieces,
                                                     cross + cube(n, 0.5).support_pieces)),),
    }


@pytest.mark.parametrize("name", list(_declined()))
def test_other_fields_decline_to_todays_path(name, monkeypatch):
    pieces, n = _declined()[name], 3
    assert optimize._minkowski_facets(pieces, n) is None
    res = minimize_on_sphere(pieces, n, CFG)
    monkeypatch.setattr(optimize, "_minkowski_facets", lambda pieces, n: None)
    alone = minimize_on_sphere(pieces, n, CFG)
    assert (res.value, res.stage, res.method, res.lower) == (alone.value, alone.stage,
                                                             alone.method, alone.lower)
    assert np.array_equal(res.direction, alone.direction)
    if name == "flat pairs":  # at e_3, a facet the systems would miss (their least value is 2.47)
        assert (res.stage, res.method) == ("exact", "convex hull")
        assert res.value == pytest.approx(1.0, rel=1e-14)


def test_rows_past_hull_rows_decline(monkeypatch):
    n = 4
    cross = map_pieces(cross_polytope(n, 1.5).support_pieces, haar_rotation(n, seed=5))
    pieces = sum_pieces((cube(n, 1.0).support_pieces, cross))
    assert optimize._minkowski_facets(pieces, n) is not None
    monkeypatch.setattr(optimize, "HULL_ROWS", 16 * 8 - 1)  # one row short of the 128
    assert optimize._minkowski_facets(pieces, n) is None
    monkeypatch.setattr(optimize, "HULL_ROWS", 0)
    res = minimize_on_sphere(pieces, n, CFG)
    assert res.stage in ("descent", "polish") and (res.method, res.lower) == (None, None)


# ---------------------------------------------------------------------------
# sums of zonotopes and ellipsoids: cutting planes over the facet systems
# ---------------------------------------------------------------------------


@st.composite
def ellipsoid_sums(draw):
    """(n, pieces) for n = 2-5: the support of E + U Z for an ellipsoid E
    with semiaxes in [0.5, 2] or a ball of radius in [0.5, 2], a Haar
    rotation U, and Z a cube of half-width in [0.5, 2] or a random
    parallelotope of n generators."""
    n = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        E = ellipsoid(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    else:
        E = ball(n, draw(st.floats(0.5, 2.0)))
    if draw(st.booleans()):
        Z = cube(n, draw(st.floats(0.5, 2.0))).support_pieces
    else:
        Z = (Piece("l1", np.random.default_rng(seed).standard_normal((n, n))),)
    return n, sum_pieces((E.support_pieces, map_pieces(Z, haar_rotation(n, seed=seed))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ellipsoid_sums())
def test_ellipsoid_sums_are_attained_and_never_lose_to_the_descent(field):
    n, pieces = field
    res = optimize._minkowski_facets(pieces, n)
    assert res.method == "Minkowski facets"
    assert res.value == max_of(pieces, res.direction[None])[0]  # attained at its direction
    found = _descended(pieces, n).value
    if res.stage == "exact":
        assert res.lower == res.value and res.value <= found * (1.0 + 1e-14)
        hull = optimize._hull(pieces, n)
        if hull is not None and hull.stage == "exact":
            assert abs(res.value - hull.value) <= 1e-14 * hull.value
    else:  # a bound that did not certify still holds
        assert res.stage == "bound" and 0.0 < res.lower <= found * (1.0 + 1e-14)


@pytest.mark.parametrize("n, k, ms", [(3, 3, (4, 9, 20)), (4, 4, (5, 8, 12)), (5, 5, (6, 7, 8)),
                                      (4, 2, (5, 6)), (5, 7, (6, 8))])
def test_a_rounds_systems_are_those_of_the_full_table_that_use_the_newest_pair(n, k, ms):
    for m in ms:
        full = optimize._facet_systems(n, k, m)
        newest = np.any((full >= k) & ((full - k) % m == m - 1), axis=1)
        assert np.array_equal(optimize._facet_systems(n, k, m, True), full[newest])


def test_five_dimensional_ellipsoid_cube_sums_make_no_hull_or_slsqp_call(monkeypatch):
    # the incl_sum field of the polytope-dual benchmark's R^5 jobs
    def fail(*args, **kwargs):
        raise AssertionError("a hull or SLSQP call")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", fail)
    monkeypatch.setattr(optimize, "_scipy_minimize", fail)
    E = ellipsoid([1.0, 1.4, 0.8, 1.2, 0.9])
    for seed in range(4):
        res = inclusion_radius(E, cube(5, 1.0), haar_rotation(5, seed=seed))
        assert res.note == "exact (Minkowski facets)" and res.lower_bracket == res.value


def test_an_elongated_sum_leaves_the_stage_bounded_at_hull_rows(monkeypatch):
    n = 5
    pieces = sum_pieces((ellipsoid([0.1, 3.0, 0.2, 2.5, 1.0]).support_pieces,
                         map_pieces(cube(n, 1.0).support_pieces, haar_rotation(n, seed=3))))
    systems, real = [], optimize._facet_systems
    monkeypatch.setattr(optimize, "_facet_systems",
                        lambda *args: systems.append(args) or real(*args))
    bound = optimize._minkowski_facets(pieces, n)
    assert bound.stage == "bound" and 0.0 < bound.lower <= bound.value
    # 5 pairs, then one per round, until 32 cube rows times 2 (m + 1) pass 512
    assert systems == [(n, n, 5, False), (n, n, 6, True), (n, n, 7, True), (n, n, 8, True)]
    res = minimize_on_sphere(pieces, n, CFG)
    assert res.stage in ("descent", "polish") and res.method == "Minkowski facets"
    assert res.lower == bound.lower <= res.value
    # the bound is checked before any system is built
    systems.clear()
    monkeypatch.setattr(optimize, "HULL_ROWS", 32 * 10 - 1)
    assert optimize._minkowski_facets(pieces, n) is None and not systems


def test_ball_and_cube_sums_of_criterion_10a_are_exact():
    for s in range(2):
        res = inclusion_radius(ball(4, 1.2), cube(4, 0.8), haar_rotation(4, seed=1040 + s))
        assert (res.note, res.value, res.lower_bracket) == ("exact (Minkowski facets)", 2.0, 2.0)


# ---------------------------------------------------------------------------
# the polar diameters of run_two_bodies
# ---------------------------------------------------------------------------

HARNESS_OPT = OptimizerConfig(restarts=8, iters=40, seed=0)


def _spy_harness(monkeypatch):
    """What run_two_bodies passes on: the rotations of its hull-of-union
    radius ("imax") and of its polar diameter ("polar"), and the Qhull
    calls and descents that the polar diameter makes."""
    seen = {"imax": None, "polar": None, "hulls": 0, "descents": 0}
    polar_running = [False]
    real_hull, real_descend = scipy.spatial.ConvexHull, optimize._descend
    real_radius, real_diameter = experiments.inclusion_radius, experiments.diameter_of_intersection

    def hull(*args, **kwargs):
        seen["hulls"] += polar_running[0]
        return real_hull(*args, **kwargs)

    def descend(*args, **kwargs):
        seen["descents"] += polar_running[0]
        return real_descend(*args, **kwargs)

    def radius(K, L, U, *args, **kwargs):
        if kwargs.get("combine") == "max":
            seen["imax"] = np.array(U)
        return real_radius(K, L, U, *args, **kwargs)

    def diameter(K, L, U, *args, **kwargs):
        polar_running[0] = K.kind == "polar"
        if polar_running[0]:
            seen["polar"] = np.array(U)
        try:
            return real_diameter(K, L, U, *args, **kwargs)
        finally:
            polar_running[0] = False

    monkeypatch.setattr(scipy.spatial, "ConvexHull", hull)
    monkeypatch.setattr(optimize, "_descend", descend)
    monkeypatch.setattr(experiments, "inclusion_radius", radius)
    monkeypatch.setattr(experiments, "diameter_of_intersection", diameter)
    return seen


def _dual_products(n, K, L, trials, seed):
    return experiments.run_two_bodies(
        K, L, n, 2, trials=trials, seed=seed, mode="dual", dual_products=True,
        section_K=canonical_frame(n, 1), section_L=canonical_frame(n, 2, offset=n - 2),
        opt=HARNESS_OPT)


@pytest.mark.parametrize("n, K, L, trials, seed, opened", [
    (4, cube(4, 1.0), cross_polytope(4, 1.5), 4, 3, 0),
    (5, ellipsoid([1.0, 1.4, 0.8, 1.2, 0.9]), cube(5, 1.0), 4, 3, 0),
    (4, ellipsoid([1.0, 1.4, 0.8, 1.2]), cube(4, 1.0), 24, 0, 1),
    (4, ellipsoid([1.0, 1.4, 0.8, 1.2]), cube(4, 1.0), 2, 4, 2),
], ids=["cube-cross", "ellipsoid-cube", "mixed", "all-open"])
def test_polar_diameters_reuse_the_hull_of_union_answers(n, K, L, trials, seed, opened,
                                                         monkeypatch):
    seen = _spy_harness(monkeypatch)
    report = _dual_products(n, K, L, trials, seed)
    rotations = seen["imax"]
    imax = inclusion_radius(K, L, rotations, opt=HARNESS_OPT, combine="max")
    open_trials = np.array([im.lower_bracket != im.value for im in imax])
    assert open_trials.sum() == opened
    # the polar estimator sees exactly the open trials, and nothing else runs for it
    assert np.array_equal(seen["polar"], rotations[open_trials])
    if not opened:
        assert seen["hulls"] == 0 and seen["descents"] == 0
    # each product equals the one from a polar diameter of that trial alone
    alt = replace(HARNESS_OPT, seed=HARNESS_OPT.seed + 7919)
    for row, U, im, is_open in zip(report.trials, rotations, imax, open_trials):
        assert row["incl_max"] == im.value
        assert abs(row["dual_product"] - 2.0) <= (1e-4 if is_open else 1e-12)
        d = diameter_of_intersection(polar(K), polar(L), U, opt=alt)
        assert row["dual_product"] == d.diameter * im.value


def test_open_trials_take_their_polar_diameters_from_the_estimator(monkeypatch):
    real = experiments.diameter_of_intersection

    def diameter(K, L, U, *args, **kwargs):
        out = real(K, L, U, *args, **kwargs)
        if K.kind == "polar":  # polar diameters of 3, never 2 / r
            for d in out:
                d.diameter = 3.0
        return out

    monkeypatch.setattr(experiments, "diameter_of_intersection", diameter)
    rows = _dual_products(4, ellipsoid([1.0, 1.4, 0.8, 1.2]), cube(4, 1.0), 24, 0).trials
    assert sum(row["dual_product"] == 3.0 * row["incl_max"] for row in rows) == 1  # the open one
    assert sum(abs(row["dual_product"] - 2.0) <= 1e-12 for row in rows) == len(rows) - 1


@st.composite
def catalog_pairs(draw):
    """(n, K, L, U) for n = 2-5: two symmetric catalog bodies (a cube, a
    cross-polytope, an ellipsoid, a ball, or a ball times a cube) with
    sizes in [0.5, 2], and a Haar rotation U."""
    n = draw(st.integers(2, 5))

    def body():
        kind = draw(st.sampled_from(["cube", "cross", "ellipsoid", "ball", "ball x cube"]))
        if kind == "ellipsoid":
            return ellipsoid(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
        if kind == "ball x cube":
            k = draw(st.integers(1, n - 1))
            return product_body(ball(k, draw(st.floats(0.5, 2.0))),
                                cube(n - k, draw(st.floats(0.5, 2.0))))
        make = {"cube": cube, "cross": cross_polytope, "ball": ball}[kind]
        return make(n, draw(st.floats(0.5, 2.0)))

    return n, body(), body(), haar_rotation(n, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(catalog_pairs())
def test_the_polar_diameter_times_the_hull_of_union_radius_is_two(pair):
    # the identity run_two_bodies relies on: both minimize max(h_K, h_UL)
    n, K, L, U = pair
    r = inclusion_radius(K, L, U, combine="max")
    d = diameter_of_intersection(polar(K), polar(L), U)
    certified = r.lower_bracket == r.value
    assert (d.upper_bracket == d.diameter) == certified  # one field, certified or not
    assert abs(d.diameter * r.value - 2.0) <= (1e-12 if certified else 1e-4)
