import warnings

import numpy as np
import pytest

from waistlab import _util, estimators, optimize
from waistlab.bodies import (ball, cross_polytope, cube, ellipsoid, intersect, neighborhood,
                             polar, product_body, slab_body, truncated_cylinder, vertex_polytope)
from waistlab.errors import EvaluationError
from waistlab.estimators import diameter_of_intersection, inclusion_radius
from waistlab.geometry import haar_rotation
from waistlab.optimize import (OptimizerConfig, minimize_on_sphere, minimize_on_sphere_batch,
                               nearest_points)
from waistlab.pieces import Piece, map_pieces, select_pieces, sum_pieces

N = 4
CFG = OptimizerConfig(restarts=8, iters=200, seed=1)


def _fields(seen=None):
    """Four fields on the sphere of R^4 as one piece tuple with a leading
    field axis: field t is the max of |v M_t|_2 and a smooth piece that is
    0, or inf where (v A_t)_1 > 0.5.  A_t is 0 but for the last field,
    which is infinite on that cap.  The descents stop at different
    iterations (170, 88, 136 and 98).  seen, when given, collects the row
    count of every call of the smooth piece."""
    rng = np.random.default_rng(5)
    M = []
    for t in range(4):
        B = rng.standard_normal((N, N))
        M.append(np.linalg.cholesky(B @ B.T + 3.0 * t * np.eye(N)))
    A = np.zeros((4, N, N))
    A[-1] = np.eye(N)

    def cap(Y):
        if seen is not None:
            seen.append(len(Y))
        return np.where(Y[:, 0] > 0.5, np.inf, 0.0)

    return (Piece("l2", np.stack(M)), Piece("smooth", A, cap))


ZERO = Piece("smooth", value=lambda V: np.zeros(len(V)))  # leaves any field as it is
E5 = ellipsoid([0.1, 3.0, 0.2, 2.5, 1.0])  # elongated
# the sum of E5's support and a rotated cube's in R^5: the facet stage's
# cutting planes stop at HULL_ROWS with a bound, the hull stage declines
# its 20 seed support points times 32 cube rows, and the field descends
SUM5 = sum_pieces((E5.support_pieces,
                   map_pieces(cube(5, 1.0).support_pieces, haar_rotation(5, seed=3))))


def _hexagon():
    """max_i |<u, a_i>| for three unit a_i 60 degrees apart, whose minimum
    over the circle is sqrt(3)/2 at the hexagon's vertex directions."""
    angles = np.radians([0.0, 60.0, 120.0])
    return tuple(Piece("l2", np.array([[np.cos(t)], [np.sin(t)]])) for t in angles)


def _field(t):
    return select_pieces(_fields(), t)


def _assert_same(res, solo):
    assert res.value == solo.value
    assert np.array_equal(res.direction, solo.direction)
    assert res.nfev == solo.nfev
    assert res.stage == solo.stage


@pytest.mark.parametrize("polish", [False, True])
def test_batch_equals_solo_bit_for_bit(polish, monkeypatch):
    if not polish:
        monkeypatch.setattr(optimize, "POLISH_STARTS", 0)  # the descent alone
    solo = [minimize_on_sphere(_field(t), N, CFG) for t in range(4)]
    batch = minimize_on_sphere_batch(_fields(), N, 4, CFG)
    assert len({r.nfev for r in solo}) == 4  # stopped at different iterations
    for res, one in zip(batch, solo):
        _assert_same(res, one)


def test_stacked_pieces_of_every_kind_equal_solo_runs():
    # K's facet rows are shared by the fields; L's l1, l2, sum and smooth
    # (bisection) gauge pieces are mapped by a stack of rotations
    K = cube(3, 0.8)
    sums = polar(product_body(ball(2, 0.7), cube(1, 0.5)))  # gauge: a sum of l2 and l1 parts
    L = intersect(intersect(cross_polytope(3, 1.3), ellipsoid([1.0, 1.4, 0.8])),
                  intersect(sums, neighborhood(cube(3, 0.5), 0.3)))
    assert [p.kind for p in K.gauge_pieces + L.gauge_pieces] == \
        ["linear", "l1", "l2", "sum", "smooth"]
    rotations = [haar_rotation(3, seed=s) for s in range(4)]
    cfg = OptimizerConfig(restarts=6, iters=60, seed=2)
    stacked = K.gauge_pieces + map_pieces(L.gauge_pieces, np.stack(rotations))
    batch = minimize_on_sphere_batch(stacked, 3, len(rotations), cfg)
    assert {res.stage for res in batch} == {"descent", "polish"}
    for res, U in zip(batch, rotations):
        _assert_same(res, minimize_on_sphere(K.gauge_pieces + map_pieces(L.gauge_pieces, U),
                                             3, cfg))
        u = res.direction
        assert res.value == pytest.approx(max(K.gauge(u), L.gauge(u @ U)), rel=1e-15, abs=0)


def test_infinite_difference_sides_warn_nothing():
    # rows on the cap, where the smooth piece is active, have central
    # differences with infinite sides; those components are zero, with no
    # inf - inf and no NaN candidate
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = minimize_on_sphere(_field(3), N, CFG)
    assert np.isfinite(res.value) and np.all(np.isfinite(res.direction))


def test_batch_results_do_not_depend_on_chunking(monkeypatch):
    whole = minimize_on_sphere_batch(_fields(), N, 4, CFG)
    m = CFG.restarts
    monkeypatch.setattr(_util, "CHUNK_FLOATS", 3 * m * N)  # chunks of 3 and 1
    chunked = minimize_on_sphere_batch(_fields(), N, 4, CFG)
    for res, one in zip(chunked, whole):
        _assert_same(res, one)


def test_batch_call_never_exceeds_row_cap(monkeypatch):
    monkeypatch.setattr(_util, "CHUNK_FLOATS", 2 * CFG.restarts * N)
    seen = []
    minimize_on_sphere_batch(_fields(seen), N, 4, CFG)
    assert max(seen) == _util.CHUNK_FLOATS


def test_polish_counts_unconverged_solves(monkeypatch):
    res = minimize_on_sphere(_field(0), N, CFG)
    assert res.polish_unconverged == 0
    real = optimize._scipy_minimize
    solves = []

    def capped(*args, **kwargs):
        out = real(*args, **kwargs)
        out.status = 9  # SLSQP: iteration limit reached
        solves.append(out)
        return out

    monkeypatch.setattr(optimize, "_scipy_minimize", capped)
    res = minimize_on_sphere(_field(0), N, CFG)
    assert len(solves) > 1
    assert res.polish_unconverged == len(solves)
    monkeypatch.setattr(optimize, "POLISH_STARTS", 0)  # the descent alone
    assert minimize_on_sphere(_field(0), N, CFG).polish_unconverged == 0


def test_descent_reports_its_iterations_and_one_pass_per_iteration(monkeypatch):
    # each iteration evaluates the field and its subgradient once, at the m
    # candidate rows, as does the start; a smooth piece adds its 2 n
    # difference rows per row, and the value at the result is one row more
    monkeypatch.setattr(optimize, "POLISH_STARTS", 0)  # the descent alone
    m, seen = CFG.restarts, []
    res = minimize_on_sphere(select_pieces(_fields(seen), 1), N, CFG)
    assert res.stage == "descent" and 0 < res.descent_iters < CFG.iters  # stopped early
    assert res.nfev == (res.descent_iters + 1) * m * (1 + 2 * N) + 1 == sum(seen)
    # the facet stage's rows add to the descent's
    res = minimize_on_sphere(SUM5, 5, CFG)
    bound = optimize._minkowski_facets(SUM5, 5)
    assert res.stage == "descent" and res.method == "Minkowski facets"
    assert res.nfev == bound.nfev + (res.descent_iters + 1) * m + 1


def _record_results(monkeypatch):
    """The SphereOptResults of every batch the estimators run."""
    results = []

    def recording(*args, **kwargs):
        out = minimize_on_sphere_batch(*args, **kwargs)
        results.extend(out)
        return out

    monkeypatch.setattr(estimators, "minimize_on_sphere_batch", recording)
    return results


def _count_polish_solves(monkeypatch):
    solves = []
    solve = optimize._Epigraph.solve

    def counting(self, u0):
        solves.append(u0)
        return solve(self, u0)

    monkeypatch.setattr(optimize._Epigraph, "solve", counting)
    return solves


def test_sums_of_two_norms_are_cauchy_schwarz_fields():
    flat = product_body(ball(3, 1.0), ball(1, 0.0))  # support: one l2 piece
    cylinder = product_body(ball(2, 1.0), ball(2, 0.5))  # support: a sum of two l2 parts
    assert optimize._cs_sum(cylinder.support_pieces)
    assert optimize._cs_sum(sum_pieces((flat.support_pieces, flat.support_pieces)))
    assert not optimize._cs_sum(flat.support_pieces)
    assert not optimize._cs_sum(product_body(ball(2, 1.0), cube(1, 1.0)).support_pieces)
    assert not optimize._cs_sum(neighborhood(cylinder, 0.1).support_pieces)  # a part is a sum
    assert not optimize._cs_sum((Piece("sum", parts=tuple((p,) for p in _hexagon())),))


def test_euclidean_fields_are_exact_or_polish_every_start(monkeypatch):
    solves = _count_polish_solves(monkeypatch)
    counts = []
    distinct_best = optimize._distinct_best

    def recording(U, vals, count):
        counts.append(count)
        return distinct_best(U, vals, count)

    monkeypatch.setattr(optimize, "_distinct_best", recording)
    cfg = OptimizerConfig(restarts=16, iters=60, seed=0)
    # a cylinder field is a max of Euclidean norms, which the S-lemma dual
    # answers without a solve; one it does not certify polishes from every
    # distinct endpoint, as any other field
    K = truncated_cylinder(ball(4, 0.5), 8, truncation_radius=1e6)
    L = product_body(ball(1, 1e6), ball(7, 0.5))
    res = diameter_of_intersection(K, L, haar_rotation(8, seed=3), cfg)
    assert not solves and res.note == "exact (S-lemma dual)"
    assert minimize_on_sphere(_hexagon(), 2, cfg).stage != "exact"
    assert counts == [optimize.POLISH_STARTS] and len(solves) > 1
    # the flat-disk inclusion field is a sum of two Euclidean norms, which
    # the Cauchy-Schwarz stage answers without a solve
    solves.clear()
    flat = product_body(ball(5, 1.0), ball(1, 0.0))
    res = inclusion_radius(flat, flat, haar_rotation(6, seed=4), cfg)
    assert not solves and res.note == "exact (Cauchy-Schwarz)"


def test_polyhedral_fields_keep_every_polish_start(monkeypatch):
    solves = _count_polish_solves(monkeypatch)
    results = _record_results(monkeypatch)
    # a sum of an l2 part and an l1 part that the facet stage only bounds,
    # past the hull stage's HULL_ROWS: the field still goes to the polish
    res = inclusion_radius(E5, cube(5, 1.0), haar_rotation(5, seed=3))
    assert res.note == "two-sided via Minkowski facets"
    assert len(solves) == optimize.POLISH_STARTS
    # and its descent runs to the iteration cap, which the result says
    assert [r.descent_iters for r in results] == [optimize.DEFAULT_OPT.iters]
    # the facet stage answers a less elongated sum without a solve, and the
    # piece floor or the hull stage's cutting planes the larger of the two
    # supports
    solves.clear()
    res = inclusion_radius(ellipsoid([1.0, 1.4, 0.8]), cube(3, 0.9), haar_rotation(3, seed=7))
    assert not solves and res.note == "exact (Minkowski facets)"
    for seed, method in ((7, "piece floor"), (5, "cutting planes")):
        res = inclusion_radius(ellipsoid([1.0, 1.4, 0.8]), cube(3, 0.9),
                               haar_rotation(3, seed=seed), combine="max")
        assert not solves and res.note == f"exact ({method})"
    # facet rows in +- pairs next to an l2 piece are rank-1 norms, and the
    # S-lemma dual answers the field without a solve
    solves.clear()
    res = diameter_of_intersection(ellipsoid([1.0, 1.4, 0.8]), cube(3, 0.9),
                                   haar_rotation(3, seed=7))
    assert not solves and res.note == "exact (S-lemma dual)"
    # a purely polyhedral field is answered by its convex hull, without a
    # solve, at the value recorded when it was polished from 16 starts
    solves.clear()
    res = diameter_of_intersection(cube(3, 1.0), cross_polytope(3, 1.5), haar_rotation(3, seed=7))
    assert not solves and res.note == "exact (convex hull)"
    assert results[-1].stage == "exact" and results[-1].descent_iters == 0
    recorded = float.fromhex("0x1.2e176daf5c485p+1")
    assert res.diameter == pytest.approx(recorded, rel=1e-14, abs=0)
    assert res.diameter >= recorded * (1.0 - 4 * np.finfo(float).eps)


def test_hexagon_field_descends_and_carries_the_dual_bound(monkeypatch):
    # phi is 1/4 at the middle of every edge of the simplex and 1/2 at its
    # centre, while the squared field's minimum is 3/4: a gap
    res = minimize_on_sphere(_hexagon(), 2, CFG)
    monkeypatch.setattr(optimize, "_s_lemma", lambda pieces, n: None)
    alone = minimize_on_sphere(_hexagon(), 2, CFG)
    assert res.stage in ("descent", "polish") and res.stage == alone.stage
    assert res.value == alone.value and np.array_equal(res.direction, alone.direction)
    assert res.nfev > alone.nfev and alone.lower is None
    assert 0.0 < res.lower <= np.sqrt(3.0) / 2.0
    assert res.lower == pytest.approx(0.5, rel=1e-12)


def test_mixed_fields_never_reach_the_s_lemma(monkeypatch):
    # every field but the Cauchy-Schwarz stage's reaches the S-lemma stage,
    # which declines the ones with other pieces
    declined, seen = [], []
    s_lemma, cauchy_schwarz = optimize._s_lemma, optimize._cauchy_schwarz

    def wrapped(pieces, n):
        res = s_lemma(pieces, n)
        declined.append(res is None)
        return res

    def recording(pieces, n, count):
        seen.append(pieces)
        return cauchy_schwarz(pieces, n, count)

    monkeypatch.setattr(optimize, "_s_lemma", wrapped)
    monkeypatch.setattr(optimize, "_cauchy_schwarz", recording)
    E = ellipsoid([1.0, 1.4, 0.8])
    assert minimize_on_sphere(E.gauge_pieces + (ZERO,), 3, CFG).lower is None
    # facets beside a norm go past the S-lemma stage when they are an l1
    # piece or rows that do not come in +- pairs: to the piece floor, which
    # answers the aligned cube's field at its facet normal on E's longest
    # axis, or to the hull stage
    simplex = vertex_polytope([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 1.0],
                                [-1.0, -1.0, -1.0]])
    rotated = map_pieces(cube(3, 0.7).support_pieces, haar_rotation(3, seed=0))
    for pieces, method in ((E.gauge_pieces + cube(3, 0.9).support_pieces, "piece floor"),
                           (E.gauge_pieces + rotated, "cutting planes"),
                           (E.gauge_pieces + simplex.gauge_pieces, "cutting planes")):
        assert optimize._norms(pieces) is None
        assert minimize_on_sphere(pieces, 3, CFG).method == method
    # a sum of two Euclidean norms goes to the Cauchy-Schwarz stage instead
    cylinder = product_body(ball(2, 1.0), ball(1, 0.5)).support_pieces
    res = minimize_on_sphere(cylinder, 3, CFG)
    assert seen == [cylinder] and res.stage == "exact" and res.lower == res.value
    # and sums with other parts, or more than two, go to neither stage: the
    # facet stage or the hull stage's cutting planes answer or bound them
    mixed = {"Minkowski facets": (sum_pieces((E.support_pieces, cube(3, 0.9).support_pieces)),
                                  SUM5),
             "cutting planes": (polar(product_body(ball(2, 0.7), cube(1, 0.5))).gauge_pieces,
                                (Piece("sum", parts=tuple((p,) for p in _hexagon())),))}
    assert [p.kind for p in mixed["cutting planes"][0][0].parts[1]] == ["l1"]
    for method, fields in mixed.items():
        for pieces in fields:
            n = pieces[0].parts[0][0].matrix.shape[0]
            assert minimize_on_sphere(pieces, n, CFG).method == method
    assert len(seen) == 1 and declined == [True] * 8


def _result(stage, lower, method, nfev, value=1.0):
    return optimize.SphereOptResult(value=value, direction=np.array([0.6, 0.8]), nfev=nfev,
                                    stage=stage, lower=lower, method=method)


def test_join_takes_the_first_exact_result_else_the_larger_bound():
    join = optimize._join
    dual = _result("bound", 0.5, "S-lemma dual", 10)
    hull = _result("bound", 0.7, "cutting planes", 20, value=0.9)
    exact = _result("exact", 0.8, "convex hull", 5, value=0.8)
    descent = _result("descent", None, None, 100, value=0.85)
    # None on either side is no result
    assert join(None, None) is None and join(dual, None) is dual and join(None, dual) is dual
    # the first exact result wins whichever side it is on, and nfev adds up
    for a, b in ((exact, dual), (dual, exact), (exact, _result("exact", 0.9, "other", 1))):
        res = join(a, b)
        assert (res.stage, res.value, res.lower, res.method) == ("exact", 0.8, 0.8, "convex hull")
        assert res.nfev == a.nfev + b.nfev
    # otherwise the later result, with the larger bound and its method
    res = join(dual, hull)
    assert (res.stage, res.value, res.lower, res.method, res.nfev) == (
        "bound", 0.9, 0.7, "cutting planes", 30)
    res = join(hull, dual)
    assert (res.value, res.lower, res.method, res.nfev) == (1.0, 0.7, "cutting planes", 30)
    # a tie keeps the earlier stage's method
    assert join(dual, _result("bound", 0.5, "cutting planes", 20)).method == "S-lemma dual"
    # a descended result keeps its value and stage, and takes the bound
    res = join(dual, descent)
    assert (res.stage, res.value, res.lower, res.method, res.nfev) == (
        "descent", 0.85, 0.5, "S-lemma dual", 110)
    assert res.direction is descent.direction
    # the inputs are left as they were
    assert (dual.nfev, descent.lower, descent.method, descent.nfev) == (10, None, None, 100)


def test_each_stage_declines_the_fields_it_does_not_take():
    E = ellipsoid([1.0, 1.4, 0.8])
    facets = cube(3, 1.0).gauge_pieces + cross_polytope(3, 1.2).gauge_pieces
    zonotope = sum_pieces((cube(3, 1.0).support_pieces, cross_polytope(3, 1.2).support_pieces))
    mixed_sum = sum_pieces((E.support_pieces, cube(3, 0.9).support_pieces))
    line = (Piece("linear", np.array([[1.0], [-2.0]])),)
    line3 = (Piece("linear", np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])),)
    stages = {  # a field the stage answers, and fields it declines
        "_zero_sphere": ((line, 1), [(E.gauge_pieces, 3), (facets, 3)]),
        "_s_lemma": ((E.gauge_pieces, 3), [(facets, 3), (zonotope, 3), (mixed_sum, 3),
                                           (E.gauge_pieces + (ZERO,), 3)]),
        "_minkowski_facets": ((zonotope, 3), [(E.gauge_pieces, 3), (facets, 3),
                                              (sum_pieces((E.support_pieces, line3)), 3)]),
        "_floor": ((E.gauge_pieces + cube(3, 0.9).support_pieces, 3),
                   [(E.gauge_pieces, 3), (zonotope, 3), (E.gauge_pieces + (ZERO,), 3),
                    (line3, 3)]),
        "_hull": ((facets, 3), [(E.gauge_pieces, 3), (_hexagon(), 2),
                                (E.gauge_pieces + (ZERO,), 3)]),
    }
    for name, ((pieces, n), declined) in stages.items():
        stage = getattr(optimize, name)
        assert stage(pieces, n).stage == "exact", name
        for pieces, n in declined:
            assert stage(pieces, n) is None, name


def test_zero_sphere_field_takes_the_better_point():
    def f(V):
        return np.abs(V[:, 0] - 0.7) + 0.4 * V[:, 0]

    res = minimize_on_sphere(f, 1, CFG)
    assert res.value == min(f(np.array([[1.0]]))[0], f(np.array([[-1.0]]))[0])
    assert res.direction.tolist() == [1.0]
    assert (res.stage, res.nfev, res.polish_nit) == ("exact", 2, 0)


def test_every_stage_names_itself_in_method():
    E = ellipsoid([1.0, 1.4, 0.8])
    exact = [
        ("piece floor", cube(3, 1.0).support_pieces + cross_polytope(3, 1.0).support_pieces, 3),
        ("convex hull", cube(3, 1.0).support_pieces
         + map_pieces(cross_polytope(3, 1.5).support_pieces, haar_rotation(3, seed=0)), 3),
        ("Minkowski facets", sum_pieces((cube(3, 1.0).support_pieces,
                                         cross_polytope(3, 1.0).support_pieces)), 3),
        ("Minkowski facets", sum_pieces((E.support_pieces, cube(3, 0.9).support_pieces)), 3),
        ("cutting planes", E.support_pieces
         + map_pieces(cube(3, 0.9).support_pieces, haar_rotation(3, seed=5)), 3),
        ("S-lemma dual", ellipsoid([1.0, 2.0, 0.5]).gauge_pieces, 3),
        ("Cauchy-Schwarz", product_body(ball(2, 1.0), ball(1, 0.5)).support_pieces, 3),
        ("both points of the 0-sphere",
         (Piece("smooth", value=lambda V: V[:, 0] ** 2 + V[:, 0]),), 1),
    ]
    for method, pieces, n in exact:
        res = minimize_on_sphere(pieces, n, CFG)
        assert (res.stage, res.method, res.lower) == ("exact", method, res.value)
    # fields a stage bounds but does not certify descend, and keep the
    # stage's method along with its lower bound: the hexagon's S-lemma gap,
    # two flat disks 1e-3 rad apart, whose Cauchy-Schwarz search gives up,
    # and the elongated sum, whose facet rounds stop at HULL_ROWS
    res = minimize_on_sphere(_hexagon(), 2, CFG)
    assert res.stage in ("descent", "polish") and res.method == "S-lemma dual"
    assert res.lower == pytest.approx(0.5, rel=1e-12)
    t = 1e-3
    U = np.eye(4)
    U[[0, 0, 3, 3], [0, 3, 0, 3]] = [np.cos(t), -np.sin(t), np.sin(t), np.cos(t)]
    disk = product_body(ball(3, 1.0), ball(1, 0.0)).support_pieces
    res = minimize_on_sphere(sum_pieces((disk, map_pieces(disk, U[None]))), 4, CFG)
    assert res.stage in ("descent", "polish") and res.method == "Cauchy-Schwarz"
    assert 0.0 < res.lower <= res.value
    res = minimize_on_sphere(SUM5, 5, CFG)
    assert res.stage in ("descent", "polish") and res.method == "Minkowski facets"
    assert 0.0 < res.lower <= res.value
    # a field no stage answers or bounds has neither
    res = minimize_on_sphere(lambda V: V[:, 0] ** 2 + V[:, 1], 3, CFG)
    assert res.stage in ("descent", "polish") and res.method is None and res.lower is None


def test_polyhedral_rows_expand_pieces():
    P = optimize._polyhedral_rows(cube(3, 2.0).support_pieces, 3)  # 2|u|_1
    assert sorted(map(tuple, P)) == sorted(
        (2.0 * a, 2.0 * b, 2.0 * c) for a in (1, -1) for b in (1, -1) for c in (1, -1))
    fields = (cube(4, 1.0).support_pieces + cross_polytope(4, 1.0).support_pieces,
              (Piece("sum", parts=(cube(4, 1.0).support_pieces,
                                   cross_polytope(4, 1.0).support_pieces)),))
    assert [len(optimize._polyhedral_rows(p, 4)) for p in fields] == [16 + 8, 16 * 8]
    assert optimize._polyhedral_rows(ellipsoid([1.0, 2.0]).gauge_pieces, 2) is None
    assert optimize._polyhedral_rows(cross_polytope(10, 1.0).gauge_pieces, 10) is None


def test_flat_polyhedral_rows_fall_back_to_the_optimizer():
    # slabs with normals in the e1-e2 plane leave the e3 axis free: their
    # gauge rows span only that plane, and no hull of them has the origin inside
    K = slab_body([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0])
    L = slab_body([[1.0, 1.0, 0.0]], [1.0])
    both = intersect(K, L)
    assert len(optimize._polyhedral_rows(both.gauge_pieces, 3)) == 6
    res = minimize_on_sphere(both.gauge_pieces, 3, CFG)
    assert res.stage != "exact" and res.value <= 1e-12
    d = diameter_of_intersection(K, L, np.eye(3), CFG)
    assert d.diameter == np.inf and d.note == "unbounded direction found"


def test_polish_nit_counts_slsqp_iterations(monkeypatch):
    K = truncated_cylinder(ball(2, 0.5), 4, truncation_radius=1e6)
    assert minimize_on_sphere(K.gauge_pieces, 4, CFG).stage == "exact"
    pieces = K.gauge_pieces + (ZERO,)  # the same field, past the exact stage
    res = minimize_on_sphere(pieces, 4, CFG)
    assert res.stage != "exact" and res.polish_nit > 0
    with monkeypatch.context() as m:
        m.setattr(optimize, "POLISH_STARTS", 0)  # the descent alone
        res = minimize_on_sphere(pieces, 4, CFG)
    assert (res.stage, res.polish_nit) == ("descent", 0)
    C = cube(4, 1.0)
    res = minimize_on_sphere(C.gauge_pieces, 4, CFG)
    assert (res.stage, res.polish_nit, res.polish_unconverged) == ("exact", 0, 0)
    assert res.value == pytest.approx(0.5, rel=1e-15)  # the corner direction
    assert res.nfev == len(optimize._polyhedral_rows(C.gauge_pieces, 4)) + 1


@pytest.mark.parametrize("K", [ball(3, 1.5), cube(3, 0.8), cross_polytope(3, 1.2),
                               ellipsoid([1.0, 2.0, 0.5]), neighborhood(cube(3, 0.8), 0.3)],
                         ids=lambda K: K.kind)
def test_nearest_points_equal_closed_form_projections(K):
    X = 1.5 * np.random.default_rng(18).normal(size=(40, 3))
    X[0] = 0.0
    assert not np.all(K.contains(X)) and np.any(K.contains(X))
    P, exact = nearest_points(K.support_pieces, X), K.project(X)
    # the distance is the program's value; the point moves with its
    # direction, which values resolve only to about sqrt(machine epsilon)
    np.testing.assert_allclose(np.linalg.norm(X - P, axis=1),
                               np.linalg.norm(X - exact, axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(P, exact, rtol=0, atol=1e-7)


def test_nearest_point_of_triangle_off_the_origin():
    T = vertex_polytope([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    P = nearest_points(T.support_pieces, np.zeros((1, 2)))
    np.testing.assert_allclose(P[0], [1.0, 0.0], rtol=0, atol=1e-7)
    assert np.linalg.norm(P[0]) == pytest.approx(1.0, abs=1e-12)
    assert T.distance([0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_nearest_points_raise_at_the_iteration_cap(monkeypatch):
    real = optimize._scipy_minimize

    def capped(*args, **kwargs):
        out = real(*args, **kwargs)
        out.status = 9  # SLSQP: iteration limit reached
        return out

    monkeypatch.setattr(optimize, "_scipy_minimize", capped)
    with pytest.raises(EvaluationError):
        nearest_points(cube(3, 0.8).support_pieces, np.ones((2, 3)))


def test_polyhedron_points_raise_and_never_return_a_silent_point(monkeypatch):
    # {x <= -1} and {x >= 1} share no point: nnls leaves a residual of
    # rounding size, which reads as an empty polyhedron
    with pytest.raises(EvaluationError, match="the polyhedron is empty"):
        optimize.polyhedron_points([[1.0], [-1.0]], [-1.0, -1.0], [[0.0]])
    square = (np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    with pytest.raises(EvaluationError):
        optimize.polyhedron_points(*square, [[np.nan, 3.0]])

    def capped(*args):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(optimize, "_nnls", capped)
    # the halfspace pass answers a member and an edge's row without nnls;
    # a corner's row needs it, and its failure raises
    P = optimize.polyhedron_points(*square, [[0.5, 0.0], [3.0, 0.5]])
    assert np.array_equal(P, [[0.5, 0.0], [1.0, 0.5]])
    with pytest.raises(EvaluationError, match="failed at row 1"):
        optimize.polyhedron_points(*square, [[0.5, 0.0], [3.0, 2.0]])
