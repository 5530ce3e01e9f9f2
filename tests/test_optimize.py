import warnings

import numpy as np
import pytest

from waistlab import optimize
from waistlab.bodies import (Piece, ball, cross_polytope, cube, ellipsoid, intersect,
                             neighborhood, product_body, slab_body, truncated_cylinder,
                             vertex_polytope)
from waistlab.errors import EvaluationError
from waistlab.estimators import diameter_of_intersection, inclusion_radius
from waistlab.geometry import haar_rotation
from waistlab.optimize import (OptimizerConfig, minimize_on_sphere, minimize_on_sphere_batch,
                               nearest_points)

N = 4
CFG = OptimizerConfig(restarts=8, iters=200, seed=1)


def _fields():
    """Four fields on the sphere of R^4 whose descents stop at different
    iterations (165, 90, 136 and 71), the last one infinite on a cap."""
    rng = np.random.default_rng(5)
    fields = []
    for t in range(3):
        B = rng.standard_normal((N, N))
        A = B @ B.T + 3.0 * t * np.eye(N)
        fields.append(lambda V, A=A: ((V @ A) * V).sum(axis=1))
    a = rng.standard_normal(N)
    fields.append(lambda V: np.where(V[:, 0] > 0.5, np.inf, V @ a))
    return fields


def _batched(fields):
    def f(idx, V):
        return np.stack([fields[t](V[j]) for j, t in enumerate(idx)])

    return f


def _assert_same(res, solo):
    assert res.value == solo.value
    assert np.array_equal(res.direction, solo.direction)
    assert res.nfev == solo.nfev


@pytest.mark.parametrize("polish", [False, True])
def test_batch_equals_solo_bit_for_bit(polish):
    cfg = OptimizerConfig(restarts=CFG.restarts, iters=CFG.iters, seed=CFG.seed,
                          polish=polish)
    fields = _fields()
    with np.errstate(invalid="ignore"):
        solo = [minimize_on_sphere(f, N, cfg) for f in fields]
        batch = minimize_on_sphere_batch(_batched(fields), N, len(fields), cfg)
    assert len({r.nfev for r in solo}) == len(fields)  # stopped at different iterations
    for res, one in zip(batch, solo):
        _assert_same(res, one)


def test_infinite_difference_sides_warn_nothing():
    # rows next to the cap have central differences with an infinite side;
    # those components are zero, with no inf - inf and no NaN candidate
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = minimize_on_sphere(_fields()[-1], N, CFG)
    assert np.isfinite(res.value) and np.all(np.isfinite(res.direction))


def test_batch_results_do_not_depend_on_chunking(monkeypatch):
    fields = _fields()
    with np.errstate(invalid="ignore"):
        whole = minimize_on_sphere_batch(_batched(fields), N, len(fields), CFG)
        m = CFG.restarts
        monkeypatch.setattr(optimize, "BATCH_ROWS", 3 * m * N)  # chunks of 3 and 1
        chunked = minimize_on_sphere_batch(_batched(fields), N, len(fields), CFG)
    for res, one in zip(chunked, whole):
        _assert_same(res, one)


def test_batch_call_never_exceeds_row_cap(monkeypatch):
    monkeypatch.setattr(optimize, "BATCH_ROWS", 2 * CFG.restarts * N)
    seen = []
    fields = _fields()[:3]

    def f(idx, V):
        seen.append(V.shape[0] * V.shape[1])
        return _batched(fields)(idx, V)

    minimize_on_sphere_batch(f, N, len(fields), CFG)
    assert max(seen) <= optimize.BATCH_ROWS


def test_polish_counts_unconverged_solves(monkeypatch):
    fields = _fields()[:1]
    res = minimize_on_sphere(fields[0], N, CFG)
    assert res.polish_unconverged == 0
    real = optimize._scipy_minimize
    solves = []

    def capped(*args, **kwargs):
        out = real(*args, **kwargs)
        out.status = 9  # SLSQP: iteration limit reached
        solves.append(out)
        return out

    monkeypatch.setattr(optimize, "_scipy_minimize", capped)
    res = minimize_on_sphere(fields[0], N, CFG)
    assert len(solves) > 1
    assert res.polish_unconverged == len(solves)
    no_polish = OptimizerConfig(restarts=8, iters=200, seed=1, polish=False)
    assert minimize_on_sphere(fields[0], N, no_polish).polish_unconverged == 0


def _count_polish_solves(monkeypatch):
    solves = []
    solve = optimize._Epigraph.solve

    def counting(self, u0):
        solves.append(u0)
        return solve(self, u0)

    monkeypatch.setattr(optimize._Epigraph, "solve", counting)
    return solves


def test_l2_only_pieces():
    flat = product_body(ball(3, 1.0), ball(1, 0.0))
    assert optimize._l2_only(flat.support_pieces)
    assert optimize._l2_only(truncated_cylinder(ball(2, 0.5), 4).gauge_pieces)
    assert not optimize._l2_only(flat.gauge_pieces)  # the origin's gauge is smooth
    assert not optimize._l2_only(product_body(ball(2, 1.0), cube(1, 1.0)).support_pieces)
    assert not optimize._l2_only(cross_polytope(3, 1.0).gauge_pieces)


def test_l2_only_fields_polish_one_start(monkeypatch):
    solves = _count_polish_solves(monkeypatch)
    cfg = OptimizerConfig(restarts=16, iters=60, seed=0)
    K = truncated_cylinder(ball(4, 0.5), 8, truncation_radius=1e6)
    L = product_body(ball(1, 1e6), ball(7, 0.5))
    diameter_of_intersection(K, L, haar_rotation(8, seed=3), cfg)
    assert len(solves) == 1
    solves.clear()
    flat = product_body(ball(5, 1.0), ball(1, 0.0))
    inclusion_radius(flat, flat, haar_rotation(6, seed=4), cfg)
    assert len(solves) == 1


def test_polyhedral_fields_keep_every_polish_start(monkeypatch):
    solves = _count_polish_solves(monkeypatch)
    # a linear piece next to an l2 one: the field still goes to the polish
    res = diameter_of_intersection(ellipsoid([1.0, 1.4, 0.8]), cube(3, 0.9),
                                   haar_rotation(3, seed=7))
    assert res.note.startswith("lower bound")
    assert len(solves) == optimize.POLISH_STARTS
    # a purely polyhedral field is answered by its convex hull, without a
    # solve, at the value recorded when it was polished from 16 starts
    solves.clear()
    res = diameter_of_intersection(cube(3, 1.0), cross_polytope(3, 1.5), haar_rotation(3, seed=7))
    assert not solves and res.note == "exact (convex hull)"
    recorded = float.fromhex("0x1.2e176daf5c485p+1")
    assert res.diameter == pytest.approx(recorded, rel=1e-14, abs=0)
    assert res.diameter >= recorded * (1.0 - 4 * np.finfo(float).eps)


def test_zero_sphere_field_takes_the_better_point():
    def f(V):
        return np.abs(V[:, 0] - 0.7) + 0.4 * V[:, 0]

    res = minimize_on_sphere(f, 1, CFG)
    assert res.value == min(f(np.array([[1.0]]))[0], f(np.array([[-1.0]]))[0])
    assert res.direction.tolist() == [1.0]
    assert (res.stage, res.nfev, res.polish_nit) == ("exact", 2, 0)


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
    res = minimize_on_sphere(both.gauge, 3, CFG, pieces=both.gauge_pieces)
    assert res.stage != "exact" and res.value <= 1e-12
    d = diameter_of_intersection(K, L, np.eye(3), CFG)
    assert d.diameter == np.inf and d.note == "unbounded direction found"


def test_polish_nit_counts_slsqp_iterations():
    K = truncated_cylinder(ball(2, 0.5), 4, truncation_radius=1e6)
    res = minimize_on_sphere(K.gauge, 4, CFG, pieces=K.gauge_pieces)
    assert res.stage != "exact" and res.polish_nit > 0
    no_polish = OptimizerConfig(restarts=8, iters=200, seed=1, polish=False)
    res = minimize_on_sphere(K.gauge, 4, no_polish, pieces=K.gauge_pieces)
    assert (res.stage, res.polish_nit) == ("descent", 0)
    C = cube(4, 1.0)
    res = minimize_on_sphere(C.gauge, 4, CFG, pieces=C.gauge_pieces)
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
