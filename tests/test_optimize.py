import warnings

import numpy as np
import pytest

from waistlab import optimize
from waistlab.bodies import (ball, cross_polytope, cube, ellipsoid, neighborhood, product_body,
                             truncated_cylinder, vertex_polytope)
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
    res = diameter_of_intersection(cube(3, 1.0), cross_polytope(3, 1.5), haar_rotation(3, seed=7))
    assert len(solves) == optimize.POLISH_STARTS
    # recorded when every field polished from 16 starts: facet fields keep them
    assert res.diameter == float.fromhex("0x1.2e176daf5c485p+1")


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
