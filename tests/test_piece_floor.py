"""The optimizer's piece-floor stage: the least value of a max of pieces
is at least the largest least value of one piece, sigma_min of an l2 or
l1 matrix of rank n, and a field that attains that floor at one of the
candidate directions is answered without a hull."""

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waistlab import experiments, optimize
from waistlab.bodies import ball, cross_polytope, cube, ellipsoid, polar
from waistlab.estimators import diameter_of_intersection, inclusion_radius, section_diameter
from waistlab.geometry import Subspace, haar_rotation
from waistlab.optimize import OptimizerConfig, minimize_on_sphere
from waistlab.pieces import Piece, map_pieces, max_of

CFG = OptimizerConfig(restarts=16, iters=120, seed=0)
EPS = np.finfo(float).eps


def _descended(pieces, n):
    """The field's result with the exact stage switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "_exact", lambda pieces, n: None)
        return minimize_on_sphere(pieces, n, CFG)


@st.composite
def floor_fields(draw):
    """(n, pieces) for n = 2-5: two or three Haar-rotated support or gauge
    pieces of cubes, cross-polytopes and ellipsoids with sizes in
    [0.5, 2], so l1, linear and l2 pieces side by side."""
    n = draw(st.integers(2, 5))
    pieces = ()
    for _ in range(draw(st.integers(2, 3))):
        kind = draw(st.sampled_from(["cube", "cross", "ellipsoid"]))
        if kind == "ellipsoid":
            body = ellipsoid(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
        else:
            body = (cube if kind == "cube" else cross_polytope)(n, draw(st.floats(0.5, 2.0)))
        side = draw(st.sampled_from(["support_pieces", "gauge_pieces"]))
        U = haar_rotation(n, seed=draw(st.integers(0, 2**32 - 1)))
        pieces += map_pieces(getattr(body, side), U)
    return n, pieces


@settings(max_examples=60, deadline=None, derandomize=True)
@given(floor_fields())
def test_floor_values_are_attained_minima(field):
    n, pieces = field
    res = optimize._floor(pieces, n)
    assume(res is not None and res.stage == "exact")
    assert res.method == "piece floor" and res.lower == res.value
    assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=4 * EPS)
    assert res.value == max_of(pieces, res.direction[None])[0]
    # a minimum to rounding: the field at +-u can differ in its last digit
    assert res.value <= _descended(pieces, n).value * (1.0 + 4 * EPS)
    hull = optimize._hull(pieces, n)
    if hull is not None and hull.stage == "exact":
        assert abs(res.value - hull.value) <= 1e-15 * hull.value
    elif hull is not None:  # the cutting planes' bound and attained value bracket it
        assert hull.lower <= res.value <= hull.value * (1.0 + 1e-15)


@pytest.mark.parametrize("width", [0.8, 1.0])
def test_ball_and_cube_hull_of_union_fields_certify_at_the_radius(width):
    # criterion 10a's pair and the ball x cube dual-products config: the
    # ball's radius 1.2 is attained at the cube's facet normals, where the
    # cube's support is at most 1.2; the hull stage's cutting planes leave
    # these fields open
    K, L = ball(4, 1.2), cube(4, width)
    for s in range(8):
        U = haar_rotation(4, seed=1040 + s)
        res = inclusion_radius(K, L, U, combine="max")
        assert res.note == "exact (piece floor)" and res.lower_bracket == res.value
        assert abs(res.value - 1.2) <= 8 * EPS
        pd = diameter_of_intersection(polar(K), polar(L), U)  # the same field
        assert pd.note == "exact (piece floor)"
        assert pd.diameter * res.value == pytest.approx(2.0, rel=1e-14)


def test_rank_deficient_l1_matrices_never_certify_zero():
    rng = np.random.default_rng(3)
    norm = Piece("l2", 0.5 * np.eye(4))
    G = rng.standard_normal((4, 4))
    zero_column = Piece("l1", np.hstack([G, np.zeros((4, 1))]))  # rank 4, a zero column
    flat = Piece("l1", G[:, :2] @ rng.standard_normal((2, 5)))  # rank 2
    for pieces in ((zero_column,), (zero_column, norm), (flat, norm), (norm, flat)):
        res = optimize._floor(pieces, 4)
        assert res.value > 0.0 and res.lower > 0.0
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=4 * EPS)
        assert res.value == max_of(pieces, res.direction[None])[0]
    # with no piece of rank n there is no floor
    assert optimize._floor((flat,), 4) is None
    assert optimize._floor((flat, Piece("linear", G.T)), 4) is None
    # a 2-D section of a cross-polytope: the gauge's l1 matrix keeps the
    # plane's two columns, and the others are zero
    assert section_diameter(cross_polytope(4, 1.5), Subspace.canonical(4, 2, offset=2)) == 3.0


def test_an_open_hull_of_union_trial_still_reaches_the_hull_stage(monkeypatch):
    # the ellipsoid x cube trials of the dual-products harness: one of 24
    # stays open, where neither the floor nor the cutting planes certify
    K, L, n = ellipsoid([1.0, 1.4, 0.8, 1.2]), cube(4, 1.0), 4
    seen, real = {}, experiments.inclusion_radius

    def radius(K, L, U, *args, **kwargs):
        if kwargs.get("combine") == "max":
            seen["rotations"] = np.array(U)
        return real(K, L, U, *args, **kwargs)

    monkeypatch.setattr(experiments, "inclusion_radius", radius)
    opt = OptimizerConfig(restarts=8, iters=40, seed=0)
    experiments.run_two_bodies(
        K, L, n, 2, trials=24, seed=0, mode="dual", dual_products=True,
        section_K=Subspace.canonical(n, 1), section_L=Subspace.canonical(n, 2, offset=n - 2),
        opt=opt)
    imax = real(K, L, seen["rotations"], opt=opt, combine="max")
    open_trials = [t for t, im in enumerate(imax) if im.lower_bracket != im.value]
    assert len(open_trials) == 1
    U = seen["rotations"][open_trials[0]]
    pieces = K.support_pieces + map_pieces(L.support_pieces, U)
    floor, hull = optimize._floor(pieces, n), optimize._hull(pieces, n)
    assert floor.stage == hull.stage == "bound" and floor.lower < hull.lower
    assert imax[open_trials[0]].note == "two-sided via cutting planes"
    assert imax[open_trials[0]].lower_bracket == hull.lower


def test_the_floor_stage_runs_before_the_hull(monkeypatch):
    # a field the floor certifies builds no hull
    def refuse(*args, **kwargs):
        raise AssertionError("ConvexHull called")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)
    pieces = ball(4, 1.2).support_pieces + map_pieces(cube(4, 1.0).support_pieces,
                                                      haar_rotation(4, seed=1))
    res = minimize_on_sphere(pieces, 4, CFG)
    assert (res.stage, res.method) == ("exact", "piece floor")
    assert res.nfev == optimize._floor(pieces, 4).nfev
