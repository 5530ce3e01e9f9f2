"""Properties of the optimizer's hull stage on Euclidean norms beside
facets, drawn by hypothesis: the gauge of an ellipsoid E intersected with
a rotated cube U C, the larger of their supports, max(h_E, h_UC), and the
support of their Minkowski sum, h_E + h_UC, or of E + U B for a
cross-polytope B."""

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial._qhull import QhullError

from waistlab import optimize
from waistlab._util import sphere_points
from waistlab.bodies import cross_polytope, cube, ellipsoid
from waistlab.geometry import haar_rotation
from waistlab.optimize import OptimizerConfig, minimize_on_sphere
from waistlab.pieces import Piece, map_pieces, max_of, sum_pieces

CFG = OptimizerConfig(restarts=16, iters=120, seed=0)


def _descended(pieces, n):
    """The field's result with the exact stage switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "_exact", lambda pieces, n: None)
        return minimize_on_sphere(pieces, n, CFG)


@st.composite
def mixed_fields(draw, kinds=("gauge", "support")):
    """(n, pieces): for E with semiaxes in [0.5, 2] on R^n, n = 3-5, and a
    Haar rotation U, the gauge pieces of E and U C (an l2 piece and facet
    rows in +- pairs) or their support pieces (an l2 piece and an l1
    piece)."""
    n = draw(st.integers(3, 5))
    E = ellipsoid(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    U = haar_rotation(n, seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(kinds)) == "gauge":
        return n, E.gauge_pieces + map_pieces(cube(n, 1.0).gauge_pieces, U)
    return n, E.support_pieces + map_pieces(cube(n, 1.0).support_pieces, U)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mixed_fields())
def test_certified_values_never_lose_to_the_descent(field):
    n, pieces = field
    res = minimize_on_sphere(pieces, n, CFG)
    assert res.value == max_of(pieces, res.direction[None])[0]
    found = _descended(pieces, n).value
    if res.stage == "exact":
        assert res.method in ("S-lemma dual", "piece floor", "cutting planes")
        assert res.lower == res.value
        assert res.value <= found * (1.0 + 1e-14)
    else:  # a bound that did not certify still holds
        assert res.lower <= found * (1.0 + 1e-14)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(mixed_fields(kinds=("support",)))
def test_qhull_errors_fall_back_to_the_descent(field):
    # fields the piece floor leaves open, which reach the hull stage
    n, pieces = field
    floor = optimize._floor(pieces, n)
    assume(floor.stage == "bound")

    def fail(*args, **kwargs):
        raise QhullError("QH6271 qhull topology error (qh_check_dupridge)")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(scipy.spatial, "ConvexHull", fail)
        res = minimize_on_sphere(pieces, n, CFG)
    found = _descended(pieces, n)
    # the descent carries the floor's bound, the only one left
    assert res.stage in ("descent", "polish")
    assert (res.method, res.lower) == ("piece floor", floor.lower)
    assert res.value == found.value and np.array_equal(res.direction, found.direction)


def _capped(pieces, n):
    """The hull stage's result and the optimizer's under a one-round cap."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "CUT_ROUNDS", 1)
        return optimize._hull(pieces, n), minimize_on_sphere(pieces, n, CFG)


def _says_so(hull, res):
    """A field the capped rounds leave open is reported as bounded, and
    descends with the hull's inradius as its lower bound, or the piece
    floor's when that is larger."""
    assert hull.stage == "bound" and np.isfinite(hull.lower) and hull.lower <= hull.value
    assert res.stage in ("descent", "polish") and res.lower <= res.value
    if res.method == "cutting planes":
        assert res.lower == hull.lower
    else:
        assert res.method == "piece floor" and hull.lower < res.lower


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mixed_fields(kinds=("support",)))
def test_a_field_the_round_cap_leaves_open_says_so(field):
    # fields the piece floor leaves open, which reach the hull stage
    n, pieces = field
    assume(optimize._floor(pieces, n).stage == "bound")
    hull, res = _capped(pieces, n)
    if hull.stage == "exact":  # certified within one round
        assert res.stage == "exact" and res.value == hull.value
    else:
        _says_so(hull, res)


def test_one_round_leaves_a_slow_field_open():
    # certified after 10 rounds without the cap
    U = haar_rotation(4, seed=1043)
    E, C = ellipsoid([1.0, 1.4, 0.8, 1.2]), cube(4, 1.0)
    pieces = E.support_pieces + map_pieces(C.support_pieces, U)
    assert optimize._hull(pieces, 4).stage == "exact"
    _says_so(*_capped(pieces, 4))


@st.composite
def sum_fields(draw, dims=(2, 4), kinds=("cube", "cross")):
    """(n, pieces): for E with semiaxes in [0.5, 2] on R^n and a Haar
    rotation U, the support of E + U C for the cube C = [-1, 1]^n (a sum of
    an l2 part and an l1 part) or of E + U B for the cross-polytope B of
    radius 1.5 (a sum of an l2 part and a linear part)."""
    n = draw(st.integers(*dims))
    E = ellipsoid(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    U = haar_rotation(n, seed=draw(st.integers(0, 2**32 - 1)))
    L = cube(n, 1.0) if draw(st.sampled_from(kinds)) == "cube" else cross_polytope(n, 1.5)
    return n, sum_pieces((E.support_pieces, map_pieces(L.support_pieces, U)))


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_certified_sums_are_attained_and_never_lose(n, data):
    # the hull stage alone: the facet stage answers the cube sums first
    n, pieces = data.draw(sum_fields(dims=(n, n)))
    res = optimize._hull(pieces, n)
    assert res.value == max_of(pieces, res.direction[None])[0]
    assert res.method == "cutting planes" and res.lower <= res.value
    if res.stage == "exact":
        assert res.lower == res.value
        assert res.value <= _descended(pieces, n).value * (1.0 + 1e-14)
        V = sphere_points(np.random.default_rng(0), 20_000, n)
        assert res.value <= max_of(pieces, V).min() * (1.0 + 1e-12)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(sum_fields(dims=(5, 5), kinds=("cube",)))
def test_sums_past_the_row_cap_decline_before_qhull(field):
    # 20 seed support points of E times 32 cube rows pass HULL_ROWS before
    # any hull is built
    n, pieces = field

    def refuse(*args, **kwargs):
        raise AssertionError("ConvexHull called")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(scipy.spatial, "ConvexHull", refuse)
        assert optimize._hull(pieces, n) is None


def test_a_stalled_gap_ends_the_rounds_early(monkeypatch):
    # the support of E + U B for a cross-polytope B: the gap is not 16
    # times smaller after 4 rounds, far from the hull's rounding and with
    # rows to spare, so the field is left open before CUT_ROUNDS
    B = map_pieces(cross_polytope(3, 1.5).support_pieces, haar_rotation(3, seed=0))
    pieces = sum_pieces((ellipsoid([1.0, 1.4, 0.8]).support_pieces, B))
    hulls = []
    real = scipy.spatial.ConvexHull

    def counting(*args, **kwargs):
        hulls.append(real(*args, **kwargs))
        return hulls[-1]

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
    res = optimize._hull(pieces, 3)
    assert res.stage == "bound" and len(hulls) == 5 < optimize.CUT_ROUNDS
    assert res.value - res.lower > 1e-3 and len(hulls[-1].points) < optimize.HULL_ROWS


def test_seeds_keep_the_first_of_equal_rows():
    # columns along the axes (one with a signed zero) and a repeated new
    # direction: each seed once, in the order of its first occurrence, as
    # np.unique's first indices give them
    M = np.array([[1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 3.0],
                  [0.0, 0.0, 0.0, 1.0, 1.0, -0.0, 3.0],
                  [0.0, -3.0, 0.0, 0.0, 0.0, 4.0, 0.0]])
    E = ellipsoid([1.0, 1.4, 0.8])
    for pieces in (E.support_pieces + (Piece("l1", M),),
                   sum_pieces((E.support_pieces, (Piece("l1", M),)))):
        C = M.T / np.linalg.norm(M, axis=0)[:, None]
        S = np.vstack([np.eye(3), -np.eye(3), C, -C])
        first = S[np.sort(np.unique(S, axis=0, return_index=True)[1])]
        seeds = optimize._seeds(pieces, 3)
        assert seeds.tobytes() == first.tobytes() and len(seeds) < len(S)
