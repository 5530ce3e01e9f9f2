"""Properties of the optimizer's hull stage on Euclidean norms beside
facets, drawn by hypothesis: the gauge of an ellipsoid E intersected with
a rotated cube U C, the larger of their supports, max(h_E, h_UC), and the
support of their Minkowski sum, h_E + h_UC, or of E + U B for a
cross-polytope B; and the round cap and stall of the facet stage's
cutting planes on such sums."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial._qhull import QhullError

import waistlab
from waistlab import optimize
from waistlab._util import seed_sequence, sphere_points
from waistlab.bodies import ball, cross_polytope, cube, ellipsoid
from waistlab.geometry import haar_rotation, haar_rotations_per_seed
from waistlab.optimize import OptimizerConfig, minimize_on_sphere, minimize_on_sphere_batch
from waistlab.pieces import Piece, map_pieces, max_of, select_pieces, sum_pieces

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


def _capped(pieces, n, stage="_hull"):
    """The cutting-plane stage's result (the hull stage's, or the facet
    stage's for stage "_minkowski_facets") and the optimizer's under a
    one-round cap."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "CUT_ROUNDS", 1)
        return getattr(optimize, stage)(pieces, n), minimize_on_sphere(pieces, n, CFG)


def _says_so(capped, res):
    """A field the capped rounds leave open is reported as bounded, and
    descends with the stage's inradius as its lower bound, or the piece
    floor's when that is larger."""
    assert capped.stage == "bound" and np.isfinite(capped.lower) and capped.lower <= capped.value
    assert res.stage in ("descent", "polish") and res.lower <= res.value
    if res.method == capped.method:
        assert res.lower == capped.lower
    else:
        assert res.method == "piece floor" and capped.lower < res.lower


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


def _count_hulls(monkeypatch):
    """The list that each later scipy.spatial.ConvexHull call appends its hull to."""
    hulls = []
    real = scipy.spatial.ConvexHull

    def counting(*args, **kwargs):
        hulls.append(real(*args, **kwargs))
        return hulls[-1]

    monkeypatch.setattr(scipy.spatial, "ConvexHull", counting)
    return hulls


def test_one_round_leaves_a_slow_field_open(monkeypatch):
    # certified by its third hull without the cap; the one-round cap stops
    # the rounds after the second
    U = haar_rotation(4, seed=1043)
    E, C = ellipsoid([1.0, 1.4, 0.8, 1.2]), cube(4, 1.0)
    pieces = E.support_pieces + map_pieces(C.support_pieces, U)
    hulls = _count_hulls(monkeypatch)
    assert optimize._hull(pieces, 4).stage == "exact" and len(hulls) > 2
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


def _spy_systems(m):
    """The list that each later optimize._facet_systems call appends its
    arguments to, one call per round of the facet stage."""
    systems, real = [], optimize._facet_systems
    m.setattr(optimize, "_facet_systems", lambda *args: systems.append(args) or real(*args))
    return systems


def test_one_round_leaves_a_facet_field_open(monkeypatch):
    # the support of an elongated E + U C in R^5, which the facet stage
    # takes over 4 rounds and the hull stage declines: capped at one round
    # past the first, in the stage and in the optimizer's call of it, it
    # descends with the facet stage's bound
    pieces = sum_pieces((ellipsoid([0.1, 3.0, 0.2, 2.5, 1.0]).support_pieces,
                         map_pieces(cube(5, 1.0).support_pieces, haar_rotation(5, seed=3))))
    assert optimize._hull(pieces, 5) is None
    systems = _spy_systems(monkeypatch)
    facets, res = _capped(pieces, 5, "_minkowski_facets")
    assert systems == [(5, 5, 5, False), (5, 5, 6, True)] * 2
    _says_so(facets, res)
    assert res.method == "Minkowski facets"


@settings(max_examples=10, deadline=None, derandomize=True)
@given(sum_fields(dims=(5, 5), kinds=("cube",)))
def test_the_round_cap_leaves_a_facet_field_open_and_says_so(field):
    # E + U C in R^5, which the facet stage takes and the hull stage declines
    n, pieces = field
    with pytest.MonkeyPatch.context() as m:
        systems = _spy_systems(m)
        facets, res = _capped(pieces, n, "_minkowski_facets")
    assert facets.method == "Minkowski facets"
    assert len(systems) <= 2 * 2  # two rounds at most, in the stage and in the optimizer
    if facets.stage == "exact":  # certified within one round
        assert res.stage == "exact" and res.value == facets.value
    else:
        _says_so(facets, res)


def test_a_stalled_gap_ends_the_rounds_early(monkeypatch):
    # the gap is not 16 times smaller over the last 4 n cuts, far from the
    # rounding and with rows to spare, so the field is left open before
    # CUT_ROUNDS.  The hull stage on the support of E + U B for a
    # cross-polytope B, after 4 rounds of n cuts:
    B = map_pieces(cross_polytope(3, 1.5).support_pieces, haar_rotation(3, seed=0))
    pieces = sum_pieces((ellipsoid([1.0, 1.4, 0.8]).support_pieces, B))
    hulls = _count_hulls(monkeypatch)
    res = optimize._hull(pieces, 3)
    assert res.stage == "bound" and len(hulls) == 5 < optimize.CUT_ROUNDS
    assert res.value - res.lower > 1e-3 and len(hulls[-1].points) < optimize.HULL_ROWS
    # the facet stage on the support of a ball plus a rotated cube, whose
    # tied nearest facets hold the gap, after 4 n rounds of one cut: its
    # rows are 2^3 cube rows times 2 per pair, one pair more each round
    C = map_pieces(cube(3, 0.8).support_pieces, haar_rotation(3, seed=0))
    pieces = sum_pieces((ball(3, 3.0).support_pieces, C))
    systems = _spy_systems(monkeypatch)
    res = optimize._minkowski_facets(pieces, 3)
    assert res.stage == "bound" and len(systems) == 13 < optimize.CUT_ROUNDS
    assert res.value - res.lower > 1e-3 and 16 * systems[-1][2] < optimize.HULL_ROWS


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


def _spy_descend(monkeypatch):
    """The field counts of every call of optimize._descend."""
    calls, real = [], optimize._descend

    def spy(pieces, idx, U0, cfg):
        calls.append(len(idx))
        return real(pieces, idx, U0, cfg)

    monkeypatch.setattr(optimize, "_descend", spy)
    return calls


def test_a_bracketed_field_keeps_its_stage_result(monkeypatch):
    # the hull-of-union fields max(h_E, h_UC) of trials 0 and 1 of the
    # R^4 ellipsoid x cube dual-products config at seed 4, which the piece
    # floor and the cutting planes leave open within 64 n eps of the value
    rotations = haar_rotations_per_seed(4, seed_sequence(4).spawn(2)[1].spawn(4))[:2]
    pieces = (ellipsoid([1.0, 1.4, 0.8, 1.2]).support_pieces
              + map_pieces(cube(4, 1.0).support_pieces, rotations))
    stages = [optimize._exact(select_pieces(pieces, t), 4) for t in range(2)]
    calls = _spy_descend(monkeypatch)
    results = minimize_on_sphere_batch(pieces, 4, 2, OptimizerConfig(restarts=8, iters=40))
    assert not calls
    for stage, res in zip(stages, results):
        assert stage.stage == "bound" and stage.method == "cutting planes"
        assert optimize._bracketed(stage, 4)
        assert res.stage == "bound" and res.descent_iters == 0
        assert (res.value, res.lower, res.method, res.nfev) == (
            stage.value, stage.lower, stage.method, stage.nfev)
        assert res.direction.tobytes() == stage.direction.tobytes()


def test_a_wide_bracket_still_descends(monkeypatch):
    # the E + U B field above whose rounds stall far from rounding
    B = map_pieces(cross_polytope(3, 1.5).support_pieces, haar_rotation(3, seed=0))
    pieces = sum_pieces((ellipsoid([1.0, 1.4, 0.8]).support_pieces, B))
    stage = optimize._exact(pieces, 3)
    assert stage.stage == "bound" and not optimize._bracketed(stage, 3)
    calls = _spy_descend(monkeypatch)
    res = minimize_on_sphere(pieces, 3, CFG)
    assert calls == [1] and res.descent_iters > 0
    assert res.lower == stage.lower and res.value <= stage.value


def test_the_hull_stage_survives_a_field_that_ends_incremental_qhull():
    # E + U B in R^5, B a cross-polytope: with one incremental ConvexHull
    # grown by add_points, Qhull ends the process on this field with exit
    # code 7 (its topology-error code), which no except clause can catch,
    # so the field runs in a process of its own; a hull rebuilt each round
    # leaves it open with a bound
    src = str(Path(waistlab.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from waistlab import optimize\n"
        "from waistlab.bodies import cross_polytope, ellipsoid\n"
        "from waistlab.geometry import haar_rotation\n"
        "from waistlab.pieces import map_pieces, sum_pieces\n"
        "E = ellipsoid([1.454896338418807, 1.6008424166789708, 1.3184633300081863,\n"
        "               0.8439914030128366, 0.7806414524747148])\n"
        "B = map_pieces(cross_polytope(5, 1.5).support_pieces, haar_rotation(5, seed=3339433450))\n"
        "res = optimize._hull(sum_pieces((E.support_pieces, B)), 5)\n"
        "print(res.stage, res.lower <= res.value)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.split() == ["bound", "True"]
