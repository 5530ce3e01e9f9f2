"""Properties of the optimizer's S-lemma stage on random maxima of
Euclidean norms max_i |u M_i|_2, drawn by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waistlab import optimize
from waistlab._util import sphere_points
from waistlab.geometry import haar_rotation
from waistlab.optimize import OptimizerConfig, minimize_on_sphere
from waistlab.pieces import Piece, max_of

CFG = OptimizerConfig(restarts=8, iters=60, seed=0)


@st.composite
def l2_fields(draw):
    """(n, pieces): 1-4 pieces of random rank on R^n, n = 2-8.  A piece's
    matrix is Gaussian, or orthonormal columns (a projection, with a
    degenerate spectrum), times a power of ten from 1e-3 to 1e3."""
    n = draw(st.integers(2, 8))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = []
    for _ in range(count):
        rank = draw(st.integers(1, n))
        M = rng.standard_normal((n, rank))
        if draw(st.booleans()):
            M = np.linalg.qr(M)[0]
        pieces.append(Piece("l2", 10.0 ** draw(st.integers(-3, 3)) * M))
    return n, tuple(pieces)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(l2_fields())
def test_s_lemma_results_are_attained_bracketed_and_exact_for_two_pieces(field):
    n, pieces = field
    res = minimize_on_sphere(pieces, n, CFG)
    assert res.value == max_of(pieces, res.direction[None])[0]
    assert res.value >= res.lower * (1.0 - 1e-12)
    if res.stage == "exact":
        V = sphere_points(np.random.default_rng(n), 20_000, n)
        assert res.value <= max_of(pieces, V).min() * (1.0 + 1e-12)
    if len(pieces) == 2 and n >= 3:
        # the joint range of two quadratic forms on the sphere of R^n, n >= 3,
        # is convex (Brickman, 1961): the dual has no gap
        assert res.stage == "exact"


@pytest.mark.parametrize("n, k, a, b", [(4, 2, 2.0, 1e-6), (5, 2, 1.0, 3.0), (8, 5, 0.7, 0.7)])
def test_pieces_on_complementary_subspaces_tie_exactly(n, k, a, b):
    # max(a |P u|, b |(I - P) u|) for a rotated coordinate projection P:
    # lambda_min is degenerate all along the edge, and only a mix of the
    # two pieces' eigenvectors ties them at the minimum a b / sqrt(a^2 + b^2)
    R = haar_rotation(n, seed=n)
    pieces = (Piece("l2", a * R[:, :k]), Piece("l2", b * R[:, k:]))
    res = minimize_on_sphere(pieces, n, CFG)
    assert res.stage == "exact"
    assert res.value == pytest.approx(a * b / np.hypot(a, b), rel=1e-14, abs=0)


@pytest.mark.parametrize("zero", [np.zeros((5, 3)), np.zeros((5, 1))])
def test_a_zero_piece_beside_norms_changes_nothing(zero):
    # max(|u M|, 0) = |u M|: the stage drops the zero piece
    R = haar_rotation(5, seed=3)
    norms = (Piece("l2", 2.0 * R[:, :2]), Piece("l2", 0.7 * R[:, 1:]))
    alone = minimize_on_sphere(norms, 5, CFG)
    for pieces in (norms + (Piece("l2", zero),), (Piece("l2", zero),) + norms):
        res = minimize_on_sphere(pieces, 5, CFG)
        assert (res.value, res.stage, res.lower, res.method, res.nfev) == (
            alone.value, alone.stage, alone.lower, alone.method, alone.nfev)
        assert np.array_equal(res.direction, alone.direction)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(l2_fields())
def test_s_lemma_capped_at_one_solve_per_edge_stays_attained_and_bracketed(field):
    # any point of an edge gives a valid bound, so a capped edge can only
    # leave a field open: a field is exact only when its value is the minimum
    n, pieces = field
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "NEWTON_SOLVES", 1)
        res = optimize._s_lemma(pieces, n)
    assert res.value == max_of(pieces, res.direction[None])[0]
    assert res.value >= res.lower * (1.0 - 1e-12)
    sampled = max_of(pieces, sphere_points(np.random.default_rng(n), 20_000, n)).min()
    assert res.lower <= sampled * (1.0 + 1e-12)
    if res.stage == "exact":
        assert res.value <= sampled * (1.0 + 1e-12)
