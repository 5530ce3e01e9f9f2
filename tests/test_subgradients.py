"""Subgradients of pieces (bodies.Piece.gradient) and of maxima of pieces
(bodies._max_and_gradient) on random linear, l1, l2 and sum pieces, drawn
by hypothesis: g = g(x) has <g, x> = f(x) and <g, y> <= f(y) for every y,
to rounding, at kinks too."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from waistlab.bodies import Piece, _max_and_gradient, _max_of, select_pieces

EPS = np.finfo(float).eps
SIMPLE = ("linear", "l1", "l2")


@st.composite
def fields(draw):
    """(F, pieces, X, Y): 1-3 pieces on R^n, n = 1-5, each linear (1-4
    rows), l1 or l2 (1-4 columns), or a sum of two parts of 1-2 such
    pieces, and 8 rows each of X and Y.  With F = None nothing is stacked;
    otherwise X and Y carry a leading field axis of length F, and each
    matrix carries it or is shared.  Entries are Gaussian, or integers in
    {-1, 0, 1}, which make ties between rows, zero coordinates of x M and
    x in a kernel common: the kinks."""
    n = draw(st.integers(1, 5))
    F = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())

    def entries(shape):
        if integer:
            return rng.integers(-1, 2, size=shape).astype(float)
        return rng.standard_normal(shape)

    def simple(kind):
        lead = (F,) if F is not None and draw(st.booleans()) else ()
        k = draw(st.integers(1, 4))
        return Piece(kind, entries(lead + ((k, n) if kind == "linear" else (n, k))))

    def piece(kind):
        if kind != "sum":
            return simple(kind)
        return Piece("sum", parts=tuple(
            tuple(simple(draw(st.sampled_from(SIMPLE))) for _ in range(draw(st.integers(1, 2))))
            for _ in range(2)))

    kinds = draw(st.lists(st.sampled_from(SIMPLE + ("sum",)), min_size=1, max_size=3))
    rows = (8, n) if F is None else (F, 8, n)
    return F, tuple(piece(kind) for kind in kinds), entries(rows), entries(rows)


def _leaves(pieces):
    for p in pieces:
        if p.kind == "sum":
            for part in p.parts:
                yield from _leaves(part)
        else:
            yield p


def _assert_subgradient(f, G, X, Y, bound):
    """<G_i, X_i> = f(X_i) and <G_i, y> <= f(y) for the rows y of X and Y,
    within 64 eps bound (|x| + |y|), bound >= every |g| and f(x) / |x|."""
    assert G.shape == X.shape
    Y = np.concatenate([X, Y], axis=-2)
    nx, ny = np.linalg.norm(X, axis=-1), np.linalg.norm(Y, axis=-1)
    rounding = 64 * EPS * bound
    assert np.all(np.abs((G * X).sum(axis=-1) - f(X)) <= rounding * nx)
    slack = rounding * (nx[..., :, None] + ny[..., None, :])
    assert np.all(G @ Y.swapaxes(-1, -2) <= f(Y)[..., None, :] + slack)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fields())
def test_piece_gradients_are_subgradients(field):
    F, pieces, X, Y = field
    # every |g| and f(x) / |x| is at most the sum of the absolute entries
    bound = 1.0 + sum(np.abs(p.matrix).sum() for p in _leaves(pieces))
    cases = [(pieces, X, Y)]
    if F is not None:
        cases += [(select_pieces(pieces, t), X[t], Y[t]) for t in range(F)]
    for field_pieces, Xs, Ys in cases:
        for p in field_pieces:
            _assert_subgradient(p.evaluate, p.gradient(Xs), Xs, Ys, bound)
        value, G = _max_and_gradient(field_pieces, Xs)
        assert np.array_equal(value, _max_of(field_pieces, Xs))
        _assert_subgradient(lambda V, fp=field_pieces: _max_of(fp, V), G, Xs, Ys, bound)


def test_ties_take_the_first_active_piece():
    x = np.array([[1.0, 1.0]])
    first, second = Piece("linear", np.array([[1.0, 0.0]])), Piece("l1", np.eye(2)[:, 1:])
    value, G = _max_and_gradient((first, second), x)
    assert value.tolist() == [1.0] and G.tolist() == [[1.0, 0.0]]
    value, G = _max_and_gradient((second, first), x)
    assert value.tolist() == [1.0] and G.tolist() == [[0.0, 1.0]]
    # a linear piece's tied rows: the first
    assert Piece("linear", np.array([[0.0, 1.0], [1.0, 0.0]])).gradient(x).tolist() == [[0.0, 1.0]]
