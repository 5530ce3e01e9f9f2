"""Pieces: gauges, supports and optimizer fields as maxima of simple functions.

A gauge or a support function is written once, as a max of Pieces: facet
rows, implicit l1 sign families, Euclidean norms of linear maps and sums of
such maxima.  A function with no such form (an LP, a membership bisection)
is one smooth piece, the function itself.  Bodies evaluate their gauge and
support from their pieces, and the optimizer's stages, descent and
epigraph solve read the same pieces and their subgradients.

Pieces compose: map_pieces composes them with a linear map (a stack of
maps gives one field per map), select_pieces picks fields out of such a
stack, and sum_pieces builds the canonical sum of maxima, which drops its
zero parts, so a flat disk's support is one Euclidean norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FD_STEP", "Piece", "is_zero", "leaves", "map_pieces", "max_and_gradient",
           "max_of", "select_pieces", "sum_pieces"]

FD_STEP = 1e-6            # central-difference step of a smooth piece's gradient


def max_of(pieces, X):
    """Max over the pieces at the rows of X; a lone piece's own values."""
    if len(pieces) == 1:
        return pieces[0].evaluate(X)
    return np.max([p.evaluate(X) for p in pieces], axis=0)


def max_and_gradient(pieces, X):
    """The max over the pieces at the rows of X, as max_of gives it, and a
    subgradient of the max there: the gradient of each row's active piece,
    the first of tied ones.  A sum piece's value and subgradient come from
    one pass over its parts."""
    vals, grads = [], []
    for p in pieces:
        if p.kind == "sum":
            parts = [max_and_gradient(part, X) for part in p.parts]
            vals.append(sum(v for v, _ in parts))
            grads.append(sum(g for _, g in parts))
        else:
            vals.append(p.evaluate(X))
            grads.append(p.gradient(X))
    if len(pieces) == 1:
        return vals[0], grads[0]
    V = np.array(vals)
    active = V.argmax(axis=0)[None, ..., None]
    return V.max(axis=0), np.take_along_axis(np.array(grads), active, axis=0)[0]


@dataclass(frozen=True, eq=False)
class Piece:
    """One piece of a gauge or support, which is the max of its pieces.

    kind "linear": x -> max_i <P_i, x> over the rows of matrix P (m, n).
    kind "l1": x -> |x M|_1 for matrix M (n, k): the max of <s, x M> over
      all 2^k sign patterns s, kept implicit instead of listed.
    kind "l2": x -> |x M|_2 for matrix M (n, k), smooth off the kernel of
      M^T: the gauges and supports of balls and ellipsoids.
    kind "sum": x -> the sum over parts of the max over the part's pieces;
      the support of a product or a Minkowski sum.
    kind "smooth": x -> scale * value(x A), where matrix A (n, n0) is the
      input map (None: the identity): the one piece of a function with no
      closed form, which has no analytic gradient.  value maps the rows of
      a 2-D array to their values.
    Every piece is positively homogeneous, as gauges and supports are.

    A matrix may carry a leading field axis, (F, m, n) for P and (F, n, k)
    for M and A: the piece then describes F functions at once, one per
    slice, and evaluates a stack X (F, rows, n), slice X[j] under
    function j.  A matrix without that axis is shared by every field.
    map_pieces with a stack of maps builds such pieces and select_pieces
    picks fields out of them.
    """

    kind: str
    matrix: np.ndarray | None = None
    value: object = None
    scale: float = 1.0
    parts: tuple = ()

    def evaluate(self, X):
        """Piece values at the rows of X, (..., rows, n) -> (..., rows)."""
        if self.kind == "linear":
            return (X @ self.matrix.swapaxes(-1, -2)).max(axis=-1)
        if self.kind == "l1":
            return np.abs(X @ self.matrix).sum(axis=-1)
        if self.kind == "l2":
            return np.linalg.norm(X @ self.matrix, axis=-1)
        if self.kind == "sum":
            return sum(max_of(part, X) for part in self.parts)
        Y = X if self.matrix is None else X @ self.matrix
        vals = np.asarray(self.value(Y.reshape(-1, Y.shape[-1])), dtype=float)
        return self.scale * vals.reshape(Y.shape[:-1])

    def gradient(self, X):
        """A subgradient at the rows of X, (..., rows, n) -> (..., rows, n):
        - linear: the active row, the first of tied ones;
        - l1: sign(x M) M^T;
        - l2: M M^T x^T / |x M|, and 0 where x M = 0;
        - sum: the sum of each part's max-subgradient (max_and_gradient);
        - smooth: central differences of the piece with step FD_STEP, a
          component with a non-finite side being 0.  Each row of X costs
          2 n evaluations, made in two calls: the forward shifts of every
          row, then the backward ones.
        For the first four, <g(x), x> is the piece's value at x."""
        if self.kind == "linear":
            P = self.matrix
            i = (X @ P.swapaxes(-1, -2)).argmax(axis=-1)
            return P[i] if P.ndim == 2 else np.take_along_axis(P, i[..., None], axis=-2)
        if self.kind == "l1":
            return np.sign(X @ self.matrix) @ self.matrix.swapaxes(-1, -2)
        if self.kind == "l2":
            M = self.matrix
            Y = X @ M
            nrm = np.linalg.norm(Y, axis=-1)
            return (Y @ M.swapaxes(-1, -2)) / np.where(nrm > 0, nrm, 1.0)[..., None]
        if self.kind == "sum":
            return max_and_gradient((self,), X)[1]
        n = X.shape[-1]
        shifts = FD_STEP * np.eye(n)
        fp, fm = (self.evaluate((X[..., None, :] + s).reshape(*X.shape[:-2], -1, n))
                  .reshape(X.shape) for s in (shifts, -shifts))
        sides = np.isfinite(fp) & np.isfinite(fm)
        return np.subtract(fp, fm, out=np.zeros_like(fp), where=sides) / (2.0 * FD_STEP)

    def mapped(self, A, scale=1.0):
        """The piece x -> scale * piece(x A), for A (n_new, n), or a stack
        (F, n_new, n) of maps, and scale > 0."""
        if self.kind == "linear":
            return Piece("linear", scale * (self.matrix @ A.swapaxes(-1, -2)))
        if self.kind in ("l1", "l2"):
            return Piece(self.kind, scale * (A @ self.matrix))
        if self.kind == "sum":
            return Piece("sum", parts=tuple(map_pieces(part, A, scale) for part in self.parts))
        inner = A if self.matrix is None else A @ self.matrix
        return Piece("smooth", inner, self.value, scale * self.scale)


def map_pieces(pieces, A, scale=1.0):
    """Compose every piece with x -> x A and multiply it by scale.  A stack
    of maps A (F, n_new, n) gives pieces with a leading field axis, field j
    composed with A[j]."""
    A = np.asarray(A, dtype=float)
    return tuple(p.mapped(A, scale) for p in pieces)


def select_pieces(pieces, idx):
    """The fields idx of pieces with a leading field axis: an index gives
    one field's pieces with 2-D matrices, an index array a smaller stack.
    Matrices without the axis are shared and come back as they are."""
    out = []
    for p in pieces:
        if p.kind == "sum":
            p = Piece("sum", parts=tuple(select_pieces(part, idx) for part in p.parts))
        elif p.matrix is not None and p.matrix.ndim == 3:
            p = Piece(p.kind, p.matrix[idx], p.value, p.scale)
        out.append(p)
    return tuple(out)


def leaves(pieces):
    """The pieces that are not sums, in order, with every sum replaced by
    the pieces of its parts, depth first."""
    for p in pieces:
        if p.kind == "sum":
            for part in p.parts:
                yield from leaves(part)
        else:
            yield p


def is_zero(p):
    """Whether a piece is identically zero: a linear, l1 or l2 piece with a
    zero matrix, or a sum of such pieces."""
    return all(q.kind != "smooth" and not q.matrix.any() for q in leaves((p,)))


def sum_pieces(parts):
    """The pieces of the sum over parts of the max over each part's pieces,
    made canonical.  A part whose pieces are all identically zero is
    dropped.  Within a part, zero pieces are dropped beside a nonzero l1
    or l2 piece, which is nonnegative; a linear piece can be negative, so
    beside one a zero piece is max(., 0) and stays.  A sum left with one
    part is that part's pieces (with none left, the first part's).  Parts
    keep their order and are never re-associated, and x + 0 and max(x, 0)
    for x >= 0 are exact, so every value keeps its bits."""
    kept = []
    for part in parts:
        zero = [is_zero(p) for p in part]
        if all(zero):
            continue
        if any(p.kind in ("l1", "l2") and not z for p, z in zip(part, zero)):
            part = tuple(p for p, z in zip(part, zero) if not z)
        kept.append(tuple(part))
    if len(kept) > 1:
        return (Piece("sum", parts=tuple(kept)),)
    return kept[0] if kept else tuple(parts[0])
