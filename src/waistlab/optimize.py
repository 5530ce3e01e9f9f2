"""Multistart minimization of scalar fields over the unit sphere.

A field is a max of pieces (see bodies.Piece), and one piece tuple whose
matrices carry a leading field axis describes many fields at once (one
per random rotation of a harness).  The optimizer evaluates those pieces
itself in every stage.  It runs projected descent with central-difference
gradients from spread-out seed directions, for all fields in lockstep.
It then polishes the best distinct descent endpoints of each field with
one SLSQP solve each of the epigraph program of the field: min t subject
to piece(u) <= t for every piece and |u|^2 = 1, with exact constraints
and analytic Jacobians.  Values returned are always attained at an
explicit feasible direction, so for maximization problems the result is
a certified bound from the feasible side.

How many endpoints are polished depends on the pieces.  A field made
only of l2 pieces and sums of l2-only parts is polished from its best
endpoint alone.  Such fields reach the polish when they are sums, or
maxima that the S-lemma stage below does not certify.  On the 1500
flat-disk inclusion fields of the acceptance criterion 9, which are
sums, one solve gave the value of POLISH_STARTS solves to 4e-16
relative.  A field with any linear, l1 or smooth piece keeps
POLISH_STARTS starts, since facet fields are multimodal: cube against
cross-polytope at n = 3 loses up to 5.5e-3 from one start.  The rule is
measured, not proved.

The same program with |u|^2 <= 1 and the objective t - <x, u> is the dual
of the Euclidean distance to a convex body with support max(pieces):
dist(x, C) = max over |u| <= 1 of <x, u> - h_C(u) (Rockafellar, Convex
Analysis, 1970, section 16).  nearest_points solves it row by row.

Before any descent, an exact stage answers the fields it can.  On the
0-sphere (n = 1) it evaluates both points +1 and -1.

A field whose every piece is l2, max_i |u M_i|, is answered by the
S-lemma dual (see _s_lemma).  With Q_i = M_i M_i^T, the minimum over the
sphere of the squared field is at least lambda_min(sum_i lambda_i Q_i)
for every lambda in the simplex.  The stage maximizes that bound over
the simplex's vertices and edges, and recovers directions from the
eigenvectors of lambda_min there.  The field is exact when the best
direction's squared value is within 64 n eps |sum_i lambda_i Q_i|_2 of
the bound.  For two pieces and n >= 3 the bound has no gap, since the
joint range of two quadratic forms on that sphere is convex (Brickman,
Proc. AMS 12, 1961; Polik & Terlaky, SIAM Review 49, 2007).  The
cylinder, ball, ellipsoid and section fields of the harnesses are of
this kind.  A field that does not certify descends as any other, and
its result carries the square root of the bound, less the same
tolerance, as a certified lower bound on its minimum.

A polyhedral field, whose every piece is linear, an l1 piece of at most
HULL_ROWS sign rows, or a sum of such parts, is max_i <P_i, u> =
h_conv(P)(u) over the rows P it expands to.  When 0 is interior to
conv(P), its minimum over the sphere is the inradius of conv(P),
attained at the normal of the facet nearest the origin (Qhull: Barber,
Dobkin & Huhdanpaa, ACM TOMS 1996).
HULL_ROWS bounds the Qhull cost, which grows with the facet count: the
320-row Minkowski-sum field of a 5-cube and a rotated 5-cross-polytope
(about 4800 facets) takes about 33 ms, every other field of the
polytope-dual benchmark 4 ms or less.  The default optimizer spends more
than that on the same fields: the benchmark's n = 5 cube/cross jobs ran
faster with 512 rows than with 256, which sends that field to the
optimizer.  Fields with other pieces, more rows, rows of affine rank
below n, or the origin on or outside the hull go on to the descent.

Every stage reports the field's value at its direction evaluated alone,
since a row's value in a batched evaluation can differ in its last
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.optimize import minimize as _scipy_minimize

from ._util import rng_from, sphere_points
from .bodies import Piece, _max_of, select_pieces
from .errors import EvaluationError

__all__ = ["OptimizerConfig", "SphereOptResult", "minimize_on_sphere",
           "minimize_on_sphere_batch", "nearest_points", "spread_directions"]


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    iters: int = 120
    seed: int = 0
    step0: float = 0.3
    polish: bool = True


DEFAULT_OPT = OptimizerConfig()
FD_STEP = 1e-6            # central-difference step of the descent gradients
POLISH_STARTS = 16        # distinct descent endpoints polished, unless the field is l2-only
POLISH_SEPARATION = 1e-6  # endpoints closer than this count as one start
BATCH_ROWS = 1 << 16      # most rows one batched evaluation holds
SPREAD_POOL = 24          # random pool rows per spread direction
HULL_ROWS = 512           # most rows a polyhedral field expands to for the exact stage


@dataclass
class SphereOptResult:
    value: float
    direction: np.ndarray
    nfev: int
    polish_unconverged: int = 0  # epigraph solves SLSQP ended without success
    stage: str = "descent"       # "exact", "descent" or "polish": what produced the value
    polish_nit: int = 0          # SLSQP iterations over the field's epigraph solves
    lower: float | None = None   # certified lower bound on the minimum: the value when exact


def spread_directions(n: int, count: int, seed=0) -> np.ndarray:
    """Well-separated unit directions: +-axes first, then greedy
    farthest-point picks from a random pool of SPREAD_POOL rows per
    direction (at least 256)."""
    axes = np.vstack([np.eye(n), -np.eye(n)])
    if count <= len(axes):
        return axes[:count]
    rng = rng_from(seed)
    pool = sphere_points(rng, max(SPREAD_POOL * count, 256), n)
    chosen = list(axes)
    sims = np.max(np.abs(pool @ np.asarray(chosen).T), axis=1)
    for _ in range(count - len(axes)):
        i = int(np.argmin(sims))
        chosen.append(pool[i])
        sims = np.maximum(sims, np.abs(pool @ pool[i]))
    return np.asarray(chosen)


def _normalize_rows(V):
    nrm = np.linalg.norm(V, axis=1)
    nrm = np.where(nrm > 0, nrm, 1.0)
    return V / nrm[:, None]


def minimize_on_sphere(field, n: int, cfg: OptimizerConfig = DEFAULT_OPT,
                       extra_starts=None) -> SphereOptResult:
    """Minimize one field over the unit sphere of R^n.

    field is a tuple of Pieces whose max is the field (sums of maxima are
    "sum" pieces), or a callable mapping an (m, n) array of rows to an
    (m,) array, which becomes the one smooth piece and is evaluated at the
    rows normalized to unit length.  Deterministic for a fixed config
    seed.  This is the one-field case of minimize_on_sphere_batch, which
    documents the stages and nfev.
    """
    if callable(field):
        f = field
        field = (Piece("smooth", value=lambda V: f(_normalize_rows(V))),)
    return minimize_on_sphere_batch(field, n, 1, cfg, extra_starts)[0]


def minimize_on_sphere_batch(pieces, n: int, count: int, cfg: OptimizerConfig = DEFAULT_OPT,
                             extra_starts=None) -> list[SphereOptResult]:
    """Minimize count fields over the unit sphere of R^n in lockstep, one
    SphereOptResult per field.

    pieces describes every field at once: its matrices carry a leading
    field axis of length count (see bodies.Piece), and a matrix without
    one is shared by all fields.  Field t is the max of
    select_pieces(pieces, t), and a result's value is that max at its
    direction, with non-finite values read as inf.

    A field the exact stage answers (see the module docstring) is not
    descended; its nfev counts the rows its pieces expand to (the two
    points on the 0-sphere, the S-lemma stage's candidate directions) and
    the evaluation at its direction, and its lower is its value.  Every
    other field starts from the same spread directions (and extra_starts)
    and runs projected descent with central-difference gradients.  A
    field stops once all its step sizes fall below 1e-12 and is no longer
    evaluated, so it ends exactly as it would alone.  At most BATCH_ROWS
    rows go to one evaluation of the pieces; more fields run in
    consecutive chunks.  With cfg.polish, each field's epigraph program is
    solved from its POLISH_STARTS best distinct descent endpoints, or from
    its best one when all its pieces are l2 (see the module docstring),
    and a solution is kept only when the field, evaluated there, improves
    on the descent.  nfev counts every row at which the field, a piece or
    a piece gradient was evaluated; polish_unconverged counts the solves
    that SLSQP ended without success and polish_nit their SLSQP
    iterations.  stage names what produced the value: "exact", "descent",
    or "polish" when a polished point improved on the descent.  A max of
    l2 pieces that the S-lemma stage does not certify also counts that
    stage's candidates in nfev, and carries its bound in lower; every
    other descended field has lower None.
    """
    first = [_exact(select_pieces(pieces, t), n) for t in range(count)]
    results = [res if res is not None and res.stage == "exact" else None for res in first]
    left = np.array([t for t, res in enumerate(results) if res is None], dtype=int)
    if not left.size:
        return results
    starts = spread_directions(n, max(cfg.restarts, 2), cfg.seed)
    if extra_starts is not None and len(extra_starts):
        starts = np.vstack([np.atleast_2d(np.asarray(extra_starts, dtype=float)), starts])
    U0 = _normalize_rows(np.array(starts, dtype=float))
    per_call = max(1, BATCH_ROWS // (U0.shape[0] * n))
    for lo in range(0, left.size, per_call):
        idx = left[lo:lo + per_call]
        U, vals, nfev = _descend(pieces, idx, U0, cfg)
        for j, t in enumerate(idx):
            res = _finish(select_pieces(pieces, t), U[j], vals[j], int(nfev[j]), cfg)
            if first[t] is not None:  # a dual bound that did not certify
                res.lower, res.nfev = first[t].lower, res.nfev + first[t].nfev
            results[t] = res
    return results


def _exact(pieces, n):
    """The exact result of the field when the exact stage answers it (see
    the module docstring), else None.  A max of l2 pieces gets a result
    from the S-lemma stage whose stage is "bound" when the dual does not
    certify it: only its lower and its nfev carry over to the descent."""
    if n == 1:
        V = np.array([[1.0], [-1.0]])
        vals = _finite_values(pieces, V)
        i = int(np.argmin(vals))
        return SphereOptResult(value=float(vals[i]), direction=V[i], nfev=2, stage="exact",
                               lower=float(vals[i]))
    if _l2_max(pieces):
        return _s_lemma(pieces, n)
    P = _polyhedral_rows(pieces, n)
    if P is None or np.linalg.matrix_rank(P[1:] - P[0]) < n:
        return None
    from scipy.spatial import ConvexHull

    # facets a.x + c <= 0 with unit a: the origin is interior iff every c < 0,
    # and the facet nearest to it has the largest c
    equations = ConvexHull(P).equations
    if not np.all(equations[:, -1] < 0.0):
        return None
    u = equations[int(np.argmax(equations[:, -1])), :-1]
    value = float(_finite_values(pieces, u[None])[0])
    return SphereOptResult(value=value, direction=u, nfev=len(P) + 1, stage="exact",
                           lower=value)


def _l2_max(pieces):
    """Whether every piece is l2: the fields of the S-lemma stage."""
    return all(p.kind == "l2" for p in pieces)


def _s_lemma(pieces, n):
    """The S-lemma dual stage of the field max_i |u M_i|, Q_i = M_i M_i^T.

    For every lambda in the simplex, min over the sphere of the squared
    field is at least phi(lambda) = lambda_min(S), S = sum_i lambda_i Q_i,
    and phi is concave.  It is searched at the vertices of the simplex and
    on its edges.  On an edge (a, b), brentq finds the sign change of the
    slope |v M_b|^2 - |v M_a|^2 at the eigenvector v of lambda_min, with
    the edge parametrized by S ~ (1 - t) Q_a / |Q_a| + t Q_b / |Q_b| so
    that t resolves pieces of any scale.  An edge is skipped when Weyl's
    bound on phi along it, min(max(lambda_min(Q_a), lambda_max(Q_b)),
    max(lambda_max(Q_a), lambda_min(Q_b))), does not beat the best value
    so far.

    Every point searched whose phi is within tol of the best gives
    candidate directions: the first eigenvector of lambda_min; at a
    vertex a whose eigenspace is degenerate, the vector of that space with
    the least q_b = |u M_b|^2, for each other piece b; on an edge, the
    vectors on which q_a = q_b, between the two lowest eigenvectors (brentq
    resolves the edge only to rounding) and, when the eigenspace V is
    degenerate, between the extreme eigenvectors of V^T (Q_a - Q_b) V.
    With phi the best value and tol = 64 n eps |S|_2 there, which covers
    eigh's rounding, the field is exact when its least candidate value f
    has f^2 - phi <= tol.  A field that does not certify carries
    sqrt(max(phi - tol, 0)) as a certified lower bound on its minimum.
    Two pieces certify for n >= 3, since the joint range of two quadratic
    forms on that sphere is convex (Brickman, Proc. AMS 12, 1961); three
    or more can leave a gap.  None when a matrix is not finite.
    """
    M = [p.matrix for p in pieces]
    Q = np.stack([Mi @ Mi.T for Mi in M])
    if not np.all(np.isfinite(Q)):
        return None
    eps, k = np.finfo(float).eps, len(Q)
    w, V = np.linalg.eigh(Q)
    points = [(w[a], V[a], (a,)) for a in range(k)]  # eigenpairs of S, pieces of its face
    phi = w[:, 0].max()
    caps = sorted(((min(max(w[a, 0], w[b, -1]), max(w[a, -1], w[b, 0])), a, b)
                   for a in range(k) for b in range(a + 1, k)), reverse=True)
    for cap, a, b in caps:
        if cap <= phi:  # also every edge of a zero piece, so |Q_a|, |Q_b| > 0 below
            break
        Qa, Qb = Q[a] / w[a, -1], Q[b] / w[b, -1]

        def slope(t, Qa=Qa, Qb=Qb, Ma=M[a], Mb=M[b]):
            v = np.linalg.eigh((1.0 - t) * Qa + t * Qb)[1][:, 0]
            return np.sum((v @ Mb) ** 2) - np.sum((v @ Ma) ** 2)

        # phi is concave along the edge: a slope pointing out of it at an
        # end leaves that end's vertex as the edge's maximum
        if slope(0.0) <= 0.0 or slope(1.0) >= 0.0:
            continue
        t = brentq(slope, 0.0, 1.0, xtol=eps, rtol=4 * eps, disp=False)
        wS, VS = np.linalg.eigh((1.0 - t) * Qa + t * Qb)
        points.append((wS / ((1.0 - t) / w[a, -1] + t / w[b, -1]), VS, (a, b)))
        phi = max(phi, points[-1][0][0])
    tol = 64 * n * eps * max(points, key=lambda point: point[0][0])[0][-1]
    cands = []
    for wS, VS, face in points:
        if wS[0] < phi - tol:  # a bound below the best gives no minimizer
            continue
        E = VS[:, wS <= wS[0] + 64 * n * eps * wS[-1]]  # the eigenspace of lambda_min
        cands.append(E[:, 0])
        if len(face) == 1:
            if E.shape[1] > 1:
                cands += [E @ np.linalg.eigh(_gram(E, M[b]))[1][:, 0]
                          for b in range(k) if b != face[0]]
            continue
        # where the edge's pieces tie: between the extreme eigenvectors of
        # V^T (Q_a - Q_b) V on the eigenspace, and between the two lowest
        # eigenvectors, since brentq resolves the edge only to rounding
        bases = [VS[:, :2]]
        if E.shape[1] > 1:
            X = np.linalg.eigh(_gram(E, M[face[0]]) - _gram(E, M[face[1]]))[1]
            bases.append(E @ X[:, [0, -1]])
        for B in bases:
            cands += list(_ties(_gram(B, M[face[0]]) - _gram(B, M[face[1]])) @ B.T)
    # one row at a time, as every stage reports its value: a row's value in
    # a batch can differ in its last digits
    C = _normalize_rows(np.array(cands))
    vals = [float(_finite_values(pieces, u[None])[0]) for u in C]
    i = int(np.argmin(vals))
    u, value = C[i], vals[i]
    exact = value * value - phi <= tol
    return SphereOptResult(value=value, direction=u, nfev=len(C),
                           stage="exact" if exact else "bound",
                           lower=value if exact else math.sqrt(max(phi - tol, 0.0)))


def _gram(B, M):
    """B^T M M^T B: the quadratic form of the l2 piece of M on the columns of B."""
    Y = B.T @ M
    return Y @ Y.T


def _ties(W):
    """The unit 2-vectors x with x^T W x = 0 for a symmetric 2 x 2 W, or,
    when W is definite, its eigenvector of eigenvalue nearest 0."""
    a, b, d = W[0, 0], W[0, 1], W[1, 1]
    disc = b * b - a * d
    if disc < 0.0:
        mu, X = np.linalg.eigh(W)
        return X[:, [int(np.argmin(np.abs(mu)))]].T
    # the roots of a + 2 b r + d r^2 are r = a / q and q / d, without cancellation
    q = -(b + math.copysign(math.sqrt(disc), b))
    if q == 0.0:  # b = 0 and a d = 0: a basis vector ties
        return np.eye(2)[[0 if a == 0.0 else 1]]
    X = np.array([[q, a], [d, q]])
    return X / np.linalg.norm(X, axis=1)[:, None]


def _polyhedral_rows(pieces, n):
    """Rows P with max(pieces)(u) = max_i <P_i, u>, or None when a piece
    is l2 or smooth or the rows would exceed HULL_ROWS.  A linear piece
    gives its rows, an l1 piece its 2^k sign rows, and a sum the pairwise
    sums of its parts' rows."""
    blocks, total = [], 0
    for p in pieces:
        if p.kind == "linear":
            R = p.matrix
        elif p.kind == "l1":
            k = p.matrix.shape[1]
            if 2 ** k > HULL_ROWS:
                return None
            signs = 1.0 - 2.0 * ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1)
            R = signs @ p.matrix.T
        elif p.kind == "sum":
            R = np.zeros((1, n))
            for part in p.parts:
                Q = _polyhedral_rows(part, n)
                if Q is None or len(R) * len(Q) > HULL_ROWS:
                    return None
                R = (R[:, None, :] + Q[None, :, :]).reshape(-1, n)
        else:
            return None
        total += len(R)
        if total > HULL_ROWS:
            return None
        blocks.append(R)
    return np.vstack(blocks)


def _finite_values(pieces, V):
    vals = _max_of(pieces, V)
    return np.where(np.isfinite(vals), vals, np.inf)


def _descend(pieces, idx, U0, cfg):
    """Lockstep projected descent of the fields idx from the rows of U0.
    Returns their final rows (k, m, n), values (k, m) and row counts (k,)."""
    k, (m, n) = len(idx), U0.shape
    run = select_pieces(pieces, idx)  # the running fields; re-selected when one stops
    U = np.repeat(U0[None], k, axis=0)
    vals = _finite_values(run, U)
    U_out, vals_out = np.empty_like(U), np.empty_like(vals)
    iters = np.full(k, cfg.iters)
    live = np.arange(k)

    h = FD_STEP
    steps = np.full((k, m), cfg.step0)
    shifts = h * np.eye(n)
    for it in range(cfg.iters):
        a = len(live)
        # central-difference ambient gradient of f(v/|v|) at unit rows
        plus = _normalize_rows((U[:, :, None, :] + shifts).reshape(-1, n))
        minus = _normalize_rows((U[:, :, None, :] - shifts).reshape(-1, n))
        fp = _max_of(run, plus.reshape(a, m * n, n)).reshape(a, m, n)
        fm = _max_of(run, minus.reshape(a, m * n, n)).reshape(a, m, n)
        # a component with a non-finite side has no difference: it is zero
        sides = np.isfinite(fp) & np.isfinite(fm)
        grad = np.subtract(fp, fm, out=np.zeros_like(fp), where=sides) / (2.0 * h)
        grad -= (grad * U).sum(axis=2)[:, :, None] * U  # tangent component
        gn = np.linalg.norm(grad, axis=2)
        gn = np.where(gn > 0, gn, 1.0)
        cand = _normalize_rows((U - (steps / gn)[:, :, None] * grad).reshape(-1, n))
        cand = cand.reshape(a, m, n)
        cv = _finite_values(run, cand)
        better = cv < vals
        U = np.where(better[:, :, None], cand, U)
        vals = np.where(better, cv, vals)
        steps = np.where(better, steps * 1.2, steps * 0.5)
        done = steps.max(axis=1) < 1e-12
        if done.any():
            stop = live[done]
            U_out[stop], vals_out[stop], iters[stop] = U[done], vals[done], it + 1
            keep = ~done
            live, U, vals, steps = live[keep], U[keep], vals[keep], steps[keep]
            if not live.size:
                break
            run = select_pieces(pieces, idx[live])
    U_out[live], vals_out[live] = U, vals
    return U_out, vals_out, m + iters * (2 * m * n + m)


def _finish(pieces, U, vals, nfev, cfg):
    """Best descent row of the field, polished when cfg.polish asks for it."""
    # every row only ever improves, so the incumbent is the best current row
    i = int(np.argmin(vals))
    best_u, best_v = U[i].copy(), float(vals[i])
    stage, unconverged, nit = "descent", 0, 0
    if cfg.polish:
        program = _Epigraph(pieces, U.shape[1])
        starts = 1 if _l2_only(pieces) else POLISH_STARTS
        found = [program.solve(U[j]) for j in _distinct_best(U, vals, starts)]
        found = [u for u in found if u is not None]
        if found:
            cand = np.vstack(found)
            cv = _finite_values(pieces, cand)
            nfev += len(cand)
            j = int(np.argmin(cv))
            if cv[j] < best_v:
                best_u, best_v, stage = cand[j], float(cv[j]), "polish"
        nfev += program.rows
        unconverged, nit = program.unconverged, program.nit
    # the value is the field at the direction alone, as every stage reports it
    value = float(_finite_values(pieces, best_u[None])[0])
    return SphereOptResult(value=value, direction=best_u, nfev=nfev + 1,
                           polish_unconverged=unconverged, stage=stage, polish_nit=nit)


def _l2_only(pieces):
    """Whether every piece is l2, or a sum whose parts are all l2-only."""
    return all(p.kind == "l2" or (p.kind == "sum" and all(map(_l2_only, p.parts)))
               for p in pieces)


def _distinct_best(U, vals, count):
    """Indices of the count best finite rows, skipping any row within
    POLISH_SEPARATION of one already taken."""
    taken = []
    for i in np.argsort(vals, kind="stable"):
        if not np.isfinite(vals[i]) or len(taken) == count:
            break
        if all(np.linalg.norm(U[i] - U[j]) > POLISH_SEPARATION for j in taken):
            taken.append(int(i))
    return taken


def _aux_count(pieces):
    """Auxiliary variables of the epigraph: a block per l1 piece and a
    level per part of a sum piece."""
    count = 0
    for p in pieces:
        if p.kind == "l1":
            count += p.matrix.shape[1]
        elif p.kind == "sum":
            count += len(p.parts) + sum(_aux_count(part) for part in p.parts)
    return count


class _Epigraph:
    """The epigraph program of a max of pieces, for SLSQP.

    Variables z = (u, t, aux): u on the unit sphere or in the unit ball,
    the level t of the max, and auxiliary levels.  Every piece p under a
    level v adds p(u) <= z_v:
    - linear: rows z_v - P u >= 0;
    - l1: a block w >= |u M| with z_v >= sum(w), which keeps its 2^k sign
      patterns implicit;
    - sum: one level per part, with z_v >= the sum of the part levels;
    - l2: z_v - p(u) >= 0 with the piece's gradient, and the rows
      z_v >= |(u M)_j|, which hold since |y|_2 >= |y_j|, and keep SLSQP's
      linear model of the cone bounded at its apex u M = 0, where the
      gradient does not exist;
    - smooth: z_v - p(u) >= 0, differentiated by finite differences inside
      SLSQP.
    Linear, l1 and sum pieces are linear in z: rows C z >= 0.  rows counts
    the pieces evaluated or differentiated at a point, nit SLSQP's
    iterations over all solves, and unconverged the solves that SLSQP
    ended with a nonzero status (an iteration cap, a failed line search or
    incompatible constraints).
    """

    def __init__(self, pieces, n):
        self.n = n
        self.nz = n + 1 + _aux_count(pieces)
        self.rows = 0
        self.nit = 0
        self.unconverged = 0
        self.blocks = []     # row blocks of C
        self.levels = []     # (variable, pieces whose max it bounds)
        self.l1 = []         # (first auxiliary variable, M)
        self.l2, self.smooth = [], []  # (variable, piece)
        self._next = n + 1
        self._group(pieces, n)
        self.C = np.vstack(self.blocks) if self.blocks else None
        self.n_linear = sum(p.kind != "smooth" for _, group in self.levels for p in group)
        self.c = np.zeros(self.nz)
        self.c[n] = 1.0

    def _block(self, k, v=None):
        B = np.zeros((k, self.nz))
        if v is not None:
            B[:, v] = 1.0
        self.blocks.append(B)
        return B

    def _new(self, k):
        first = self._next
        self._next += k
        return first

    def _group(self, pieces, v):
        n = self.n
        self.levels.append((v, pieces))
        for p in pieces:
            if p.kind == "linear":
                self._block(p.matrix.shape[0], v)[:, :n] = -p.matrix
            elif p.kind == "l1":
                k = p.matrix.shape[1]
                w = self._new(k)
                self.l1.append((w, p.matrix))
                self._block(1, v)[0, w:w + k] = -1.0
                for sign in (-1.0, 1.0):
                    B = self._block(k)
                    B[:, :n] = sign * p.matrix.T
                    B[:, w:w + k] = np.eye(k)
            elif p.kind == "sum":
                s = self._new(len(p.parts))
                self._block(1, v)[0, s:s + len(p.parts)] = -1.0
                for j, part in enumerate(p.parts):
                    self._group(part, s + j)
            elif p.kind == "l2":
                Mt = p.matrix.T
                self._block(2 * len(Mt), v)[:, :n] = np.vstack([-Mt, Mt])
                self.l2.append((v, p))
            else:
                self.smooth.append((v, p))

    def _start(self, u0):
        """A feasible start: every level and l1 block at its value at u0."""
        u = u0[None, :]
        z = np.zeros(self.nz)
        z[:self.n] = u0
        for v, group in self.levels:
            z[v] = max(float(p.evaluate(u)[0]) for p in group)
            self.rows += len(group)
        for w, M in self.l1:
            z[w:w + M.shape[1]] = np.abs(u0 @ M)
        return z

    def _linear(self, z):
        self.rows += self.n_linear
        return self.C @ z

    def _values(self, z, items):
        u = z[None, :self.n]
        self.rows += len(items)
        return np.array([z[v] - float(p.evaluate(u)[0]) for v, p in items])

    def _jac(self, z):
        n = self.n
        u = z[None, :n]
        self.rows += len(self.l2)
        J = np.zeros((len(self.l2), self.nz))
        for r, (v, p) in enumerate(self.l2):
            J[r, :n] = -p.gradient(u)[0]
            J[r, v] = 1.0
        return J

    def minimize(self, z0, c, bound):
        """SLSQP's result for min <c, z> over the program from z0, with u on
        the unit sphere (bound "eq") or in the unit ball (bound "ineq")."""
        n = self.n
        sign = 1.0 if bound == "eq" else -1.0  # the ball is 1 - |u|^2 >= 0
        cons = [{"type": bound, "fun": lambda z: np.array([sign * (z[:n] @ z[:n] - 1.0)]),
                 "jac": lambda z: np.concatenate([2.0 * sign * z[:n],
                                                  np.zeros(self.nz - n)])[None, :]}]
        if self.blocks:
            cons.append({"type": "ineq", "fun": self._linear, "jac": lambda z: self.C})
        if self.l2:
            cons.append({"type": "ineq", "fun": lambda z: self._values(z, self.l2),
                         "jac": self._jac})
        if self.smooth:
            cons.append({"type": "ineq", "fun": lambda z: self._values(z, self.smooth)})
        res = _scipy_minimize(lambda z: c @ z, z0, jac=lambda z: c,
                              method="SLSQP", constraints=cons,
                              options={"maxiter": 300, "ftol": 1e-14})
        self.nit += int(res.nit)
        self.unconverged += int(res.status != 0)
        return res

    def solve(self, u0):
        """Unit direction of the SLSQP solution on the sphere from u0, or
        None when the start is infinite or the solution is not a finite
        nonzero vector."""
        z0 = self._start(u0)
        if not np.all(np.isfinite(z0)):
            return None
        u = self.minimize(z0, self.c, "eq").x[:self.n]
        nrm = np.linalg.norm(u)
        if not np.all(np.isfinite(u)) or nrm < 1e-9:
            return None
        return u / nrm


def nearest_points(pieces, X):
    """Nearest points to the rows of X (m, n) of the convex body whose
    support is the max of pieces, by the dual program
    dist(x, C) = max over |u| <= 1 of <x, u> - h_C(u).

    Each row's solution u is normalized to unit length, and
    d = <x, u> - h_C(u) is re-evaluated from the pieces: a lower bound on
    the distance for every unit u, and the distance at the optimum.  The
    row's point is x - max(d, 0) u, so a member comes back unchanged.
    Raises EvaluationError when SLSQP stops at its iteration cap or
    returns a non-finite iterate.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    program = _Epigraph(pieces, n)
    out = np.empty_like(X)
    for i, x in enumerate(X):
        nrm = np.linalg.norm(x)
        u0 = x / nrm if nrm > 0 else np.eye(n)[0]  # the origin need not be a member
        c = program.c.copy()
        c[:n] = -x
        res = program.minimize(program._start(u0), c, "ineq")
        if res.status == 9 or not np.all(np.isfinite(res.x)):
            raise EvaluationError(f"distance program failed at row {i}: {res.message}")
        u = _normalize_rows(res.x[None, :n])
        d = float(u[0] @ x) - max(float(p.evaluate(u)[0]) for p in pieces)
        out[i] = x - max(d, 0.0) * u[0]
    return out
