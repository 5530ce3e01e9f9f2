"""Multistart minimization of scalar fields over the unit sphere, behind
exact stages that certify the fields they can.

A field is a max of pieces (see pieces.Piece), and one piece tuple whose
matrices carry a leading field axis describes many fields at once, one
per random rotation of a harness.  Which fields descend: a field that no
exact stage certifies is descended from spread starts and polished (see
minimize_on_sphere_batch), unless the stage bracketed it within 64 n eps
of its value; then the stage's result is the field's.
nearest_points solves the dual distance form of the polish's program for
a body given by its support pieces; polyhedron_points projects onto a
polyhedron {y : A y <= b} by least-distance programming.

The exact stages.  When a call's fields are sums of two Euclidean norms
(_cs_sum), _cauchy_schwarz takes them all at once, in lockstep.  Every
other field goes through the per-field stages of _exact in the order
_zero_sphere, _s_lemma, _minkowski_facets, _floor, _hull, up to the
first exact result.  Each stage takes (pieces, n) and returns an exact
result, a bound, or None for a field it does not take; its docstring
says which fields it takes and when it certifies one.

The join.  One rule, _join, joins a field's results, the stages' in
order and then the descent's: the first exact result wins; otherwise
the larger lower bound wins, with the method of the stage that gave it,
the earlier one on a tie; nfev adds up over every stage that ran.  So a
descended field carries the best bound of its stages and that stage's
method, or lower and method None when no stage bounded it.

The answer.  One rule, _least, values every answer: the first least of
a stage's or the polish's candidates, each valued alone, since a row's
value in a batched evaluation can differ in its last digits.  The
polish's candidates are the descent's best row, then the polished
points; Cauchy-Schwarz values its rows alone as it offers them.

A result (SphereOptResult) means:
- value: the field at direction, a unit vector, valued alone by that
  rule; non-finite values read as inf.  It is attained, so it bounds the
  minimum from above, and a maximum from the feasible side.
- lower: a certified lower bound on the minimum; the value itself when
  exact, None when no stage bounded the field.
- nfev: every row at which the field, a piece or a piece gradient was
  evaluated, each valued row once.  An exact stage counts the rows its
  pieces expand to (the two points of the 0-sphere, the S-lemma,
  Cauchy-Schwarz, facet and floor stages' candidate directions, the
  hull's rows at its seeds, and the support points of every cutting-plane
  round) and one row per cutting-plane round, at its nearest normal, the
  facet stage's zero-round case included.  The polish adds its starting
  rows and the descent's best row.
- stage: "exact" when a stage certified the value within its rounding
  of lower; "bound" for a stage that only bounded the field, a result
  that reaches the caller as it is only for a bracketed field, and
  otherwise joined into the descent's; "descent" or "polish" for what
  produced a descended field's value.
- descent_iters: the descent's iterations; 0 for an exact or bracketed
  field.
- method: the stage that answered or bounded the field: "both points of
  the 0-sphere", "S-lemma dual", "Cauchy-Schwarz", "Minkowski facets",
  "piece floor", "convex hull", or "cutting planes" for a hull stage
  with l2 pieces; None when no stage did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._util import chunk_rows, row_norms, sphere_points
from .errors import EvaluationError
from .pieces import Piece, leaves, max_and_gradient, max_of, select_pieces

__all__ = ["OptimizerConfig", "SphereOptResult", "minimize_on_sphere",
           "minimize_on_sphere_batch", "nearest_points", "polyhedron_points",
           "spread_directions"]


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    iters: int = 120
    seed: int = 0


DEFAULT_OPT = OptimizerConfig()
STEP0 = 0.3               # first descent step of every start
POLISH_STARTS = 16        # distinct descent endpoints polished
POLISH_SEPARATION = 1e-6  # endpoints closer than this count as one start
SPREAD_POOL = 24          # random pool rows per spread direction
HULL_ROWS = 512           # most rows of a polyhedral field or of either cutting-plane oracle
CUT_ROUNDS = 16           # most rounds of either cutting-plane oracle
NEWTON_SOLVES = 64        # most eigh solves on one edge of the S-lemma stage
MEMBER_TOL = 1e-12        # a polyhedron's nearest point violates no facet by more, relative


@dataclass
class SphereOptResult:
    value: float
    direction: np.ndarray
    nfev: int
    polish_unconverged: int = 0  # epigraph solves SLSQP ended without success
    stage: str = "descent"       # "exact", "bound", "descent" or "polish": what produced it
    polish_nit: int = 0          # SLSQP iterations over the field's epigraph solves
    lower: float | None = None   # certified lower bound on the minimum: the value when exact
    descent_iters: int = 0       # iterations the descent ran: cfg.iters at its cap, 0 when exact
    method: str | None = None    # the exact stage that answered or bounded the field, else None


def spread_directions(n: int, count: int, seed=0) -> np.ndarray:
    """Well-separated unit directions: +-axes first, then greedy
    farthest-point picks from a random pool of SPREAD_POOL rows per
    direction (at least 256)."""
    axes = np.vstack([np.eye(n), -np.eye(n)])
    if count <= len(axes):
        return axes[:count]
    rng = np.random.default_rng(seed)
    pool = sphere_points(rng, max(SPREAD_POOL * count, 256), n)
    chosen = list(axes)
    sims = np.max(np.abs(pool @ np.asarray(chosen).T), axis=1)
    for _ in range(count - len(axes)):
        i = int(np.argmin(sims))
        chosen.append(pool[i])
        sims = np.maximum(sims, np.abs(pool @ pool[i]))
    return np.asarray(chosen)


def _normalize_rows(V):
    nrm = row_norms(V)
    return V / np.where(nrm > 0, nrm, 1.0)[:, None]


def minimize_on_sphere(field, n: int, cfg: OptimizerConfig = DEFAULT_OPT,
                       extra_starts=None) -> SphereOptResult:
    """Minimize one field over the unit sphere of R^n.

    field is a tuple of Pieces whose max is the field (sums of maxima are
    "sum" pieces), or a callable mapping an (m, n) array of rows to an
    (m,) array, which becomes the one smooth piece and is evaluated at the
    rows normalized to unit length.  Deterministic for a fixed config
    seed.  This is the one-field case of minimize_on_sphere_batch.
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
    field axis of length count (see pieces.Piece), and a matrix without
    one is shared by all fields.  Field t is the max of
    select_pieces(pieces, t), and a result's value is that max at its
    direction, with non-finite values read as inf.

    A field an exact stage answers (see the module docstring) is not
    descended.  Nor is a field whose stage left it open with a bracket
    value - lower <= 64 n eps |value| (see _bracketed): the stage's result
    is returned as it is, since no descent can beat the stage's value by
    more than the bracket.  Every other field starts from the same m
    spread directions (and extra_starts) and runs projected subgradient
    descent: each iteration makes one pass of the field's value and
    subgradient at its m candidate rows, m rows of nfev, plus 2 n
    difference rows per row for each smooth piece (see
    pieces.Piece.gradient), and steps along the
    subgradient's tangent component, the Riemannian gradient on the
    sphere (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008, section 3.6); the starts take one such pass.  A step
    starts at STEP0, grows by 1.2 when it improves its row and halves when
    it does not.  A field stops once all its step sizes fall below 1e-12,
    or at cfg.iters iterations, and is no longer evaluated, so it ends
    exactly as it would alone; descent_iters reports how many iterations
    it ran (0 for an exact or bracketed field).  One descent call takes
    _util.chunk_rows(m n) fields, so that its m rows of R^n per field fit
    one chunk; more fields run in consecutive calls.

    Each descended field's epigraph program, min t subject to
    piece(u) <= t for every piece and |u|^2 = 1 (see _Epigraph), is then
    solved by SLSQP from its POLISH_STARTS best distinct descent
    endpoints, several since fields with l1 terms are multimodal, and a
    polished point is kept only when its lone value beats the descent's
    best row's (see _least; a tie goes to the descent).
    polish_unconverged counts the solves that SLSQP ended without success
    and polish_nit their SLSQP iterations.  stage is "polish" when a
    polished point was kept, else "descent".  Each descended result is
    joined to its exact stages' result by _join.
    """
    if n > 1 and _cs_sum(pieces):  # a stage that runs its fields in lockstep
        first = _cauchy_schwarz(pieces, n, count)
    else:
        first = [_exact(select_pieces(pieces, t), n) for t in range(count)]
    # no descent can beat a bracketed field's value by more than its bracket
    results = [res if res is not None and (res.stage == "exact" or _bracketed(res, n)) else None
               for res in first]
    left = np.array([t for t, res in enumerate(results) if res is None], dtype=int)
    if not left.size:
        return results
    starts = spread_directions(n, max(cfg.restarts, 2), cfg.seed)
    if extra_starts is not None and len(extra_starts):
        starts = np.vstack([np.atleast_2d(np.asarray(extra_starts, dtype=float)), starts])
    U0 = _normalize_rows(np.array(starts, dtype=float))
    per_call = chunk_rows(U0.shape[0] * n)
    for lo in range(0, left.size, per_call):
        idx = left[lo:lo + per_call]
        U, vals, nfev, iters = _descend(pieces, idx, U0, cfg)
        for j, t in enumerate(idx):
            res = _finish(select_pieces(pieces, t), U[j], vals[j], int(nfev[j]))
            res.descent_iters = int(iters[j])
            results[t] = _join(first[t], res)
    return results


def _bracketed(res, n):
    """Whether a stage bounded the field within 64 n eps of its finite
    value, the gap at which the cutting-plane rounds stall: such a field
    keeps the stage's result, and is not descended."""
    return (res is not None and res.lower is not None and math.isfinite(res.value)
            and res.value - res.lower <= 64 * n * np.finfo(float).eps * abs(res.value))


def _exact(pieces, n):
    """The per-field exact stages of the field in order, joined by _join
    up to the first exact result: that result, else the best bound, else
    None (see the module docstring)."""
    res = None
    for stage in (_zero_sphere, _s_lemma, _minkowski_facets, _floor, _hull):
        res = _join(res, stage(pieces, n))
        if res is not None and res.stage == "exact":
            break
    return res


def _join(a, b):
    """The results a and b of one field, a from the earlier stage, as one:
    the first exact one, else b with the larger lower bound and the method
    that gave it (a's on a tie; a lower of None is no bound).  nfev adds
    up, and None is no result."""
    if a is None or b is None:
        return b if a is None else a
    if a.stage == "exact" or b.stage == "exact":
        return replace(a if a.stage == "exact" else b, nfev=a.nfev + b.nfev)
    low = a if b.lower is None or (a.lower is not None and a.lower >= b.lower) else b
    return replace(b, lower=low.lower, method=low.method, nfev=a.nfev + b.nfev)


def _zero_sphere(pieces, n):
    """The field on the 0-sphere at the better of its two points +1 and
    -1; None unless n = 1."""
    if n != 1:
        return None
    V = np.array([[1.0], [-1.0]])
    i, value = _least(pieces, V)
    return SphereOptResult(value=value, direction=V[i], nfev=2, stage="exact",
                           lower=value, method="both points of the 0-sphere")


def _norms(pieces):
    """The matrices M_i of a field that is max_i |u M_i|, or None: the
    S-lemma stage's fields.  They are its l2 pieces' matrices and, when it
    has an l2 piece, the rank-1 columns p_j of each linear piece whose rows
    come in exact pairs +-p_j, since max(<u, p_j>, <u, -p_j>) = |<u, p_j>|.
    A zero matrix is dropped when another remains: every piece is a norm,
    so max(|u M|, 0) = |u M|.  A field of linear pieces alone stays with
    the hull stage."""
    if not any(p.kind == "l2" for p in pieces):
        return None
    M = []
    for p in pieces:
        if p.kind == "l2":
            M.append(p.matrix)
            continue
        pairs = _pairs(p) if p.kind == "linear" else None
        if pairs is None:
            return None
        M += [row[:, None] for row in pairs]
    return [Mi for Mi in M if np.any(Mi)] or M[:1]


def _pairs(p):
    """One row of each exact pair +-p_j of a linear piece's rows, the first
    of each, or None when a row has no partner."""
    P = p.matrix
    partner = np.all(P[:, None, :] == -P[None, :, :], axis=2)
    j = partner.argmax(axis=1)
    if not partner[np.arange(len(P)), j].all():
        return None
    return P[np.arange(len(P)) < j]


def _minkowski_facets(pieces, n):
    """The facet stage of a Minkowski sum Z + B of zonotopes Z and a
    symmetric body B: one sum piece whose parts are single l1 pieces, with
    the columns of their matrices as the generators g_i, and either one
    linear piece whose rows come in exact pairs +-p_j (see _pairs), B their
    hull, or single l2 pieces, B the sum E of their ellipsoids.

    A facet of Z + conv(+-p_j) is the sum of the parts' exposed faces at
    its normal u: the zonotope's face spans the generators orthogonal to
    u, and the face of the pairs' hull is the hull of the sigma_j p_j that
    attain max_j |<u, p_j>|, sigma_j = sign <u, p_j>, at the level
    h(u) > 0 (the pairs span R^n, so the origin is interior).  So every
    facet normal, scaled to h(u) = 1, solves one of the square systems
    [g_I; sigma_J p_J] u = [0; 1] of _facet_systems, and the least support
    of Z + conv(+-p_j) over +- their solutions is its inradius, attained
    at its direction; for paired rows it is the field's minimum.  With
    pairs of rank below n, a facet whose normal is orthogonal to them sits
    at level 0 and no system gives it, so the stage declines.

    With l2 parts, the pairs are support points of E (the sum of the l2
    parts' gradients, pieces.Piece.gradient), first at the unit generator
    directions, so Z + conv(+-p_j) lies inside the field's body, and it is
    the inner polytope of _cutting_planes.  Each round solves only the
    systems that use the newest pair, takes the least support over +-
    every solution so far, and adds E's support point at the nearest
    normal as one more pair.

    None when the field is of another kind, when its expanded rows (2^k
    times the linear rows, or times 2m for m pairs of E, k the l1 columns)
    pass HULL_ROWS, which is checked before any system is built (so the
    hull stage's HULL_ROWS switches this stage too), a matrix is not
    finite, or the pairs have rank below n."""
    if len(pieces) != 1 or pieces[0].kind != "sum" or any(len(q) != 1 for q in pieces[0].parts):
        return None
    parts = pieces[0].parts
    l1, l2, linear = ([part[0] for part in parts if part[0].kind == kind]
                      for kind in ("l1", "l2", "linear"))
    # zonotopes and either one paired linear part or l2 parts
    if not l1 or len(l1) + len(l2) + len(linear) != len(parts) or len(linear) + bool(l2) != 1:
        return None
    G = np.hstack([p.matrix for p in l1]).T
    G = G[np.any(G != 0.0, axis=1)]  # a zero generator adds nothing
    zonotope = 2 ** sum(p.matrix.shape[1] for p in l1)  # the rows Z expands to
    if (zonotope * (len(linear[0].matrix) if linear else 2 * len(G)) > HULL_ROWS
            or not all(np.all(np.isfinite(p.matrix)) for p in l1 + l2 + linear)):
        return None
    P = _pairs(linear[0]) if linear else sum(p.gradient(_normalize_rows(G)) for p in l2)
    if P is None or np.linalg.matrix_rank(P) < n:
        return None
    inner = Piece("sum", parts=tuple((p,) for p in l1) + ((Piece("linear", np.vstack([P, -P])),),))

    def rounds(P):
        U, h, z = np.empty((0, n)), np.empty(0), np.empty(0)
        while True:
            idx = _facet_systems(n, len(G), len(P), len(U) > 0)
            A = np.vstack([G, P, -P])[idx]
            b = (idx >= len(G)).astype(float)  # <u, g_i> = 0 and <u, +-p_j> = 1
            keep = np.linalg.det(A) != 0.0  # the systems with a solution
            X = np.linalg.solve(A[keep], b[keep, :, None])[:, :, 0]
            X = _normalize_rows(X[np.all(np.isfinite(X), axis=1)])
            X = np.vstack([X, -X])
            if l2:
                # the support of Z + conv(+-p_j) is z + max_j |<u, p_j>|, with
                # z the zonotope's: the newest pair at the rows so far, every
                # pair at the new rows
                zx = np.abs(X @ G.T).sum(axis=1)
                h = np.concatenate([np.maximum(h, z + np.abs(U @ P[-1])),
                                    zx + np.abs(X @ P.T).max(axis=1)])
                z = np.concatenate([z, zx])
            else:  # the field itself
                h = _finite_values(pieces, X)
            U = np.vstack([U, X])
            i = int(np.argmin(h))
            yield float(h[i]), U[i][None], len(X)
            P = np.vstack([P, sum(p.gradient(U[i][None]) for p in l2)])  # E's support point

    return _cutting_planes(pieces, n, _polyhedral_rows((inner,), n), 2 * zonotope,
                           len(P) if l2 else 0, "Minkowski facets", rounds(P))


@lru_cache(maxsize=None)
def _facet_systems(n, k, m, newest=False):
    """The square systems of _minkowski_facets for k generators and m
    pairs in R^n, as rows into [g_1..g_k; p_1..p_m; -p_1..-p_m]: every
    choice of |I| generators and |J| >= 1 pairs with |I| + |J| = n, and of
    signs sigma_J with sigma = +1 on the first pair of J (the other sign
    is -u).  841 systems for k = m = n = 5, 160 for 4 and 31 for 3.  With
    newest, only the systems whose J holds pair m - 1, in the same order,
    built directly: the systems a cutting-plane round adds.  The order is
    I, then J, then the signs, each lexicographic, with sigma_J's first
    free sign the most significant bit; the tables are built by
    broadcasting, one block per |J|."""
    blocks = [np.empty((0, n), dtype=int)]
    for size in range(max(1, n - k), min(n, m) + 1):  # |J|, with |I| <= k
        I = _subsets(k, n - size)
        if newest:  # J holds pair m - 1 last
            J = _subsets(m - 1, size - 1)
            J = np.hstack([J, np.full((len(J), 1), m - 1)])
        else:
            J = _subsets(m, size)
        signs = (np.arange(2 ** (size - 1))[:, None] >> np.arange(size - 2, -1, -1)) & 1
        shape = (len(I), len(J), len(signs))
        block = np.concatenate([
            np.broadcast_to(I[:, None, None, :], shape + (n - size,)),
            np.broadcast_to(k + J[None, :, None, :1], shape + (1,)),
            np.broadcast_to(k + J[None, :, None, 1:] + m * signs[None, None, :, :],
                            shape + (size - 1,))], axis=3)
        blocks.append(block.reshape(-1, n))
    return np.vstack(blocks)


def _subsets(N, r):
    """The r-subsets of range(N) as the rows of an (C(N, r), r) array, in
    the order of itertools.combinations."""
    rows = list(combinations(range(N), r))
    return np.array(rows, dtype=int).reshape(len(rows), r)


def _floor(pieces, n):
    """The piece-floor stage: min over the sphere of a max of pieces is at
    least the largest of the pieces' own minima.  An l2 piece |u M| with M
    of rank n has least value sigma_min(M), and an l1 piece |u G|_1 at
    least sigma_min(G), since |y|_1 >= |y|_2; linear pieces and pieces of
    lower rank give no floor.  The field is evaluated at +- every
    candidate: the left-singular vectors of each l1 and l2 matrix for
    sigma_min, all of them when it repeats, and the unit rows of pinv(G)
    for each l1 matrix G, where u G is one-hot (a mapped cube's facet
    normals; rows of norm about 0, from zero or dependent columns, are
    dropped, so every candidate is a unit vector).  The answer is the
    least candidate, each valued alone (_least).  The field is exact when
    that value is within 8 n eps times the largest piece scale (sigma_max
    of a matrix, the longest row of a linear piece) of the floor, the
    cutting planes' rule; otherwise it gets stage "bound", with the floor
    less that tolerance as lower.

    None when a piece is a sum or smooth, when a matrix is not finite,
    when no piece gives a floor, or for the S-lemma stage's fields (see
    _norms), whose bound is at least this floor."""
    if any(p.kind not in ("l1", "l2", "linear") for p in pieces) or _norms(pieces) is not None:
        return None
    if not all(np.all(np.isfinite(p.matrix)) for p in pieces):
        return None
    eps = np.finfo(float).eps
    floor, scale, cands = 0.0, 0.0, []
    for p in pieces:
        if p.kind == "linear":
            scale = max(scale, float(row_norms(p.matrix).max(initial=0.0)))
            continue
        k = p.matrix.shape[1]
        U, s, Vt = np.linalg.svd(p.matrix)
        if not s.size or s[0] == 0.0:
            continue
        s_n = np.zeros(n)  # the n singular values, 0 past the k of M
        s_n[:len(s)] = s
        scale = max(scale, float(s[0]))
        rank = int(np.sum(s > max(n, k) * eps * s[0]))
        if rank == n:
            floor = max(floor, float(s_n[-1]))
        cands.append(U[:, s_n <= s_n[-1] + 8 * n * eps * s[0]].T)
        if p.kind == "l1":  # the rows of pinv(G), where u G is one-hot
            R = (Vt[:rank].T / s[:rank]) @ U[:, :rank].T
            norms = row_norms(R)
            cands.append(R[norms > n * eps * norms.max()])
    if floor == 0.0:
        return None
    C = _normalize_rows(np.vstack(cands))
    C = np.vstack([C, -C])
    i, value = _least(pieces, C)
    tol = 8 * n * eps * scale
    exact = value - floor <= tol
    return SphereOptResult(value=value, direction=C[i], nfev=len(C),
                           stage="exact" if exact else "bound",
                           lower=value if exact else max(floor - tol, 0.0),
                           method="piece floor")


def _hull(pieces, n):
    """The convex-hull stage, whose zero-round case is the hull of a
    polyhedral field's rows.

    A polyhedral field, whose every piece is linear, an l1 piece or a sum
    of such parts, is max_i <P_i, u> = h_conv(P)(u) over the rows P it
    expands to (see _polyhedral_rows).  When 0 is interior to conv(P), its
    minimum over the sphere is the inradius of conv(P), attained at the
    normal of the facet nearest the origin (Qhull: Barber, Dobkin &
    Huhdanpaa, ACM TOMS 1996).  HULL_ROWS bounds the rows, and so Qhull's
    cost, which grows with the facet count.

    An l2 piece |u M| = max over |y| <= 1 of <u, M y>, beside polyhedral
    pieces or in the parts of sums, is replaced by rows at its support
    points M M^T a / |a M| at the seed directions a of _seeds.  The rows
    are points of the body whose support is the field, and their hull is
    the inner polytope of _cutting_planes.  Each round takes the n nearest
    facets from Qhull's equations and adds, at their normals, the
    subgradient (pieces.Piece.gradient) of every piece that holds an l2
    piece: the support point of an l2 piece, and for a sum the sum of its
    parts' support points, again points of the body.  Each round builds
    its hull from every row anew: growing one hull by Qhull's incremental
    add_points ends the process on some fields, which no except clause
    can catch.

    None when every piece is l2 (the S-lemma stage's fields), when the
    field has a smooth piece, more than HULL_ROWS rows at its seeds, rows
    of affine rank below n, the origin on or outside their hull, or when
    Qhull raises QhullError (a "wide merge" on dense clouds)."""
    if all(p.kind == "l2" for p in pieces):
        return None
    from scipy.spatial import ConvexHull
    from scipy.spatial._qhull import QhullError

    # the pieces each round adds points of: l2 pieces and sums with one in a part
    cut = [p for p in pieces if any(q.kind == "l2" for q in leaves((p,)))]
    # facet rows first, then the support points of l2 pieces, which the
    # rounds append to (a stable sort)
    P = _polyhedral_rows(sorted(pieces, key=lambda p: p.kind == "l2"), n, _seeds(pieces, n))
    if (P is None or len(P) <= n or not np.all(np.isfinite(P))
            or np.linalg.matrix_rank(P[1:] - P[0]) < n):
        return None

    def rounds(P):
        while True:
            # facets a.x + c <= 0 with unit a: the origin is interior iff
            # every c < 0, and the facet nearest to it has the largest c
            try:
                equations = ConvexHull(P).equations
            except QhullError:
                return
            if not np.all(equations[:, -1] < 0.0):
                return
            normals = equations[np.argsort(-equations[:, -1], kind="stable")[:n]]
            yield -float(normals[0, -1]), normals[:, :-1], 0
            P = np.vstack([P] + [p.gradient(normals[:, :-1]) for p in cut])

    return _cutting_planes(pieces, n, P, n * len(cut), len(P),
                           "cutting planes" if cut else "convex hull", rounds(P))


def _cutting_planes(pieces, n, rows, grows, nfev, method, rounds):
    """Kelley's cutting planes (Kelley, J. SIAM 8, 1960; Bertsekas & Yu,
    SIAM J. Optim. 21, 2011) of the facet and hull stages, over an inner
    polytope of points of the field's body, whose support is at most the
    field.  rows are its first rows, whose making evaluated nfev rows, and
    each round adds grows rows.

    A stage's oracle is the generator rounds.  Each round it yields the
    inner polytope's least support, its inradius, a lower bound on the
    field; its nearest facets' normals, the nearest first; and the rows it
    evaluated to find them.  Resumed, it adds at those normals the support
    points of every piece that holds an l2 piece, a row of nfev each; it
    ends when the stage declines the field, and the loop returns None.
    Each round's value is the field at the nearest normal, valued alone
    (_least).

    A field without an l2 piece is its own inner polytope, and its first
    round is exact.  Otherwise, with r = n eps max_i |rows_i|, the first
    inner polytope's rounding, the rounds go on until the gap between the
    best value and the inradius is within r.  They stop earlier when the
    gap stops shrinking within 64 r, where Qhull merges the new points;
    when it has not shrunk 16-fold over the last 4 n cuts, a cut a normal,
    as on a ridge of a norm and facets, where a hull round of n cuts only
    about quarters it; after CUT_ROUNDS rounds; or before the rows pass
    HULL_ROWS.  The field is exact when the gap is within 8 r; one left
    open gets stage "bound", with the last inradius as lower.  None as
    well when the best value is not positive."""
    cut = sum(any(q.kind == "l2" for q in leaves((p,))) for p in pieces)
    rounding = n * np.finfo(float).eps * row_norms(rows).max()
    best_u, best, gaps = None, np.inf, [np.inf]
    for r, (lower, normals, evals) in enumerate(rounds):
        value = _least(pieces, normals[:1])[1]
        nfev += evals + 1
        if value < best:
            best_u, best = normals[0], value
        gaps.append(best - lower)
        gap, back = gaps[-1], 4 * n // len(normals)  # the rounds of the last 4 n cuts
        if (not cut or gap <= rounding or (gap <= 64 * rounding and gap >= gaps[-2])
                or (len(gaps) > back + 1 and 16 * gap > gaps[-back - 1]) or r == CUT_ROUNDS
                or len(rows) + (r + 1) * grows > HULL_ROWS):
            break
        nfev += len(normals) * cut  # the support points that resuming rounds adds
    else:  # the stage declined the field
        return None
    if not best > 0.0:
        return None
    exact = not cut or gap <= 8 * rounding
    return SphereOptResult(value=best, direction=best_u, nfev=nfev, lower=best if exact else lower,
                           stage="exact" if exact else "bound", method=method)


def _seeds(pieces, n):
    """The directions at which the hull stage first takes the support
    points of l2 pieces: +-e_i, then +- the unit columns of every l1
    matrix of the field, sums' parts included (the facet normals of a
    mapped cube), each direction once."""
    C = np.vstack([np.empty((0, n))] + [p.matrix.T for p in leaves(pieces) if p.kind == "l1"])
    C = _normalize_rows(C[row_norms(C) > 0])
    S = np.vstack([np.eye(n), -np.eye(n), C, -C])
    # a row stays unless an earlier row equals it
    return S[~np.tril(np.all(S[:, None, :] == S[None, :, :], axis=2), -1).any(axis=1)]


def _s_lemma(pieces, n):
    """The S-lemma dual stage of the field max_i |u M_i|, with the M_i of
    _norms and Q_i = M_i M_i^T.

    For every lambda in the simplex, min over the sphere of the squared
    field is at least phi(lambda) = lambda_min(S), S = sum_i lambda_i Q_i,
    and phi is concave.  It is searched at the vertices of the simplex and
    on its edges.  On an edge (a, b), safeguarded Newton steps (see _edge)
    find the sign change of the slope |v M_b|^2 - |v M_a|^2 at the
    eigenvector v of lambda_min, with the edge parametrized by
    S ~ (1 - t) Q_a / |Q_a| + t Q_b / |Q_b| so that t resolves pieces of
    any scale; the last of at most NEWTON_SOLVES eigh solves is the edge's
    point.  An edge is skipped when Weyl's bound on phi along it,
    min(max(lambda_min(Q_a), lambda_max(Q_b)), max(lambda_max(Q_a),
    lambda_min(Q_b))), or 0 when M_a and M_b have fewer than n columns
    together, does not beat the best value so far, and when the slope at
    an end, taken at that vertex's eigenvector, points out of the edge.

    Every point searched whose phi is within tol of the best gives
    candidate directions: the first eigenvector of lambda_min; at a
    vertex a whose eigenspace is degenerate, the vector of that space with
    the least q_b = |u M_b|^2, for each other piece b; on an edge, the
    vectors on which q_a = q_b, between the two lowest eigenvectors (the
    steps resolve the edge only to rounding, or less at their cap) and,
    when the eigenspace V is degenerate, between the extreme eigenvectors
    of V^T (Q_a - Q_b) V.  The answer is the least candidate, each valued
    alone (_least), with value f.  With phi the best value and
    tol = 64 n eps |S|_2 there, which covers eigh's rounding, the field is
    exact when f^2 - phi <= tol.  Any point gives a valid phi, so a capped
    edge can only leave a field open.  A field that does not certify carries
    sqrt(max(phi - tol, 0)) as a certified lower bound on its minimum.
    Two pieces certify for n >= 3, since the joint range of two quadratic
    forms on that sphere is convex (Brickman, Proc. AMS 12, 1961; Polik &
    Terlaky, SIAM Review 49, 2007); three or more can leave a gap.  The
    stage imports nothing from SciPy, so fields of balls, cylinders and
    ellipsoids never load scipy.optimize.  None when _norms declines the
    field or a matrix is not finite.
    """
    M = _norms(pieces)
    if M is None:
        return None
    Q = np.stack([Mi @ Mi.T for Mi in M])
    if not np.all(np.isfinite(Q)):
        return None
    eps, k = np.finfo(float).eps, len(Q)
    w, V = np.linalg.eigh(Q)
    points = [(w[a], V[a], (a,)) for a in range(k)]  # eigenpairs of S, pieces of its face
    phi = w[:, 0].max()
    # sum_i lambda_i Q_i is singular on an edge whose matrices have fewer
    # than n columns between them, such as two rank-1 norms of paired facets
    caps = sorted(((min(max(w[a, 0], w[b, -1]), max(w[a, -1], w[b, 0]))
                    if M[a].shape[1] + M[b].shape[1] >= n else 0.0, a, b)
                   for a in range(k) for b in range(a + 1, k)), reverse=True)
    for cap, a, b in caps:
        if cap <= phi:  # also every edge of a zero piece, so |Q_a|, |Q_b| > 0 below
            break
        # phi is concave along the edge: a slope pointing out of it at an
        # end, at the end's vertex eigenvector, leaves that vertex as the
        # edge's maximum
        if (_slopes(V[a][:, :1], M[a], M[b])[0] <= 0.0
                or _slopes(V[b][:, :1], M[a], M[b])[0] >= 0.0):
            continue
        t, wS, VS = _edge(Q[a] / w[a, -1], Q[b] / w[b, -1], M[a], M[b])
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
        # eigenvectors, since _edge resolves the edge only to rounding
        bases = [VS[:, :2]]
        if E.shape[1] > 1:
            X = np.linalg.eigh(_gram(E, M[face[0]]) - _gram(E, M[face[1]]))[1]
            bases.append(E @ X[:, [0, -1]])
        for B in bases:
            cands += list(_ties(_gram(B, M[face[0]]) - _gram(B, M[face[1]])) @ B.T)
    C = _normalize_rows(np.array(cands))
    i, value = _least(pieces, C)
    exact = value * value - phi <= tol
    return SphereOptResult(value=value, direction=C[i], nfev=len(C),
                           stage="exact" if exact else "bound",
                           lower=value if exact else math.sqrt(max(phi - tol, 0.0)),
                           method="S-lemma dual")


def _slopes(X, Ma, Mb):
    """x^T (Q_b - Q_a) x_0 for the columns x of X, x_0 the first, with
    Q_i = M_i M_i^T: through the M_i^T x, which resolve q_b - q_a on a
    small norm beside a large one."""
    Ya, Yb = Ma.T @ X, Mb.T @ X
    return Yb.T @ Yb[:, 0] - Ya.T @ Ya[:, 0]


def _edge(Qa, Qb, Ma, Mb):
    """The point t of the edge S(t) = (1 - t) Qa + t Qb of the S-lemma
    stage where the slope s(t) = |v M_b|^2 - |v M_a|^2 at the eigenvector v
    of lambda_min changes sign, given s(0) > 0 > s(1): (t, eigenvalues,
    eigenvectors) of the last eigh solve, at t.

    Newton steps on s start at t = 1/2.  By first-order perturbation,
    s'(t) = 2 sum_{j>=1} (v^T R v_j)(v_j^T D v) / (lambda_0 - lambda_j)
    with R = M_b M_b^T - M_a M_a^T and D = Qb - Qa, from the same eigh.
    A step that leaves the bracket of the sign change, or one taken where
    lambda_1 - lambda_0 is within 64 n eps |S|_2, so that s' is not
    resolved, bisects the bracket instead.  The steps stop once one is
    within eps + 4 eps t, the rounding of t, or after NEWTON_SOLVES
    solves; every t gives a valid bound, so a capped edge can only weaken
    it."""
    eps, n = np.finfo(float).eps, len(Qa)
    D = Qb - Qa
    lo, hi, t = 0.0, 1.0, 0.5
    for solves in range(1, NEWTON_SOLVES + 1):
        wS, VS = np.linalg.eigh((1.0 - t) * Qa + t * Qb)
        r = _slopes(VS, Ma, Mb)
        s = r[0]
        if s == 0.0:
            break
        lo, hi = (t, hi) if s > 0.0 else (lo, t)
        xtol, step = eps + 4 * eps * t, 0.5 * (lo + hi)
        if wS[1] - wS[0] > 64 * n * eps * wS[-1]:
            ds = 2.0 * np.sum(r[1:] * (VS[:, 1:].T @ (D @ VS[:, 0])) / (wS[0] - wS[1:]))
            if abs(s) < abs(ds) * (hi - lo):  # so that s / ds cannot overflow
                newton = t - s / ds
                if lo < newton < hi or abs(newton - t) <= xtol:
                    step = newton
        if abs(step - t) <= xtol or solves == NEWTON_SOLVES:
            break
        t = step
    return t, wS, VS


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
    return X / row_norms(X)[:, None]


def _cs_sum(pieces):
    """Whether the field is |u M_1| + |u M_2|: one sum piece of two parts,
    each a single l2 piece, the fields of the Cauchy-Schwarz stage."""
    return (len(pieces) == 1 and pieces[0].kind == "sum" and len(pieces[0].parts) == 2
            and all(len(part) == 1 and part[0].kind == "l2" for part in pieces[0].parts))


def _cauchy_schwarz(pieces, n, count):
    """The Cauchy-Schwarz stage of the count fields |u M_1| + |u M_2| of
    pieces, one result per field (None when a matrix is not finite).

    With Q_i = M_i M_i^T, (a + b)^2 = min over w in (0, 1) of
    a^2 / w + b^2 / (1 - w), so the squared minimum over the sphere is the
    infimum over w of g(w) = lambda_min(Q_1 / w + Q_2 / (1 - w)), and
    every w gives a direction, the eigenvector of lambda_min.  At w -> 0
    the limit is the least |u M_2|^2 over the kernel of M_1^T, and at
    w -> 1 symmetrically.  Each kernel comes from the SVD of its matrix
    (singular values up to numpy's rank tolerance max(n, k) eps sigma_1
    count as zero), and its least vector is the first candidate.

    Branch and bound on w certifies the infimum, with lower bounds on g
    over intervals [a, b] of w, each eigenvalue less its eigvalsh rounding
    n eps |S|_2 for the matrix S it comes from:
    - Loewner monotonicity: g >= lambda_min(Q_1 / b + Q_2 / (1 - a)),
      computed as lambda_min((1 - a) Q_1 + b Q_2) / (b (1 - a));
    - near an end where M_i has a kernel, that rounding grows like eps / w
      while the bound converges only like w, so g is also bounded with the
      same weights through the split of u into that kernel and its
      complement (see _split_bounds), whose rounding stays O(eps |M|^2);
    - on an inner interval still open after those, the tangents at its
      midpoint m: w -> u^T (Q_1 / w + Q_2 / (1 - w)) u is convex for
      every u, so g is at least the lesser of the least eigenvalues of the
      tangent matrix at a and at b.  This bound is second order in b - a,
      the others first order, so it certifies a minimum inside (0, 1) with
      a few intervals open at a time;
    - 0, since g is the least eigenvalue of a PSD matrix.
    An interval is pruned once its bound is within tol / 2 of the best
    candidate's squared value, tol = 64 n eps (|M_1|_2^2 + |M_2|_2^2),
    which leaves the other half of tol to the exactness test below.  From
    each kernel end, a ladder of intervals of z = w (or 1 - w) is pruned
    first: the links [z_{j-1}, z_j], with z_0 = 0 and z_j doubling from
    eps up to 1/2, each by its split bound, up to the first link whose
    bound is below that level.  The rest is searched in the log-odds
    t = log(w / (1 - w)), so that bisection refines the ends
    geometrically: 16 equal cells between the ladders' ends, or
    |t| <= T = log(1 / eps), where w is resolved to eps, and the end
    intervals beyond T where no ladder starts.  An open interval is split
    at its midpoint, whose eigenvector is a candidate.

    A field is exact when all its intervals are pruned and the best
    candidate's squared value is within tol of the least bound.  Its
    search gives up, and its result has stage "bound", when none of its
    open intervals can be split (an end interval, or one whose midpoint's
    weights equal its ends' in floating point) or when its candidate
    directions would pass 4096; such a field descends and carries the
    square root of its least bound as a certified lower bound on its
    minimum.  The fields run in lockstep rounds, but every operation acts
    on one field's rows or matrices alone, so a field's result does not
    depend on the others.  offer values each candidate row alone, as
    _least does, and the answer keeps the value offer computed.
    """
    eps, out = np.finfo(float).eps, [None] * count
    M = [np.broadcast_to(part[0].matrix, (count,) + part[0].matrix.shape[-2:])
         for part in pieces[0].parts]
    fields = np.flatnonzero(np.all(np.isfinite(M[0]), axis=(1, 2))
                            & np.all(np.isfinite(M[1]), axis=(1, 2)))
    if not fields.size:
        return out
    M, F = [Mi[fields] for Mi in M], len(fields)
    Q = [Mi @ Mi.swapaxes(1, 2) for Mi in M]
    svds = [np.linalg.svd(Mi, full_matrices=True)[:2] for Mi in M]
    norms = [s[:, 0] if s.shape[1] else np.zeros(F) for _, s in svds]
    tol = 64 * n * eps * (norms[0] ** 2 + norms[1] ** 2)
    # kernel ends: a candidate per field and the inputs of _split_bounds,
    # which are NaN for a field whose M_a has no kernel
    cand_u, cand_f, ends = [], [], []
    for a, (Ua, s) in enumerate(svds):
        ranks = np.sum(s > max(M[a].shape[1:]) * eps * norms[a][:, None], axis=1)
        end = np.full((4, F), np.nan)  # sigma, eta, c, beta
        Mb = M[1 - a]
        for r in np.unique(ranks[ranks < n]):
            f = np.flatnonzero(ranks == r)
            K, R = Ua[f][:, :, r:], Ua[f][:, :, :r]
            KM = K.swapaxes(1, 2) @ Mb[f]
            c, X = np.linalg.eigh(KM @ KM.swapaxes(1, 2))
            cand_u.append((K @ X[:, :, :1])[:, :, 0])
            cand_f.append(f)
            rounding = n * eps * norms[a][f]
            sigma = s[f, r - 1] - rounding if r else 0.0
            eta = np.linalg.norm(K.swapaxes(1, 2) @ M[a][f], axis=(1, 2)) + rounding
            beta = (np.linalg.norm(KM @ (R.swapaxes(1, 2) @ Mb[f]).swapaxes(1, 2), 2, axis=(1, 2))
                    if r else 0.0)
            end[:, f] = np.broadcast_arrays(sigma, eta, c[:, 0] - n * eps * norms[1 - a][f] ** 2,
                                            beta)
        ends.append(end)

    def weights(t):
        # w(t) = 1 / (1 + e^-t) and 1 - w(t), each accurate at its end
        return 1.0 / (1.0 + np.exp(-t)), 1.0 / (1.0 + np.exp(t))

    def matrices(f, x, y):
        return x[:, None, None] * Q[0][f] + y[:, None, None] * Q[1][f]

    def least(S):
        lam = np.linalg.eigvalsh(S)
        return lam[:, 0] - n * eps * np.abs(lam).max(axis=1)

    def bounds(f, ta, tb, level):
        (a, va), (b, vb) = weights(ta), weights(tb)
        out = least(matrices(f, va, b)) / (b * va)
        for i, end in enumerate(ends):
            p, q = (1.0 / b, 1.0 / va) if i == 0 else (1.0 / va, 1.0 / b)
            out = np.fmax(out, _split_bounds(p, q, *end[:, f]))  # fmax skips the NaN
        tangent = (out < level) & np.isfinite(ta) & np.isfinite(tb)
        if tangent.any():
            f, a, va, b, vb = f[tangent], a[tangent], va[tangent], b[tangent], vb[tangent]
            m, vm = weights(0.5 * (ta[tangent] + tb[tangent]))
            x = np.concatenate([(2 * m - a) / m ** 2, (2 * m - b) / m ** 2])
            y = np.concatenate([(2 * vm - va) / vm ** 2, (2 * vm - vb) / vm ** 2])
            tangents = least(matrices(np.tile(f, 2), x, y)).reshape(2, -1)
            out[tangent] = np.maximum(out[tangent], tangents.min(axis=0))
        return np.maximum(out, 0.0)  # g is the least eigenvalue of a PSD matrix

    best_u, best, rows = np.zeros((F, n)), np.full(F, np.inf), np.zeros(F, dtype=int)

    def offer(f, C):
        # each row is evaluated alone, so a field's values do not depend on
        # the other fields' rows
        C = _normalize_rows(C)
        vals = sum(row_norms((C[:, None, :] @ Mi[f])[:, 0]) for Mi in M)
        np.add.at(rows, f, 1)
        order = np.lexsort((vals, f))  # stable: the first of equal values wins
        i = order[np.r_[True, f[order][1:] != f[order][:-1]]]
        i = i[vals[i] ** 2 < best[f[i]] ** 2]
        best_u[f[i]], best[f[i]] = C[i], vals[i]

    if cand_f:
        offer(np.concatenate(cand_f), np.vstack(cand_u))
    # from each kernel end, the links [z_{j-1}, z_j] of z = w (or 1 - w),
    # z_0 = 0 and z_j doubling from eps to 1/2, each bounded by the split
    floor, T = np.full(F, np.inf), -math.log(eps)
    span = [np.full(F, -T), np.full(F, T)]  # the grid's ends in t
    aim = best ** 2 - 0.5 * tol
    z = np.exp2(np.arange(math.log2(eps), 0.0))[:, None]
    q = 1.0 / (1.0 - np.vstack([0.0, z[:-1]]))
    for i, end in enumerate(ends):
        # a ladder ends before its first link whose bound is below aim; an
        # end without a kernel has NaN bounds and no links
        bound = _split_bounds(1.0 / z, q, *end)
        used = np.logical_and.accumulate(bound >= aim, axis=0)
        floor = np.minimum(floor, np.where(used, bound, np.inf).min(axis=0))
        top = np.where(used, z, 0.0).max(axis=0)
        with np.errstate(divide="ignore"):
            t = np.log(top) - np.log1p(-top)
        span[i] = np.where(top > 0.0, t if i == 0 else -t, span[i])
    # 16 equal cells between the ladders, or between +-T, where w is resolved
    # to eps, and the end intervals beyond +-T
    lo, hi = span
    k = np.arange(17) / 16
    cells = np.flatnonzero(lo < hi)
    grid = lo[cells, None] + (hi - lo)[cells, None] * k
    grid[:, -1] = hi[cells]
    left, right = np.flatnonzero(lo == -T), np.flatnonzero(hi == T)
    fi = np.concatenate([np.repeat(cells, 16), left, right])
    ta = np.concatenate([grid[:, :-1].ravel(), np.full(len(left), -np.inf),
                         np.full(len(right), T)])
    tb = np.concatenate([grid[:, 1:].ravel(), np.full(len(left), -T),
                         np.full(len(right), np.inf)])
    lower = bounds(fi, ta, tb, aim[fi])
    while True:
        live = lower < (best ** 2 - 0.5 * tol)[fi]
        tm = 0.5 * (ta + tb)
        # an interval splits while its midpoint's weights differ from its ends'
        (wa, va), (wm, vm), (wb, vb) = weights(ta), weights(tm), weights(tb)
        split = live & (((wa < wm) & (wm < wb)) | ((va > vm) & (vm > vb)))
        want = np.bincount(fi[split], minlength=F)
        split &= (rows + want <= 4096)[fi]
        if not split.any():
            break
        np.minimum.at(floor, fi[~live], lower[~live])
        w, v = weights(tm[split])
        offer(fi[split], np.linalg.eigh(matrices(fi[split], v, w))[1][:, :, 0])
        stay = live & ~split
        new_f = np.tile(fi[split], 2)
        new_a = np.concatenate([ta[split], tm[split]])
        new_b = np.concatenate([tm[split], tb[split]])
        fi, ta, tb = (np.concatenate([fi[stay], new_f]), np.concatenate([ta[stay], new_a]),
                      np.concatenate([tb[stay], new_b]))
        lower = np.concatenate([lower[stay],
                                bounds(new_f, new_a, new_b, (best ** 2 - 0.5 * tol)[new_f])])
    np.minimum.at(floor, fi, lower)
    open_ = np.bincount(fi[live], minlength=F) > 0
    for j, t in enumerate(fields):
        value = float(best[j])
        exact = not open_[j] and value * value - floor[j] <= tol[j]
        out[t] = SphereOptResult(value=value, direction=best_u[j], nfev=int(rows[j]),
                                 stage="exact" if exact else "bound",
                                 lower=value if exact else math.sqrt(max(floor[j], 0.0)),
                                 method="Cauchy-Schwarz")
    return out


def _split_bounds(p, q, sigma, eta, c, beta):
    """Lower bounds on min over unit u of p |u M_a|^2 + q |u M_b|^2, for
    arrays of weights p and q, by the split u = K x + R y with K the
    kernel of M_a^T: |u M_a| >= sigma |y| - eta, with sigma the least
    singular value of R^T M_a and eta >= |K^T M_a|_2, and
    |u M_b|^2 >= c |x|^2 - 2 beta |x| |y|, with c = lambda_min(K^T Q_b K)
    and beta = |K^T Q_b R|_2.  With s = |y| and |x| <= 1, the sum is at
    least G(s) = p max(sigma s - eta, 0)^2 + q (c - c s^2 - 2 beta s), a
    quadratic past s0 = min(eta / sigma, 1).  Before s0 it is at least
    q (c - max(c, 0) s0^2 - 2 beta s0), its value at s0 unless rounding
    left c below 0, so its least value on [0, 1] is at s0, at 1 or at the
    vertex.  The inputs carry their own rounding, so the bound's is
    O(eps |M|^2) however large p is.  Where R is empty (sigma = 0: M_a is
    0 to rounding), s = 0 and the bound is q c."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.minimum(eta / sigma, 1.0)
        ends = np.minimum(q * (c - np.maximum(c, 0.0) * s0 * s0 - 2.0 * beta * s0),
                          p * np.maximum(sigma - eta, 0.0) ** 2 - 2.0 * q * beta)
        D, B = p * sigma * sigma - q * c, p * sigma * eta + q * beta
        vertex = q * c - q * (p * eta * (eta * c + 2.0 * sigma * beta) + q * beta * beta) / D
        inside = (D > 0.0) & (B >= s0 * D) & (B <= D)
    return np.where(sigma > 0.0, np.where(inside, np.minimum(ends, vertex), ends), q * c)


def _polyhedral_rows(pieces, n, seeds=None):
    """Rows P with max(pieces)(u) = max_i <P_i, u>, or None when a piece
    is smooth or the rows would exceed HULL_ROWS.  A linear piece gives
    its rows, an l1 piece its 2^k sign rows, and a sum the pairwise sums
    of its parts' rows.  An l2 piece gives its support points at the rows
    of seeds, its nonzero gradients there (see pieces.Piece.gradient),
    which are points of its ellipsoid, and None without seeds: with one,
    max_i <P_i, u> is only at most max(pieces)(u)."""
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
        elif p.kind == "l2" and seeds is not None:
            R = p.gradient(seeds)
            R = R[np.any(R != 0.0, axis=1)]
        elif p.kind == "sum":
            R = np.zeros((1, n))
            for part in p.parts:
                Q = _polyhedral_rows(part, n, seeds)
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
    vals = max_of(pieces, V)
    return np.where(np.isfinite(vals), vals, np.inf)


def _least(pieces, C):
    """(i, value): the first least of the field's values at the rows of C,
    each valued alone, as one stack of one-row batches C[:, None, :], so
    that a value has the bits of a one-row call.  A field with a smooth
    piece values one row per call, since a smooth callable need not be
    row-local."""
    if any(p.kind == "smooth" for p in leaves(pieces)):
        vals = np.array([_finite_values(pieces, c[None])[0] for c in C])
    else:
        vals = _finite_values(pieces, C[:, None, :])[:, 0]
    i = int(np.argmin(vals))
    return i, float(vals[i])


def _descend(pieces, idx, U0, cfg):
    """Lockstep projected descent of the fields idx from the rows of U0.
    Returns their final rows (k, m, n), values (k, m), row counts (k,) and
    iterations (k,)."""
    k, (m, n) = len(idx), U0.shape
    run = select_pieces(pieces, idx)  # the running fields; re-selected when one stops
    U = np.repeat(U0[None], k, axis=0)
    vals, grad = max_and_gradient(run, U)
    vals = np.where(np.isfinite(vals), vals, np.inf)
    U_out, vals_out = np.empty_like(U), np.empty_like(vals)
    iters = np.full(k, cfg.iters)
    live = np.arange(k)

    steps = np.full((k, m), STEP0)
    for it in range(cfg.iters):
        a = len(live)
        # the Riemannian gradient: the subgradient's tangent component
        tangent = grad - (grad * U).sum(axis=2)[:, :, None] * U
        gn = row_norms(tangent)
        gn = np.where(gn > 0, gn, 1.0)
        cand = _normalize_rows((U - (steps / gn)[:, :, None] * tangent).reshape(-1, n))
        cand = cand.reshape(a, m, n)
        cv, cg = max_and_gradient(run, cand)
        cv = np.where(np.isfinite(cv), cv, np.inf)
        better = cv < vals
        U = np.where(better[:, :, None], cand, U)
        vals = np.where(better, cv, vals)
        grad = np.where(better[:, :, None], cg, grad)
        steps = np.where(better, steps * 1.2, steps * 0.5)
        done = steps.max(axis=1) < 1e-12
        if done.any():
            stop = live[done]
            U_out[stop], vals_out[stop], iters[stop] = U[done], vals[done], it + 1
            keep = ~done
            live, U, vals, grad, steps = live[keep], U[keep], vals[keep], grad[keep], steps[keep]
            if not live.size:
                break
            run = select_pieces(pieces, idx[live])
    U_out[live], vals_out[live] = U, vals
    smooth = sum(p.kind == "smooth" for p in leaves(pieces))
    rows = m * (1 + 2 * n * smooth)  # one pass, with the difference rows
    return U_out, vals_out, (iters + 1) * rows, iters


def _finish(pieces, U, vals, nfev):
    """The least of the field's best descent row and its polished points,
    each valued alone by _least, the row first: a polished point is kept
    only when its lone value is below the row's."""
    program = _Epigraph(pieces, U.shape[1])
    found = [program.solve(U[j]) for j in _distinct_best(U, vals, POLISH_STARTS)]
    # every row only ever improves, so the incumbent is the best current row
    C = np.vstack([U[int(np.argmin(vals))]] + [u for u in found if u is not None])
    i, value = _least(pieces, C)
    return SphereOptResult(value=value, direction=C[i], nfev=nfev + len(C) + program.rows,
                           polish_unconverged=program.unconverged,
                           stage="polish" if i else "descent", polish_nit=program.nit)


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


def _nnls(*args, **kwargs):
    """scipy.optimize.nnls, imported at the first call: it is slow to import."""
    from scipy.optimize import nnls
    return nnls(*args, **kwargs)


def _scipy_minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported at the first call: it is slow to import."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


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
    Linear, l1 and sum pieces are linear in z: rows C z >= 0.  _group
    allocates the auxiliary variables as it walks the pieces, and each
    block of C, which references only variables allocated before it, is
    padded to the final width nz.  rows counts
    the pieces evaluated or differentiated at a point, nit SLSQP's
    iterations over all solves, and unconverged the solves that SLSQP
    ended with a nonzero status (an iteration cap, a failed line search or
    incompatible constraints).
    """

    def __init__(self, pieces, n):
        self.n = n
        self.rows = self.nit = self.unconverged = 0
        self.blocks = []     # row blocks of C, as wide as the variables so far
        self.levels = []     # (variable, pieces whose max it bounds)
        self.l1 = []         # (first auxiliary variable, M)
        self.l2, self.smooth = [], []  # (variable, piece)
        self.nz = n + 1
        self._group(pieces, n)
        self.C = np.vstack([np.pad(B, ((0, 0), (0, self.nz - B.shape[1])))
                            for B in self.blocks]) if self.blocks else None
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
        first = self.nz
        self.nz += k
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
    dist(x, C) = max over |u| <= 1 of <x, u> - h_C(u) (Rockafellar, Convex
    Analysis, 1970, section 16): the epigraph program of _Epigraph with
    |u|^2 <= 1 and the objective t - <x, u>.

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


def _row_products(X, A):
    """X @ A.T, summed one column at a time, left to right, so that a row's
    bits do not depend on the other rows of X, as a BLAS product's can."""
    T = np.multiply.outer(X[:, 0], A[:, 0])
    for j in range(1, X.shape[1]):
        T += np.multiply.outer(X[:, j], A[:, j])
    return T


def polyhedron_points(A, b, X):
    """Nearest points to the rows of X (m, n) of the polyhedron
    {y : A y <= b}, A (k, n), by least-distance programming (Lawson and
    Hanson, Solving Least Squares Problems, 1974, ch. 23).

    Members (A x <= b exactly) come back unchanged.  Every other row first
    takes its projection onto the halfspace of its most violated facet, at
    distance d from x; when that point is a member, it is the nearest
    point, since no member is nearer than the halfspace.  Each remaining
    row solves min |z| subject to A (x + z) <= b as one nnls of the
    (n + 1) x k system E = [-A^T; (A x - b)^T / d], f = e_{n+1}: with the
    residual r = E u - f, z = -d r[:n] / r[n], where r[n] = -1 / (1 + |z / d|^2)
    keeps its digits however far x lies, as |z| >= d; -r[n] <= MEMBER_TOL
    reads as an empty polyhedron.  A point is a member when it violates no
    facet by more than MEMBER_TOL (|b|_inf + max_i |A_i| |y|); one that is
    not, by the rounding of a far x, is projected once more, which moves it
    by at most its error.  Raises EvaluationError for a point still not a
    member, and when nnls stops at its iteration cap, meets a non-finite
    row or finds the polyhedron empty.  A row's point has the same bits in
    any batch (see _row_products).
    """
    A, b, X = (np.asarray(a, dtype=float) for a in (A, b, X))
    n = X.shape[1]
    norms = row_norms(A)
    b_top, a_top = np.max(np.abs(b)), np.max(norms)
    f = np.eye(n + 1)[n]

    def members(Y):
        excess = np.max(_row_products(Y, A) - b, axis=1)
        return excess <= MEMBER_TOL * (b_top + a_top * row_norms(Y))

    out = np.array(X, copy=True)
    rows = np.arange(X.shape[0])
    for _ in range(2):
        V = _row_products(out[rows], A) - b
        outside = ~np.all(V <= 0.0, axis=1)  # a NaN row is outside
        rows, V = rows[outside], V[outside]
        top = np.argmax(V / norms, axis=1)
        v_top = V[np.arange(rows.size), top]
        far = v_top / norms[top]
        Y = out[rows] - (v_top / norms[top] ** 2)[:, None] * A[top]
        solve = np.flatnonzero(~members(Y))
        for j in solve:
            i, E = rows[j], np.vstack([-A.T, V[j] / far[j]])
            try:
                u, _ = _nnls(E, f)
            except (RuntimeError, ValueError) as exc:  # its iteration cap, a non-finite row
                raise EvaluationError(f"least-distance program failed at row {i}: {exc}") from exc
            r = E @ u - f
            if not -r[n] > MEMBER_TOL:
                raise EvaluationError(f"least-distance program at row {i}: the polyhedron is empty")
            Y[j] = out[i] - far[j] * (r[:n] / r[n])
        out[rows] = Y
        rows = rows[solve[~members(Y[solve])]]
    if rows.size:
        raise EvaluationError(f"least-distance point of row {rows[0]} is not a member "
                              f"within {MEMBER_TOL:g} of scale")
    return out
