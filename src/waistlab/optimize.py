"""Multistart minimization of scalar fields over the unit sphere.

The optimizer runs projected descent with central-difference gradients from
spread-out seed directions, for one field or for many fields in lockstep
(one per random rotation of a harness).  It then polishes the best
distinct descent endpoints of each field with one SLSQP solve each of the
epigraph program of the field, written as a max of pieces (see
bodies.Piece): min t subject to piece(u) <= t for every piece and
|u|^2 = 1, with exact constraints and analytic Jacobians.  Values
returned are always attained at an explicit feasible direction, so for
maximization problems the result is a certified bound from the feasible
side.

How many endpoints are polished depends on the pieces.  A field made
only of l2 pieces (and sums of l2-only parts) is polished from its best
endpoint alone: that one solve gave the value of POLISH_STARTS solves to
3.1e-14 relative on the 600 cylinder fields of the acceptance criterion
10b, and to 4e-16 on the 1500 flat-disk inclusion fields of criterion 9.
A field with any linear, l1 or smooth piece keeps POLISH_STARTS starts,
since facet fields are multimodal: cube against cross-polytope at n = 3
loses up to 5.5e-3 from one start.  The rule is measured, not proved.

The same program with |u|^2 <= 1 and the objective t - <x, u> is the dual
of the Euclidean distance to a convex body with support max(pieces):
dist(x, C) = max over |u| <= 1 of <x, u> - h_C(u) (Rockafellar, Convex
Analysis, 1970, section 16).  nearest_points solves it row by row.

Before any descent, an exact stage answers the fields it can.  On the
0-sphere (n = 1) it evaluates both points +1 and -1.  A polyhedral field,
whose every piece is linear, an l1 piece of at most HULL_ROWS sign rows,
or a sum of such parts, is max_i <P_i, u> = h_conv(P)(u) over the rows P
it expands to.  When 0 is interior to conv(P), its minimum over the
sphere is the inradius of conv(P), attained at the normal of the facet
nearest the origin (Qhull: Barber, Dobkin & Huhdanpaa, ACM TOMS 1996).
HULL_ROWS bounds the Qhull cost, which grows with the facet count: the
320-row Minkowski-sum field of a 5-cube and a rotated 5-cross-polytope
(about 4800 facets) takes about 33 ms, every other field of the
polytope-dual benchmark 4 ms or less.  The default optimizer spends more
than that on the same fields: the benchmark's n = 5 cube/cross jobs ran
faster with 512 rows than with 256, which sends that field to the
optimizer.  Fields with other pieces, more rows, rows of affine rank
below n, or the origin on or outside the hull go on to the descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from ._util import rng_from, sphere_points
from .bodies import Piece
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


def minimize_on_sphere(f, n: int, cfg: OptimizerConfig = DEFAULT_OPT,
                       extra_starts=None, pieces=None) -> SphereOptResult:
    """Minimize a batched scalar field over the unit sphere of R^n.

    f maps an (m, n) array of unit rows to an (m,) array.  Deterministic
    for a fixed config seed.  This is the one-problem case of
    minimize_on_sphere_batch, which documents the descent, the polish and
    nfev.

    pieces describes f for the polish stage as the max of a sequence of
    Pieces (sums of maxima are "sum" pieces).  Without pieces, f itself is
    the one piece and SLSQP differentiates it numerically.
    """
    def batched(idx, V):
        return np.asarray(f(V[0]), dtype=float)[None, :]

    return minimize_on_sphere_batch(batched, n, 1, cfg, extra_starts,
                                    None if pieces is None else [pieces])[0]


def minimize_on_sphere_batch(f, n: int, count: int, cfg: OptimizerConfig = DEFAULT_OPT,
                             extra_starts=None, pieces=None) -> list[SphereOptResult]:
    """Minimize count batched scalar fields over the unit sphere of R^n in
    lockstep, one SphereOptResult per field.

    f(idx, V) takes the indices idx (k,) of k fields and an array V
    (k, m, n) of unit rows, row block V[j] for field idx[j], and returns
    the (k, m) values.  pieces is None or a sequence of count piece
    tuples, one per field, as in minimize_on_sphere.

    A field the exact stage answers (see the module docstring) is not
    descended; its nfev counts the rows its pieces expand to (the two
    points on the 0-sphere) and the re-evaluation of f at its direction.
    Every other field starts from the same spread directions (and extra_starts)
    and runs projected descent with central-difference gradients.  A field
    stops once all its step sizes fall below 1e-12 and is no longer
    evaluated, so it ends exactly as it would alone.  At most BATCH_ROWS
    rows go to one call of f; more fields run in consecutive chunks.  With
    cfg.polish, each field's epigraph program is solved from its
    POLISH_STARTS best distinct descent endpoints, or from its best one
    when all its pieces are l2 (see the module docstring), and a solution
    is kept only when f, re-evaluated there, improves on the descent.
    A field without pieces is one smooth piece.  nfev counts
    every row at which the field, a piece or a piece gradient was
    evaluated; polish_unconverged counts the solves that SLSQP ended
    without success and polish_nit their SLSQP iterations.  stage names
    what produced the value: "exact", "descent", or "polish" when a
    polished point improved on the descent.
    """
    results = [_exact(f, t, n, None if pieces is None else pieces[t]) for t in range(count)]
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
        U, vals, nfev = _descend(f, idx, U0, cfg)
        for j, t in enumerate(idx):
            results[t] = _finish(f, t, U[j], vals[j], int(nfev[j]), cfg,
                                 None if pieces is None else pieces[t])
    return results


def _exact(f, t, n, pieces):
    """The minimum of field t over the sphere when the exact stage applies
    (see the module docstring), else None."""
    field = np.array([t])
    if n == 1:
        V = np.array([[1.0], [-1.0]])
        vals = _finite_values(f, field, V[None])[0]
        i = int(np.argmin(vals))
        return SphereOptResult(value=float(vals[i]), direction=V[i], nfev=2, stage="exact")
    P = None if pieces is None else _polyhedral_rows(pieces, n)
    if P is None or np.linalg.matrix_rank(P[1:] - P[0]) < n:
        return None
    from scipy.spatial import ConvexHull

    # facets a.x + c <= 0 with unit a: the origin is interior iff every c < 0,
    # and the facet nearest to it has the largest c
    equations = ConvexHull(P).equations
    if not np.all(equations[:, -1] < 0.0):
        return None
    u = equations[int(np.argmax(equations[:, -1])), :-1]
    value = float(_finite_values(f, field, u[None, None])[0, 0])
    return SphereOptResult(value=value, direction=u, nfev=len(P) + 1, stage="exact")


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


def _finite_values(f, idx, V):
    vals = np.asarray(f(idx, V), dtype=float)
    return np.where(np.isfinite(vals), vals, np.inf)


def _descend(f, idx, U0, cfg):
    """Lockstep projected descent of the fields idx from the rows of U0.
    Returns their final rows (k, m, n), values (k, m) and row counts (k,)."""
    k, (m, n) = len(idx), U0.shape
    U = np.repeat(U0[None], k, axis=0)
    vals = _finite_values(f, idx, U)
    U_out, vals_out = np.empty_like(U), np.empty_like(vals)
    iters = np.full(k, cfg.iters)
    live, run = np.arange(k), idx  # the running fields; compacted when one stops

    h = FD_STEP
    steps = np.full((k, m), cfg.step0)
    shifts = h * np.eye(n)
    for it in range(cfg.iters):
        a = len(live)
        # central-difference ambient gradient of f(v/|v|) at unit rows
        plus = _normalize_rows((U[:, :, None, :] + shifts).reshape(-1, n))
        minus = _normalize_rows((U[:, :, None, :] - shifts).reshape(-1, n))
        fp = np.asarray(f(run, plus.reshape(a, m * n, n)), dtype=float).reshape(a, m, n)
        fm = np.asarray(f(run, minus.reshape(a, m * n, n)), dtype=float).reshape(a, m, n)
        # a component with a non-finite side has no difference: it is zero
        sides = np.isfinite(fp) & np.isfinite(fm)
        grad = np.subtract(fp, fm, out=np.zeros_like(fp), where=sides) / (2.0 * h)
        grad -= (grad * U).sum(axis=2)[:, :, None] * U  # tangent component
        gn = np.linalg.norm(grad, axis=2)
        gn = np.where(gn > 0, gn, 1.0)
        cand = _normalize_rows((U - (steps / gn)[:, :, None] * grad).reshape(-1, n))
        cand = cand.reshape(a, m, n)
        cv = _finite_values(f, run, cand)
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
            run = idx[live]
            if not live.size:
                break
    U_out[live], vals_out[live] = U, vals
    return U_out, vals_out, m + iters * (2 * m * n + m)


def _finish(f, t, U, vals, nfev, cfg, pieces):
    """Best descent row of field t, polished when cfg.polish asks for it."""
    # every row only ever improves, so the incumbent is the best current row
    i = int(np.argmin(vals))
    best_u, best_v = U[i].copy(), float(vals[i])
    stage, unconverged, nit = "descent", 0, 0
    if cfg.polish:
        n = U.shape[1]
        field = np.array([t])

        def feval(V):
            nonlocal nfev
            nfev += V.shape[0]
            return _finite_values(f, field, V[None])[0]

        if pieces is None:
            pieces = (Piece("smooth", value=lambda V: _finite_values(
                f, field, _normalize_rows(V)[None])[0]),)
        program = _Epigraph(pieces, n)
        starts = 1 if _l2_only(pieces) else POLISH_STARTS
        found = [program.solve(U[j]) for j in _distinct_best(U, vals, starts)]
        found = [u for u in found if u is not None]
        if found:
            cand = np.vstack(found)
            cv = feval(cand)
            j = int(np.argmin(cv))
            if cv[j] < best_v:
                best_u, best_v, stage = cand[j], float(cv[j]), "polish"
        nfev += program.rows
        unconverged, nit = program.unconverged, program.nit
    return SphereOptResult(value=best_v, direction=best_u, nfev=nfev,
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
