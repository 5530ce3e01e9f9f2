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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from ._util import rng_from, sphere_points
from .bodies import Piece

__all__ = ["OptimizerConfig", "SphereOptResult", "minimize_on_sphere",
           "minimize_on_sphere_batch", "spread_directions"]


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    iters: int = 120
    seed: int = 0
    step0: float = 0.3
    polish: bool = True


DEFAULT_OPT = OptimizerConfig()
FD_STEP = 1e-6            # central-difference step of the descent gradients
POLISH_STARTS = 16        # distinct descent endpoints the epigraph solve starts from
POLISH_SEPARATION = 1e-6  # endpoints closer than this count as one start
BATCH_ROWS = 1 << 16      # most rows one batched evaluation holds


@dataclass
class SphereOptResult:
    value: float
    direction: np.ndarray
    nfev: int
    polish_unconverged: int = 0  # epigraph solves SLSQP ended without success


def spread_directions(n: int, count: int, seed=0, pool_factor: int = 24) -> np.ndarray:
    """Well-separated unit directions: +-axes first, then greedy
    farthest-point picks from a random pool."""
    axes = np.vstack([np.eye(n), -np.eye(n)])
    if count <= len(axes):
        return axes[:count]
    rng = rng_from(seed)
    pool = sphere_points(rng, max(pool_factor * count, 256), n)
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

    Every field starts from the same spread directions (and extra_starts)
    and runs projected descent with central-difference gradients.  A field
    stops once all its step sizes fall below 1e-12 and is no longer
    evaluated, so it ends exactly as it would alone.  At most BATCH_ROWS
    rows go to one call of f; more fields run in consecutive chunks.  With
    cfg.polish, each field's epigraph program is solved from its
    POLISH_STARTS best distinct descent endpoints, and a solution is kept
    only when f, re-evaluated there, improves on the descent.  nfev counts
    every row at which the field, a piece or a piece gradient was
    evaluated; polish_unconverged counts the solves that SLSQP ended
    without success.
    """
    starts = spread_directions(n, max(cfg.restarts, 2), cfg.seed)
    if extra_starts is not None and len(extra_starts):
        starts = np.vstack([np.atleast_2d(np.asarray(extra_starts, dtype=float)), starts])
    U0 = _normalize_rows(np.array(starts, dtype=float))
    per_call = max(1, BATCH_ROWS // (U0.shape[0] * n))
    results = []
    for lo in range(0, count, per_call):
        idx = np.arange(lo, min(count, lo + per_call))
        U, vals, nfev = _descend(f, idx, U0, cfg)
        for j, t in enumerate(idx):
            results.append(_finish(f, t, U[j], vals[j], int(nfev[j]), cfg,
                                   None if pieces is None else pieces[t]))
    return results


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
    unconverged = 0
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
        found = [program.solve(U[j]) for j in _distinct_best(U, vals)]
        found = [u for u in found if u is not None]
        if found:
            cand = np.vstack(found)
            cv = feval(cand)
            j = int(np.argmin(cv))
            if cv[j] < best_v:
                best_u, best_v = cand[j], float(cv[j])
        nfev += program.rows
        unconverged = program.unconverged
    return SphereOptResult(value=best_v, direction=best_u, nfev=nfev,
                           polish_unconverged=unconverged)


def _distinct_best(U, vals):
    """Indices of the POLISH_STARTS best finite rows, skipping any row within
    POLISH_SEPARATION of one already taken."""
    taken = []
    for i in np.argsort(vals, kind="stable"):
        if not np.isfinite(vals[i]) or len(taken) == POLISH_STARTS:
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

    Variables z = (u, t, aux): u on the sphere, the level t of the max, and
    auxiliary levels.  Every piece p under a level v adds p(u) <= z_v:
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
    the pieces evaluated or differentiated at a point, and unconverged the
    solves that SLSQP ended with a nonzero status (an iteration cap, a
    failed line search or incompatible constraints).
    """

    def __init__(self, pieces, n):
        self.n = n
        self.nz = n + 1 + _aux_count(pieces)
        self.rows = 0
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

    def solve(self, u0):
        """Unit direction of the SLSQP solution from u0, or None when the
        start is infinite or the solution is not a finite nonzero vector."""
        n = self.n
        z0 = self._start(u0)
        if not np.all(np.isfinite(z0)):
            return None
        cons = [{"type": "eq", "fun": lambda z: np.array([z[:n] @ z[:n] - 1.0]),
                 "jac": lambda z: np.concatenate([2.0 * z[:n], np.zeros(self.nz - n)])[None, :]}]
        if self.blocks:
            cons.append({"type": "ineq", "fun": self._linear, "jac": lambda z: self.C})
        if self.l2:
            cons.append({"type": "ineq", "fun": lambda z: self._values(z, self.l2),
                         "jac": self._jac})
        if self.smooth:
            cons.append({"type": "ineq", "fun": lambda z: self._values(z, self.smooth)})
        res = _scipy_minimize(lambda z: self.c @ z, z0, jac=lambda z: self.c,
                              method="SLSQP", constraints=cons,
                              options={"maxiter": 300, "ftol": 1e-14})
        self.unconverged += int(res.status != 0)
        u = res.x[:n]
        nrm = np.linalg.norm(u)
        if not np.all(np.isfinite(u)) or nrm < 1e-9:
            return None
        return u / nrm
