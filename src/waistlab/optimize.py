"""Multistart minimization of scalar fields over the unit sphere.

The driver runs batched projected descent with central-difference gradients
from spread-out seed directions, then polishes the incumbent with local
solvers.  Values returned are always attained at an explicit feasible
direction, so for maximization problems the result is a certified bound
from the feasible side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from ._util import rng_from, sphere_points

__all__ = ["OptimizerConfig", "SphereOptResult", "minimize_on_sphere", "spread_directions"]


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    iters: int = 120
    seed: int = 0
    step0: float = 0.3
    polish: bool = True


DEFAULT_OPT = OptimizerConfig()
FD_STEP = 1e-6            # central-difference step of the descent gradients


@dataclass
class SphereOptResult:
    value: float
    direction: np.ndarray
    nfev: int


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
                       extra_starts=None, components=None) -> SphereOptResult:
    """Minimize a batched scalar field over the unit sphere of R^n.

    f maps an (m, n) array of unit rows to an (m,) array.  Deterministic
    for a fixed config seed.

    When f is a pointwise maximum of smoother pieces, pass them in
    `components`: the polish stage then also solves the epigraph program
    min t s.t. piece_i(u) <= t, |u|^2 = 1, which tracks the crease where
    pieces tie far better than a direct local method.
    """
    nfev = 0

    def feval(V):
        nonlocal nfev
        nfev += V.shape[0]
        vals = np.asarray(f(V), dtype=float)
        return np.where(np.isfinite(vals), vals, np.inf)

    starts = spread_directions(n, max(cfg.restarts, 2), cfg.seed)
    if extra_starts is not None and len(extra_starts):
        starts = np.vstack([np.atleast_2d(np.asarray(extra_starts, dtype=float)), starts])
    U = _normalize_rows(np.array(starts, dtype=float))
    m = U.shape[0]
    vals = feval(U)
    best_u = U[int(np.argmin(vals))].copy()
    best_v = float(np.min(vals))

    h = FD_STEP
    steps = np.full(m, cfg.step0)
    eye = np.eye(n)
    for _ in range(cfg.iters):
        # central-difference ambient gradient of f(v/|v|) at unit rows
        plus = _normalize_rows((U[:, None, :] + h * eye[None, :, :]).reshape(-1, n))
        minus = _normalize_rows((U[:, None, :] - h * eye[None, :, :]).reshape(-1, n))
        fp = feval(plus).reshape(m, n)
        fm = feval(minus).reshape(m, n)
        grad = (fp - fm) / (2.0 * h)
        grad -= (grad * U).sum(axis=1)[:, None] * U  # tangent component
        gn = np.linalg.norm(grad, axis=1)
        gn = np.where(gn > 0, gn, 1.0)
        cand = _normalize_rows(U - (steps / gn)[:, None] * grad)
        cv = feval(cand)
        better = cv < vals
        U = np.where(better[:, None], cand, U)
        vals = np.where(better, cv, vals)
        steps = np.where(better, steps * 1.2, steps * 0.5)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v = float(vals[i])
            best_u = U[i].copy()
        if float(steps.max()) < 1e-12:
            break

    if cfg.polish:
        def fun(v):
            nrm = np.linalg.norm(v)
            if nrm < 1e-9:
                return np.inf
            return float(feval((v / nrm)[None, :])[0])

        for method, options in (("L-BFGS-B", {"maxiter": 200}),
                                ("Nelder-Mead", {"xatol": 1e-12, "fatol": 1e-14,
                                                 "maxiter": 400 * n})):
            try:
                res = _scipy_minimize(fun, best_u, method=method, options=options)
            except Exception:
                continue
            if np.all(np.isfinite(res.x)):
                u = res.x / np.linalg.norm(res.x)
                v = float(feval(u[None, :])[0])
                if v < best_v:
                    best_v, best_u = v, u

        if components is not None:
            u = _epigraph_polish(components, best_u, best_v)
            if u is not None:
                v = float(feval(u[None, :])[0])
                if v < best_v:
                    best_v, best_u = v, u

    return SphereOptResult(value=best_v, direction=best_u, nfev=nfev)


def _epigraph_polish(components, u0, t0):
    """Local solve of min t s.t. component_i(u) <= t on the sphere."""
    n = u0.shape[0]

    def piece(i):
        comp = components[i]

        def g(z):
            u = z[:n]
            nrm = np.linalg.norm(u)
            if nrm < 1e-9:
                return -1.0
            return float(z[n] - np.asarray(comp((u / nrm)[None, :]))[0])

        return g

    cons = [{"type": "ineq", "fun": piece(i)} for i in range(len(components))]
    cons.append({"type": "eq", "fun": lambda z: float(z[:n] @ z[:n] - 1.0)})
    z0 = np.concatenate([u0, [t0]])
    try:
        res = _scipy_minimize(lambda z: z[n], z0, method="SLSQP", constraints=cons,
                              options={"maxiter": 300, "ftol": 1e-14})
    except Exception:
        return None
    u = res.x[:n]
    nrm = np.linalg.norm(u)
    if not np.all(np.isfinite(u)) or nrm < 1e-9:
        return None
    return u / nrm
