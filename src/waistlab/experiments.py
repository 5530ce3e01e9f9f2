"""Desk-scale experiment harnesses with structured, reproducible reports.

Every harness takes an explicit seed, derives all internal randomness from
spawned child streams in a fixed layout (trial i draws its rotation from
child i), and assembles per-trial records in trial order, so a re-run
with the same seed reproduces the report bit-for-bit apart from wall
time.  The trial loops draw all rotations first and make one batched
estimator call per quantity: every trial runs in one lockstep optimizer
descent, and each trial's result equals what it gives alone.  Inequality checks always record both
sides together with their Monte-Carlo standard errors, never a bare
boolean.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace

import numpy as np

from ._util import (ball_points, bernoulli_se, block_reduce, canonical_dumps, chunk_rows,
                    quantile_summary, row_norms, seed_sequence, sphere_points, write_csv)
from .bodies import (Body, ball_factors, difference_body, linear_image, mc_volume,
                     orthonormal_frame, polar, unit_ball_check, volume_ratio)
from .errors import (DomainError, EvaluationError, HypothesisError, InfeasibleScheduleError,
                     NetConstructionError)
from .estimators import (diameter_of_intersection, inclusion_radius, mc_sigma_body,
                         section_diameter)
from .geometry import canonical_frame, haar_rotations_per_seed, lift_waist
from .measures import (DEFAULT_CONSTANTS, BoundConstants, SubsphereQuery, sigma_ball_product,
                       sigma_exact, sigma_lip_lower)
from .optimize import DEFAULT_OPT, OptimizerConfig, bracketed, minimize_on_sphere

__all__ = [
    "ScheduleParams",
    "ExperimentReport",
    "theorem_schedule",
    "run_core_lemma",
    "run_two_bodies",
    "run_sections",
    "run_higher_sphere",
    "run_projection",
    "run_global_vr",
]

MAX_NET_CENTERS = 4096  # cover_ball_with_body gives up beyond this count
SECTION_TOL = 1e-4      # slack on a declared section diameter bound
CLAIM_TOL = 1e-9        # slack on the pointwise projection claim


@dataclass(frozen=True)
class ScheduleParams:
    """Derived parameter schedule for the intersection experiment."""

    n: int
    k: int
    a_frac: float
    C1_sched: float
    c2_sched: float
    eps_K: float
    delta_K: float
    eps_L: float
    delta_L: float
    guaranteed_radius: float
    in_strict_regime: bool


def theorem_schedule(n: int, k: int, consts: BoundConstants = DEFAULT_CONSTANTS) -> ScheduleParams:
    """Compute the neighborhood-width schedule and the guaranteed inclusion
    radius 1 - delta_K - 2*delta_L; infeasible schedules raise.

    Requires a_frac * k >= 1.  a_frac values above 1/33 are accepted and
    flagged as outside the strict regime; the worked small-dimension
    configurations need them.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    a = consts.a_frac
    if a * k < 1.0:
        raise InfeasibleScheduleError(f"a_frac * k = {a * k:.6g} < 1: schedule undefined")
    eps_K = math.exp(-consts.C1_sched * n / k)
    delta_K = math.sqrt(1.0 - eps_K * eps_K * k / n)
    eps_L = math.exp(-consts.c2_sched * n / (a * k))
    delta_L = math.sqrt(eps_L * eps_L * a * k / n)
    radius = 1.0 - delta_K - 2.0 * delta_L
    if radius <= 0.0:
        raise InfeasibleScheduleError(
            f"schedule infeasible at these constants: delta_K + 2 delta_L = "
            f"{delta_K + 2 * delta_L:.6g} >= 1")
    return ScheduleParams(n=n, k=k, a_frac=a, C1_sched=consts.C1_sched,
                          c2_sched=consts.c2_sched, eps_K=eps_K, delta_K=delta_K,
                          eps_L=eps_L, delta_L=delta_L, guaranteed_radius=radius,
                          in_strict_regime=consts.a_in_strict_regime)


@dataclass
class ExperimentReport:
    """Config echo, per-trial records, and summary of one harness run."""

    name: str
    config: dict
    seed: int
    trial_columns: list
    trials: list
    summary: dict
    wall_time_s: float

    def to_json_dict(self, include_wall_time: bool = True) -> dict:
        out = {"name": self.name, "seed": self.seed, "config": self.config,
               "trial_columns": list(self.trial_columns),
               "trials": self.trials, "summary": self.summary}
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out

    def write_json(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(canonical_dumps(self.to_json_dict()) + "\n")

    def write_trials_csv(self, path) -> None:
        rows = [[row[c] for c in self.trial_columns] for row in self.trials]
        write_csv(path, list(self.trial_columns), rows)


def _body_echo(K: Body) -> dict:
    if K.spec is not None:
        return K.spec.to_json_dict()
    return {"kind": K.kind, "dim": K.dim}


def _ball_echo(status, res) -> dict:
    """The report entry of a unit-ball check's (status, result)."""
    return {"status": status, "value": res.value, "lower": res.lower, "method": res.method}


def _resolve_seed(seed) -> int:
    """Fixed seeds pass through; None draws fresh entropy, which the report
    records so the run stays reproducible."""
    if seed is None:
        return int(np.random.SeedSequence().entropy % (2**63))
    return int(seed)


def _rate(flags):
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0, 0.0
    p = float(flags.mean())
    return p, bernoulli_se(p, flags.size)


def _trial_rotations(ss, n: int, count: int) -> np.ndarray:
    """(count, n, n) rotations, trial i's drawn from child i of the seed
    sequence ss: the one trial layout of every harness."""
    return haar_rotations_per_seed(n, ss.spawn(count))


# ---------------------------------------------------------------------------
# ball covering by translates of a body (net for the core-lemma harness)
# ---------------------------------------------------------------------------


def _find_cover_center(L: Body, p, eff: float, opt: OptimizerConfig):
    n = L.dim
    np_ = float(np.linalg.norm(p))
    z0 = p / np_ if np_ > 0 else np.eye(n)[0]
    if float(L.distance(p - z0)) <= eff:
        return z0

    def objective(Z):
        return np.asarray(L.distance(p[None, :] - Z), dtype=float)

    cfg = replace(opt, restarts=min(opt.restarts, 16), iters=60)
    res = minimize_on_sphere(objective, n, cfg, extra_starts=z0[None, :])
    if res.value <= eff:
        return res.direction
    raise NetConstructionError(
        f"no sphere-centered translate covers a ball probe (best residual "
        f"{res.value:.4g} > {eff:.4g}); the body may be too small")


def cover_ball_with_body(L: Body, delta_L: float, *, probes: int = 4096, seed=None,
                         opt: OptimizerConfig = DEFAULT_OPT):
    """Sphere-centered translates of (L + delta_L-ball) covering the unit
    ball, certified by probe rounds.  Returns the (N, n) center array;
    more than MAX_NET_CENTERS centers raise NetConstructionError."""
    rng = np.random.default_rng(seed)
    n = L.dim
    eff = delta_L * (1.0 - 1e-9)

    def batch():
        return np.vstack([np.zeros((1, n)),
                          ball_points(rng, probes, n),
                          sphere_points(rng, max(probes // 4, 64), n)])

    centers: list[np.ndarray] = []

    def cover(points):
        # the uncovered probes, in order; np.take gathers their rows faster
        # than points[rest] does
        rest = np.arange(points.shape[0])
        for z in centers:
            if rest.size == 0:
                return
            d = np.asarray(L.distance(np.take(points, rest, axis=0) - z), dtype=float)
            rest = rest[d > eff]
        norms = row_norms(points)
        while rest.size:
            if len(centers) >= MAX_NET_CENTERS:
                raise NetConstructionError(f"covering exceeded {MAX_NET_CENTERS} centers")
            p = points[rest[int(np.argmax(norms[rest]))]]
            z = _find_cover_center(L, p, eff, opt)
            centers.append(z)
            d = np.asarray(L.distance(np.take(points, rest, axis=0) - z), dtype=float)
            rest = rest[d > eff]

    cover(batch())
    for _ in range(6):
        fresh = batch()
        before = len(centers)
        cover(fresh)
        if len(centers) == before:
            return np.asarray(centers)
    raise NetConstructionError("ball covering failed to stabilize after 6 rounds")


def _net_lands(K: Body, centers, rotations, tol: float):
    """Per rotation U, whether every rotated center U c lies within tol of
    K; the distances of many rotations go to K in one stack of rows."""
    per_call = chunk_rows(len(centers) * K.dim)
    ok = []
    for lo in range(0, len(rotations), per_call):
        moved = np.vstack([centers @ U.T for U in rotations[lo:lo + per_call]])
        d = np.asarray(K.distance(moved), dtype=float).reshape(-1, len(centers))
        ok.extend(d.max(axis=1) <= tol)
    return ok


def _sigma_near(K: Body, eps: float, samples: int, seed):
    """Fraction of the unit sphere within eps of K, its standard error and
    how it was obtained.  When ball_factors finds K to be a ball or an
    orthogonal image of a product of two balls, sigma has a closed form
    (d(x, ball(n, r)) = (1 - r)_+ on the sphere; the rotation-invariant
    measures.sigma_ball_product for the product) with SE 0; any other K
    draws samples sphere points."""
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    balls = ball_factors(K)
    if len(balls) == 1:
        return float(1.0 - K.outer_radius <= eps), 0.0, "exact (ball)"
    if balls:
        a, b = balls
        sigma = sigma_ball_product(a.dim, a.outer_radius, b.dim, b.outer_radius, eps)
        return sigma, 0.0, "exact (product of two balls)"
    return (*mc_sigma_body(K, eps, samples, seed=seed), "Monte Carlo")


def run_core_lemma(K: Body, L: Body, delta_K: float, delta_L: float, trials: int,
                   seed=0, *, sigma_samples: int = 200_000, net_probes: int = 4096,
                   opt: OptimizerConfig = DEFAULT_OPT) -> ExperimentReport:
    """Randomized inclusion experiment: build a net of sphere translates
    covering the unit ball through L, rotate it, check the net lands in the
    delta_K-neighborhood of K and that the combined body contains the
    guaranteed ball; compare the empirical failure rate with N*sigma.

    sigma, the fraction of the sphere farther than delta_K from K, is exact
    when K is a ball or an image of a product of two balls (ball_factors;
    `sigma_method` "exact (ball)" or "exact (product of two balls)", with
    `sigma_se` and `failure_bound_se` 0); any other K is sampled at
    sigma_samples sphere points ("Monte Carlo"), the only use of
    sigma_samples."""
    if not delta_K + delta_L < 1.0:
        raise DomainError(f"need delta_K + delta_L < 1, got {delta_K + delta_L}")
    t0 = time.perf_counter()
    seed = _resolve_seed(seed)
    n = K.dim
    columns = ["trial", "net_ok", "incl_ok", "incl_value"]
    config = {"K": _body_echo(K), "L": _body_echo(L), "n": n, "k": n,
              "delta_K": delta_K, "delta_L": delta_L, "trials": trials,
              "sigma_samples": sigma_samples, "net_probes": net_probes}
    if trials == 0:
        return ExperimentReport("core", config, seed, columns, [],
                                {"note": "no trials requested"},
                                time.perf_counter() - t0)

    ss = seed_sequence(seed)
    s_net, s_sigma, s_trials = ss.spawn(3)
    centers = cover_ball_with_body(L, delta_L, probes=net_probes, seed=s_net, opt=opt)
    N = centers.shape[0]
    sigma_in, sigma_in_se, sigma_method = _sigma_near(K, delta_K, sigma_samples, s_sigma)
    sigma_hat = 1.0 - sigma_in
    threshold = 1.0 - delta_K - delta_L

    rotations = _trial_rotations(s_trials, n, trials)
    net_ok = _net_lands(K, centers, rotations, delta_K + 1e-9)
    incl = inclusion_radius(K, L, rotations, opt=opt)
    rows = [{"trial": i, "net_ok": bool(net_ok[i]),
             "incl_ok": bool(r.value >= threshold - 1e-7), "incl_value": r.value}
            for i, r in enumerate(incl)]
    net_fail, net_fail_se = _rate([not r["net_ok"] for r in rows])
    incl_fail, incl_fail_se = _rate([not r["incl_ok"] for r in rows])
    bound = N * sigma_hat
    bound_se = N * sigma_in_se
    slack = 3.0 * math.hypot(incl_fail_se, bound_se)
    summary = {
        "net_cardinality": N,
        "sigma_hat": sigma_hat, "sigma_se": sigma_in_se, "sigma_method": sigma_method,
        "failure_bound": bound, "failure_bound_se": bound_se,
        "net_failure_rate": net_fail, "net_failure_se": net_fail_se,
        "incl_failure_rate": incl_fail, "incl_failure_se": incl_fail_se,
        "threshold": threshold,
        "slack_3se": slack,
        "bound_holds": incl_fail <= min(bound, 1.0) + slack,
        "incl_value": quantile_summary([r["incl_value"] for r in rows]),
    }
    return ExperimentReport("core", config, seed, columns, rows, summary,
                            time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# two-bodies intersection experiment
# ---------------------------------------------------------------------------


def run_two_bodies(K: Body, L: Body, n: int, k: int, *, trials: int, seed=0,
                   a_frac: float = 0.25, c_ref: float = 2.0,
                   section_K: np.ndarray | None = None,
                   section_L: np.ndarray | None = None,
                   mode: str = "primal", dual_products: bool = False,
                   section_bound: float = 1.0,
                   opt: OptimizerConfig = DEFAULT_OPT) -> ExperimentReport:
    """Random-rotation intersection experiment.

    Primal mode records diam(K intersect UL) per trial with the success
    indicator diameter <= c_ref^(n/k) and the fitted constants from the
    max and 95th-percentile diameters.  Dual mode records the inclusion
    radius of K + UL; dual_products (dual modes only) adds the polar
    intersection diameter times the hull-of-union inclusion radius, whose
    exact value is 2.  Both minimize one field, max(h_K, h_UL), so a trial
    whose radius r is certified gets the polar diameter 2 / r, and so does
    one whose bracket is within 64 n eps of r (optimize.bracketed): its
    exact stages' result is kept without a seeded descent, so a polar
    rerun would return the same result, 2 / r to the bit.  Its
    dual_product is (2 / r) r, as a certified trial's is.  Only the other
    open trials are minimized again, through the polars, with their own
    optimizer seed (opt.seed + 7919).  The hypotheses come first, with
    opt; a refuted one raises HypothesisError.  Primal: section diameters
    within section_bound + SECTION_TOL, certified if their upper brackets
    are.  Dual: B in P K and Q L (bodies.unit_ball_check).
    summary["hypothesis"] reports them.
    """
    if mode not in ("primal", "dual", "both"):
        raise DomainError(f"mode must be primal, dual, or both, got {mode!r}")
    if K.dim != n or L.dim != n:
        raise DomainError("body dimensions must equal n")
    t0 = time.perf_counter()
    seed = _resolve_seed(seed)
    ak = max(1, math.ceil(a_frac * k))
    if ak > n - 1:
        raise DomainError(f"a_frac*k rounds to {ak} > n-1")
    if section_K is None:
        section_K = canonical_frame(n, k)
    if section_L is None:
        section_L = canonical_frame(n, n - ak, offset=ak)

    _, s_trials = seed_sequence(seed).spawn(2)

    hypothesis = {}
    primal = mode in ("primal", "both")
    dual = mode in ("dual", "both")
    if dual_products and not dual:
        raise DomainError(f"dual_products needs mode dual or both, got {mode!r}")
    if primal:
        for name, body, S in (("K", K, section_K), ("L", L, section_L)):
            d = section_diameter(body, S, opt)
            if d.diameter > section_bound + SECTION_TOL:
                raise HypothesisError(f"declared {name}-section diameter {d.diameter:.6g} > "
                                      f"{section_bound:g}", witness=S)
            ok = d.upper_bracket is not None and d.upper_bracket <= section_bound + SECTION_TOL
            hypothesis[f"section_diam_{name}"] = d.diameter
            hypothesis[f"section_{name}"] = {"status": "certified" if ok else "unverified",
                                             "upper_bracket": d.upper_bracket, "note": d.note}
    if dual:
        hypothesis["ball_in_PK"] = _ball_echo(*unit_ball_check(K, section_K, opt))
        hypothesis["ball_in_QL"] = _ball_echo(*unit_ball_check(L, section_L, opt, "Q L"))

    columns = ["trial"]
    if primal:
        columns += ["diameter", "success", "truncated"]
    if dual:
        columns += ["incl_sum"]
        if dual_products:
            columns += ["incl_max", "dual_product"]

    threshold = c_ref ** (n / k)
    config = {"K": _body_echo(K), "L": _body_echo(L), "n": n, "k": k,
              "a_frac": a_frac, "ak": ak, "c_ref": c_ref, "mode": mode,
              "trials": trials, "threshold": threshold,
              "section_bound": section_bound}

    polar_pair = None
    if dual and dual_products:
        polar_pair = (polar(K), polar(L))

    rotations = _trial_rotations(s_trials, n, trials)
    rows = [{"trial": i} for i in range(trials)]
    if primal:
        for row, d in zip(rows, diameter_of_intersection(K, L, rotations, opt=opt)):
            row["diameter"] = d.diameter
            row["success"] = bool(d.diameter <= threshold)
            row["truncated"] = d.truncated
    if dual:
        for row, incl in zip(rows, inclusion_radius(K, L, rotations, opt=opt, combine="sum")):
            row["incl_sum"] = incl.value
        if dual_products:
            # the polar diameter field is the hull-of-union field, so a
            # certified or tightly bracketed radius r gives the polar diameter 2 / r
            imax = inclusion_radius(K, L, rotations, opt=opt, combine="max")
            open_trials = np.array([not bracketed(im.value, im.lower_bracket, n) for im in imax],
                                   dtype=bool)
            alt = replace(opt, seed=opt.seed + 7919)
            pd = iter(diameter_of_intersection(*polar_pair, rotations[open_trials], opt=alt))
            for row, im, is_open in zip(rows, imax, open_trials):
                row["incl_max"] = im.value
                d = next(pd).diameter if is_open else 2.0 / im.value
                row["dual_product"] = d * im.value

    summary = {"hypothesis": hypothesis, "threshold": threshold}
    if primal and rows:
        diam = np.array([r["diameter"] for r in rows])
        rate, rate_se = _rate([r["success"] for r in rows])
        q = quantile_summary(diam)
        summary["diameter"] = q
        summary["success_rate"] = rate
        summary["success_se"] = rate_se
        summary["C_fit_max"] = float(diam.max() ** (k / n)) if np.isfinite(diam.max()) else math.inf
        summary["C_fit_q95"] = float(q["q95"] ** (k / n)) if math.isfinite(q["q95"]) else math.inf
        summary["truncated_any"] = bool(any(r["truncated"] for r in rows))
    if dual and rows:
        summary["incl_sum"] = quantile_summary([r["incl_sum"] for r in rows])
        if dual_products:
            summary["dual_product"] = quantile_summary([r["dual_product"] for r in rows])
    return ExperimentReport("two-bodies", config, seed, columns, rows, summary,
                            time.perf_counter() - t0)


def run_sections(K: Body, k_exist: int, k_query: int, trials: int, seed=0, *,
                 section: np.ndarray | None = None, thresholds=(2.0, 4.0, 8.0),
                 threshold: float | None = None,
                 opt: OptimizerConfig = DEFAULT_OPT) -> ExperimentReport:
    """Random-section diameters of a symmetric body, against the diameter of
    one declared existent section."""
    t0 = time.perf_counter()
    seed = _resolve_seed(seed)
    n = K.dim
    if not (1 <= k_exist <= n and 1 <= k_query <= n):
        raise DomainError("section dimensions out of range")
    if section is None:
        section = canonical_frame(n, k_exist)
    d0 = section_diameter(K, section, opt).diameter
    if not math.isfinite(d0):
        raise HypothesisError("declared existent section is unbounded",
                              witness=section)

    columns = ["trial", "diameter", "success"]
    config = {"K": _body_echo(K), "n": n, "k": k_query, "k_exist": k_exist,
              "trials": trials, "existent_diameter": d0,
              "thresholds": list(thresholds)}

    sections = _trial_rotations(seed_sequence(seed), n, trials)[:, :k_query]
    rows = []
    for i, d in enumerate(res.diameter for res in section_diameter(K, sections, opt)):
        ok = bool(d <= threshold) if threshold is not None else bool(math.isfinite(d))
        rows.append({"trial": i, "diameter": d, "success": ok})
    diam = np.array([r["diameter"] for r in rows]) if rows else np.array([])
    summary = {"existent_diameter": d0, "diameter": quantile_summary(diam)}
    if diam.size:
        summary["normalized_diameter"] = quantile_summary(diam / d0)
        for thr in thresholds:
            p, se = _rate(diam > thr)
            summary[f"exceed_{thr:g}"] = p
            summary[f"exceed_{thr:g}_se"] = se
    return ExperimentReport("sections", config, seed, columns, rows, summary,
                            time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# cap-union neighborhood comparison across sphere dimensions
# ---------------------------------------------------------------------------


def _cap_distances(cap_spec: dict, ambient_sub: int):
    """Distance evaluators to a symmetric set on the n-sphere, whose points
    have ambient_sub = n + 1 coordinates, and the most float64 values per
    point that their intermediates hold.

    dist_native(X) takes points X of that sphere.  dist_embedded(Y, pn)
    takes points Y of a larger sphere with the norms pn of their first
    ambient_sub coordinates, which the caller computes once per chunk, and
    returns the distances of Y and of its projections Y_1..ambient_sub / pn
    onto the n-sphere (meaningless where pn is 0).  Each point's distances
    read that point's row alone.  The caps' angles are laid out
    caps-major, one row per cap, so that the min over the caps runs along
    axis 0 rather than along a short last axis."""
    def project(Y, pn):
        return Y[:, :ambient_sub] / np.where(pn > 0, pn, 1.0)[:, None]

    kind = cap_spec.get("kind")
    if kind == "subsphere":
        j = int(cap_spec["dim"])

        def dist_native(X):
            perp = row_norms(X[:, j + 1:])
            return np.arcsin(np.clip(perp, 0.0, 1.0))

        def dist_embedded(Y, pn):
            par = row_norms(Y[:, : j + 1])
            return np.arccos(np.clip(par, 0.0, 1.0)), dist_native(project(Y, pn))

        return dist_native, dist_embedded, 1

    if kind == "caps":
        C = np.atleast_2d(np.asarray(cap_spec["centers"], dtype=float))
        if C.shape[1] != ambient_sub:
            raise DomainError(f"cap centers need {ambient_sub} coordinates, got {C.shape[1]}")
        C = C / row_norms(C)[:, None]
        r = np.atleast_1d(np.asarray(cap_spec["radii"], dtype=float))
        if C.shape[0] != r.shape[0]:
            raise DomainError("radii must match the number of cap centers")
        C = np.vstack([C, -C])
        r = np.concatenate([r, r])[:, None]

        def gaps(U):
            """max(angle to each cap's center - its radius, 0), one row per cap.

            numpy multiplies a one-row matrix by BLAS gemv, which rounds
            differently from the gemm of longer chunks, so a one-row chunk
            is doubled first."""
            ang = ((U if len(U) > 1 else np.vstack([U, U])) @ C.T)[: len(U)].T.copy()
            np.clip(ang, -1.0, 1.0, out=ang)
            np.arccos(ang, out=ang)
            ang -= r
            return np.maximum(ang, 0.0, out=ang)

        def dist_native(X):
            return gaps(X).min(axis=0)

        def dist_embedded(Y, pn):
            best = gaps(project(Y, pn))
            projected = best.min(axis=0)
            np.cos(best, out=best)
            best *= pn
            np.clip(best, -1.0, 1.0, out=best)
            return np.arccos(best, out=best).min(axis=0), projected

        return dist_native, dist_embedded, C.shape[0]

    raise DomainError(f"cap_spec kind must be 'subsphere' or 'caps', got {kind!r}")


def run_higher_sphere(cap_spec: dict, n: int, m: int, theta: float, samples: int,
                      seed=0) -> ExperimentReport:
    """Compare the theta-neighborhood measure of a symmetric set on the
    n-sphere with its measure inside the m-sphere (m >= n), and check the
    pointwise projection claim sample by sample, up to CLAIM_TOL.

    The two point streams are the block streams (_util.block_reduce) of
    the seed's two spawned children, each drawn in seeded blocks of
    _util.STREAM_ROWS points on the Monte-Carlo pool, in chunks as wide as
    its points of R^{n+1} or R^{m+1}, or as its cap angles when there are
    more of them, so peak memory does not depend on samples.  The lhs
    blocks return their hit counts; the rhs blocks return their hits,
    claim samples, claim violations and largest claim gap.  Counts add
    and maxima take the max, so the summary depends on the seed and
    STREAM_ROWS only, not on the chunk size or the worker count.  Each
    point's tests read that point's row alone: its reductions run along
    the row or across the caps, and its cap angles come from a BLAS gemm
    of two rows or more, which rounds a row the same wherever it sits,
    never from a BLAS matvec (gemv), which does not.
    |Y_1..n+1| is computed once per chunk, for the embedded distance, the
    projection onto the n-sphere and the test that the projection exists."""
    if m < n:
        raise DomainError(f"need m >= n, got n={n}, m={m}")
    if not 0.0 < theta <= math.pi / 2.0:
        raise DomainError(f"theta must lie in (0, pi/2], got {theta}")
    t0 = time.perf_counter()
    seed = _resolve_seed(seed)
    dist_native, dist_embedded, width = _cap_distances(cap_spec, n + 1)

    def lhs_chunk(rng, size):
        return int(np.count_nonzero(dist_native(sphere_points(rng, size, n + 1)) <= theta))

    def rhs_chunk(rng, size):
        Y = sphere_points(rng, size, m + 1)
        pn = row_norms(Y[:, : n + 1])
        dY, projected = dist_embedded(Y, pn)
        usable = pn > 1e-12
        claim_gap = projected[usable] - dY[usable]
        return (int(np.count_nonzero(dY <= theta)), claim_gap.size,
                int(np.count_nonzero(claim_gap > CLAIM_TOL)),
                float(claim_gap.max(initial=-math.inf)))

    def rhs_combine(a, b):
        return a[0] + b[0], a[1] + b[1], a[2] + b[2], max(a[3], b[3])

    ss_lhs, ss_rhs = seed_sequence(seed).spawn(2)
    lhs_hits = block_reduce(samples, max(n + 1, width), lhs_chunk, operator.add, ss_lhs)
    rhs_hits, claim_samples, violations, max_gap = block_reduce(
        samples, max(m + 1, width), rhs_chunk, rhs_combine, ss_rhs)
    lhs, rhs = lhs_hits / samples, rhs_hits / samples
    lhs_se, rhs_se = bernoulli_se(lhs, samples), bernoulli_se(rhs, samples)

    combined_se = math.hypot(lhs_se, rhs_se)
    summary = {
        "lhs": lhs, "lhs_se": lhs_se, "rhs": rhs, "rhs_se": rhs_se,
        "inequality_holds_4se": lhs + 4.0 * combined_se >= rhs,
        "claim_samples": claim_samples,
        "claim_violations": violations,
        "claim_max_gap": max_gap if claim_samples else 0.0,
    }
    if cap_spec.get("kind") == "subsphere":
        j = int(cap_spec["dim"])
        summary["exact_lhs"] = sigma_exact(SubsphereQuery(n, j, theta))
        summary["exact_rhs"] = sigma_exact(SubsphereQuery(m, j, theta))
    config = {"cap_spec": cap_spec, "n": n, "k": m, "m": m, "theta": theta,
              "samples": samples}
    return ExperimentReport("higher-sphere", config, seed, [], [], summary,
                            time.perf_counter() - t0)


def run_projection(K: Body, P: np.ndarray, eps: float, samples: int, seed=0, *,
                   lift_checks: int = 200) -> ExperimentReport:
    """Neighborhood-measure lower bound through a projected unit ball, plus
    the lifted-waist containment checks, after bodies.unit_ball_check.  P is
    the subspace's frame (k, n); lift_checks random unit vectors x of it
    and their negatives are lifted in one lift_waist call."""
    t0 = time.perf_counter()
    seed = _resolve_seed(seed)
    P = orthonormal_frame(P, K.dim)
    n, k = K.dim, len(P)
    _, s_mc, s_lift = seed_sequence(seed).spawn(3)
    hypothesis = {"ball_in_PK": _ball_echo(*unit_ball_check(K, P))}

    lhs, lhs_se = mc_sigma_body(K, eps, samples, seed=s_mc)
    equality_ref = sigma_exact(SubsphereQuery(n - 1, k - 1, math.asin(eps)))
    rhs = sigma_lip_lower(n - 1, k - 1, math.asin(eps)) if k >= 2 else None

    rng = np.random.default_rng(s_lift)
    X = sphere_points(rng, lift_checks, k) @ P
    G, F = lift_waist(K, P, np.vstack([X, -X]), verify_hypothesis=False)
    g_pos, f_pos = G[:lift_checks], F[:lift_checks]
    gauge = np.asarray(K.gauge(f_pos))
    contained = gauge <= 1.0 + 1e-6
    if not contained.all():
        contained[~contained] = np.asarray(K.distance(f_pos[~contained])) <= 1e-6
    resid = row_norms(g_pos @ P.T @ P - X)
    lift_stats = {"count": 2 * lift_checks,
                  "max_projection_residual": float(np.max(resid, initial=0.0)),
                  "max_waist_gauge": float(np.max(gauge[np.isfinite(gauge)], initial=0.0)),
                  "odd_gap": float(np.max(np.abs(g_pos + G[lift_checks:]), initial=0.0)),
                  "waist_contained": int(contained.sum()),
                  "waist_checked": lift_checks}

    summary = {"hypothesis": hypothesis, "lhs": lhs, "lhs_se": lhs_se,
               "equality_ref": equality_ref,
               "rhs_lip_lower": rhs,
               "lift": lift_stats}
    if rhs is not None:
        summary["inequality_holds_4se"] = lhs + 4.0 * lhs_se >= rhs
    config = {"K": _body_echo(K), "n": n, "k": k, "eps": eps, "samples": samples,
              "lift_checks": lift_checks}
    return ExperimentReport("projection", config, seed, [], [], summary,
                            time.perf_counter() - t0)


def run_global_vr(K: Body, L: Body, n: int, k: int, trials: int, seed=0, *,
                  a_frac: float = 1.0 / 3.0, vol_samples: int = 200_000,
                  section_L: np.ndarray | None = None,
                  section_diff: np.ndarray | None = None,
                  opt: OptimizerConfig = DEFAULT_OPT) -> ExperimentReport:
    """Volume-ratio pipeline: measure the volume ratio, form the difference
    body, check its volume against the binomial bound, rescale its declared
    bounded section to diameter 1, and run the intersection experiment.
    A volume estimate with no hit raises EvaluationError."""
    t0 = time.perf_counter()
    seed = _resolve_seed(seed)
    if K.dim != n or L.dim != n:
        raise DomainError("body dimensions must equal n")
    ss = seed_sequence(seed)
    s_vr, s_vk, s_vk2, s_run = ss.spawn(4)

    A = volume_ratio(K, vol_samples, seed=s_vr)
    vol_K, se_K = mc_volume(K, vol_samples, seed=s_vk)
    K2 = difference_body(K)
    vol_K2, se_K2 = mc_volume(K2, vol_samples, seed=s_vk2)
    if vol_K == 0.0 or vol_K2 == 0.0:
        raise EvaluationError(f"no one of {vol_samples} volume samples hit K or K - K")
    rs_ratio = vol_K2 / vol_K
    rs_se = rs_ratio * math.hypot(se_K / vol_K, se_K2 / vol_K2)
    rs_bound = float(math.comb(2 * n, n))

    ak = max(1, math.ceil(a_frac * k))
    if section_diff is None:
        section_diff = canonical_frame(n, n - ak, offset=ak)
    d_sec = section_diameter(K2, section_diff, opt).diameter
    K2s = linear_image(K2, np.eye(n), 1.0 / d_sec)

    sub = run_two_bodies(L, K2s, n, k, trials=trials,
                         seed=int(s_run.generate_state(1)[0]),
                         a_frac=a_frac, section_K=section_L, section_L=section_diff,
                         mode="primal", opt=opt)

    diam_max = sub.summary.get("diameter", {}).get("max", math.nan)
    beta_fit = None
    if 2.0 * A > 1.0 and math.isfinite(diam_max) and diam_max > 0:
        beta_fit = math.log(diam_max) / (math.log(2.0 * A) * (n / k))

    summary = {
        "volume_ratio": A,
        "vol_K": vol_K, "vol_K_se": se_K,
        "vol_diff": vol_K2, "vol_diff_se": se_K2,
        "rs_ratio": rs_ratio, "rs_ratio_se": rs_se, "rs_bound": rs_bound,
        "rs_holds_3se": rs_ratio <= rs_bound + 3.0 * rs_se,
        "diff_section_diameter": d_sec,
        "beta_fit": beta_fit,
        "two_bodies": sub.summary,
    }
    config = {"K": _body_echo(K), "L": _body_echo(L), "n": n, "k": k,
              "a_frac": a_frac, "trials": trials, "vol_samples": vol_samples}
    return ExperimentReport("global-vr", config, seed, sub.trial_columns,
                            sub.trials, summary, time.perf_counter() - t0)
