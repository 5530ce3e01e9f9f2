"""Measurable quantities with explicit error control: sphere-neighborhood
measures of bodies, covering numbers, intersection diameters, inclusion
radii, and section diameters.

Optimization-backed quantities always report a value attained at an
explicit direction, so they are certified one-sided bounds: lower bounds
for the max-type problems (diameters), upper bounds for the min-type
problems (inclusion radii).  Two-sided brackets are available on request
through a certified net and the bodies' radius-derived Lipschitz bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ball_points, bernoulli_se, rng_from, sphere_points
from .bodies import Body, linear_image
from .errors import DomainError, EvaluationError
from .geometry import Subspace, build_net
from .optimize import DEFAULT_OPT, OptimizerConfig, minimize_on_sphere

__all__ = [
    "mc_sigma_body",
    "covering_number_upper",
    "entropy_bound",
    "DiameterResult",
    "InclusionResult",
    "diameter_of_intersection",
    "inclusion_radius",
    "section_diameter",
]


def mc_sigma_body(K: Body, eps: float, samples: int, seed=None, batch: int = 1 << 18):
    """Fraction of the unit sphere within Euclidean distance eps of the body,
    with its standard error."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    rng = rng_from(seed)
    hits = 0
    left = samples
    while left > 0:
        m = min(left, batch)
        pts = sphere_points(rng, m, K.dim)
        d = np.asarray(K.distance(pts), dtype=float)
        hits += int(np.count_nonzero(d <= eps))
        left -= m
    p = hits / samples
    return p, bernoulli_se(p, samples)


def covering_number_upper(L: Body, K: Body, *, probes: int = 20_000, seed=0,
                          max_translates: int = 100_000) -> int:
    """Upper bound on the covering number N(L, K) by greedy placement.

    Probes sample L (interior rejection plus boundary radial points); the
    farthest uncovered probe is covered by a translate of K centered at the
    probe pulled toward the origin by K's inner radius.  The bound is
    certified up to the probe resolution (probabilistic above n = 4).
    """
    if L.dim != K.dim:
        raise DomainError(f"dimension mismatch: {L.dim} vs {K.dim}")
    if not math.isfinite(L.outer_radius):
        raise DomainError("covering requires a bounded L")
    if not K.inner_radius > 0:
        raise DomainError("covering requires K with nonempty interior")
    rng = rng_from(seed)
    n = L.dim

    cand = ball_points(rng, probes, n, L.outer_radius)
    keep = np.asarray(L.contains(cand), dtype=bool)
    interior = cand[keep]
    dirs = sphere_points(rng, max(probes // 4, 256), n)
    radial = np.asarray(L.radial(dirs), dtype=float)
    finite = np.isfinite(radial) & (radial > 0)
    boundary = dirs[finite] * radial[finite][:, None]
    pts = np.vstack([np.zeros((1, n)), interior, boundary])

    uncovered = np.ones(pts.shape[0], dtype=bool)
    pull = K.inner_radius
    count = 0
    norms = np.linalg.norm(pts, axis=1)
    depths = (1.0, 0.85, 0.7, 0.55, 0.4, 0.25, 0.1)
    while uncovered.any():
        if count >= max_translates:
            raise EvaluationError(f"covering exceeded {max_translates} translates")
        idx = np.flatnonzero(uncovered)
        i = idx[int(np.argmax(norms[idx]))]
        p = pts[i]
        np_ = norms[i]
        # candidate centers pull the probe inward by a fraction of K's inner
        # radius; every candidate still covers the probe itself, and the
        # fraction covering the most outstanding probes wins
        best_hit = None
        for beta in depths:
            center = p * (max(np_ - beta * pull, 0.0) / np_) if np_ > 0 else p
            hit = np.asarray(K.contains(pts[idx] - center), dtype=bool)
            if best_hit is None or hit.sum() > best_hit.sum():
                best_hit = hit
        count += 1
        uncovered[idx] = ~best_hit
    return count


def entropy_bound(K: Body, sigma_estimate: float) -> float:
    """2^n over the sphere measure of the body: an upper bound on the number
    of its translates needed to cover the unit ball."""
    if not 0.0 < sigma_estimate <= 1.0:
        raise DomainError(f"sigma must lie in (0, 1], got {sigma_estimate}")
    return 2.0 ** K.dim / float(sigma_estimate)


@dataclass
class DiameterResult:
    diameter: float
    certified_lower: float
    direction: np.ndarray
    note: str
    truncated: bool
    upper_bracket: float | None = None

    def __float__(self):
        return float(self.diameter)


@dataclass
class InclusionResult:
    value: float
    direction: np.ndarray
    note: str
    combine: str
    lower_bracket: float | None = None

    def __float__(self):
        return float(self.value)


def _bracket_net(n, bracket_delta, seed):
    return build_net(n, bracket_delta, seed=seed)


def diameter_of_intersection(K: Body, L: Body, U, opt: OptimizerConfig = DEFAULT_OPT,
                             bracket_delta: float | None = None) -> DiameterResult:
    """Diameter of the intersection of K with the rotated copy of L:
    twice the best of min(radial_K, radial_UL) over multistart ascent.

    The returned diameter is attained at the reported direction, hence a
    certified lower bound; a two-sided bracket is added when bracket_delta
    requests a certified net and both inner radii are positive.
    """
    if not (K.symmetric and L.symmetric):
        raise DomainError("intersection diameter requires symmetric bodies")
    Lrot = linear_image(L, U)
    n = K.dim

    def gauge_max(V):
        return np.maximum(np.asarray(K.gauge(V), dtype=float),
                          np.asarray(Lrot.gauge(V), dtype=float))

    res = minimize_on_sphere(gauge_max, n, opt,
                             components=(K.gauge, Lrot.gauge))
    gmin = float(gauge_max(res.direction[None, :])[0])
    truncated = K.truncated or L.truncated
    if gmin <= 1e-12:
        return DiameterResult(math.inf, math.inf, res.direction,
                              "unbounded direction found", truncated)
    diameter = 2.0 / gmin
    note = "lower bound (attained direction)"
    upper = None
    if bracket_delta is not None and K.inner_radius > 0 and L.inner_radius > 0:
        net = _bracket_net(n, bracket_delta, opt.seed)
        gnet = float(gauge_max(net.points).min())
        lip = 1.0 / min(K.inner_radius, L.inner_radius)
        chord = 2.0 * math.sin(net.delta / 2.0)
        floor = gnet - lip * chord
        if floor > 0:
            upper = 2.0 / floor
            note = f"two-sided via net (delta={net.delta:.4g}, N={net.cardinality})"
    if truncated and diameter >= 0.5 * min(K.outer_radius, L.outer_radius):
        note += "; truncation active"
    return DiameterResult(diameter, diameter, res.direction, note, truncated, upper)


def inclusion_radius(K: Body, L: Body, U, opt: OptimizerConfig = DEFAULT_OPT,
                     combine: str = "sum", bracket_delta: float | None = None) -> InclusionResult:
    """Largest r with the r-ball inside the combined body.

    combine="sum" minimizes h_K(u) + h_L(U^T u): the inradius of the
    Minkowski sum K + UL.  combine="max" minimizes max(h_K, h_UL): the
    inradius of the convex hull of the union, which is the exact dual of
    the intersection diameter of the polars.  Either way the value is an
    upper bound on the minimum, exact at the reported direction up to
    evaluation error; a certified lower bracket is added on request.
    """
    if combine not in ("sum", "max"):
        raise DomainError(f"combine must be 'sum' or 'max', got {combine!r}")
    Lrot = linear_image(L, U)
    n = K.dim

    components = None
    if combine == "sum":
        def objective(V):
            return np.asarray(K.support(V), dtype=float) + np.asarray(Lrot.support(V), dtype=float)
    else:
        def objective(V):
            return np.maximum(np.asarray(K.support(V), dtype=float),
                              np.asarray(Lrot.support(V), dtype=float))

        components = (K.support, Lrot.support)

    res = minimize_on_sphere(objective, n, opt, components=components)
    value = float(objective(res.direction[None, :])[0])
    note = "upper bound on the minimum (attained direction)"
    lower = None
    if bracket_delta is not None and math.isfinite(K.outer_radius) and math.isfinite(L.outer_radius):
        net = _bracket_net(n, bracket_delta, opt.seed)
        vnet = float(objective(net.points).min())
        lip = K.outer_radius + L.outer_radius
        lower = vnet - lip * 2.0 * math.sin(net.delta / 2.0)
        note = f"two-sided via net (delta={net.delta:.4g}, N={net.cardinality})"
    return InclusionResult(value, res.direction, note, combine, lower)


def section_diameter(K: Body, E: Subspace, opt: OptimizerConfig = DEFAULT_OPT) -> float:
    """Diameter of the section of a symmetric body by the subspace: twice
    the largest radial value over unit directions inside it."""
    if not K.symmetric:
        raise DomainError("section diameter requires a symmetric body")
    if E.n != K.dim:
        raise DomainError(f"subspace lives in R^{E.n}, body in R^{K.dim}")

    def gauge_in_section(W):
        return np.asarray(K.gauge(W @ E.frame), dtype=float)

    res = minimize_on_sphere(gauge_in_section, E.k, opt)
    gmin = float(gauge_in_section(res.direction[None, :])[0])
    if gmin <= 1e-12:
        return math.inf
    return 2.0 / gmin
