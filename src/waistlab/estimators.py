"""Measurable quantities with explicit error control: sphere-neighborhood
measures of bodies, covering numbers, intersection diameters, inclusion
radii, and section diameters.

Optimization-backed quantities always report a value attained at an
explicit direction, so they are certified one-sided bounds: lower bounds
for the max-type problems (diameters), upper bounds for the min-type
problems (inclusion radii).  Two-sided brackets are available on request
through a certified net and the bodies' radius-derived Lipschitz bounds.
A value from the optimizer's exact stage (polyhedral fields, the
0-sphere) is the extremum itself to rounding, and its brackets equal it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ball_points, bernoulli_se, rng_from, sphere_points
from .bodies import Body, Piece, linear_image, map_pieces
from .errors import DomainError, EvaluationError
from .geometry import Subspace, build_net
from .optimize import DEFAULT_OPT, OptimizerConfig, minimize_on_sphere_batch
from .optimize import minimize_on_sphere  # noqa: F401  (perfbench/test_perfbench.py reads it here)

__all__ = [
    "mc_sigma_body",
    "covering_number_upper",
    "entropy_bound",
    "DiameterResult",
    "InclusionResult",
    "diameter_of_intersection",
    "diameters_of_intersection",
    "inclusion_radius",
    "inclusion_radii",
    "section_diameter",
    "section_diameters",
]

SIGMA_BODY_BATCH = 1 << 18  # most sphere points mc_sigma_body draws at once
MAX_TRANSLATES = 100_000    # covering_number_upper gives up beyond this count


def mc_sigma_body(K: Body, eps: float, samples: int, seed=None):
    """Fraction of the unit sphere within Euclidean distance eps of the body,
    with its standard error, from SIGMA_BODY_BATCH points at a time."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    rng = rng_from(seed)
    hits = 0
    left = samples
    while left > 0:
        m = min(left, SIGMA_BODY_BATCH)
        pts = sphere_points(rng, m, K.dim)
        d = np.asarray(K.distance(pts), dtype=float)
        hits += int(np.count_nonzero(d <= eps))
        left -= m
    p = hits / samples
    return p, bernoulli_se(p, samples)


def covering_number_upper(L: Body, K: Body, *, probes: int = 20_000, seed=0) -> int:
    """Upper bound on the covering number N(L, K) by greedy placement.

    Probes sample L (interior rejection plus boundary radial points); the
    farthest uncovered probe is covered by a translate of K centered at the
    probe pulled toward the origin by K's inner radius.  The bound is
    certified up to the probe resolution (probabilistic above n = 4).
    More than MAX_TRANSLATES translates raise EvaluationError.
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
        if count >= MAX_TRANSLATES:
            raise EvaluationError(f"covering exceeded {MAX_TRANSLATES} translates")
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


class _RowMaps:
    """Per-field linear maps of row blocks, as minimize_on_sphere_batch
    hands out its fields: block V[j] (m, d) becomes V[j] @ A[idx[j]], and
    the blocks come back as one stack of rows.

    Several blocks are mapped by one broadcast matmul.  A single block is
    multiplied by its own map as given, so that it is evaluated exactly as
    one problem alone evaluates it: a one-row product takes a different
    BLAS path from a many-row one, which also depends on the memory layout
    of the map, and can differ in the last bit.
    """

    def __init__(self, maps):
        self.maps = [np.asarray(getattr(A, "matrix", A), dtype=float) for A in maps]
        self.stacked = np.stack(self.maps)

    def __call__(self, idx, V):
        if len(idx) == 1:
            return V[0] @ self.maps[idx[0]]
        return np.matmul(V, self.stacked[idx]).reshape(-1, self.stacked.shape[2])


def diameter_of_intersection(K: Body, L: Body, U, opt: OptimizerConfig = DEFAULT_OPT,
                             bracket_delta: float | None = None) -> DiameterResult:
    """Diameter of the intersection of K with the rotated copy of L:
    twice the best of min(radial_K, radial_UL) over multistart ascent.

    The returned diameter is attained at the reported direction, hence a
    certified lower bound; a two-sided bracket is added when bracket_delta
    requests a certified net and both inner radii are positive.
    """
    return _diameters(K, L, [U], opt, bracket_delta)[0]


def diameters_of_intersection(K: Body, L: Body, rotations, opt: OptimizerConfig = DEFAULT_OPT):
    """diameter_of_intersection for each rotation, in one lockstep
    optimizer run; each result equals the one-rotation call's."""
    return _diameters(K, L, list(rotations), opt, None)


def _exact_note(n):
    return "exact (convex hull)" if n > 1 else "exact (both points of the 0-sphere)"


def _diameters(K, L, rotations, opt, bracket_delta):
    if not (K.symmetric and L.symmetric):
        raise DomainError("intersection diameter requires symmetric bodies")
    if not rotations:
        return []
    images = [linear_image(L, U) for U in rotations]
    rotate = _RowMaps(rotations)
    n = K.dim

    def gauge_max(idx, V):
        return np.maximum(np.asarray(K.gauge(V.reshape(-1, n)), dtype=float),
                          np.asarray(L.gauge(rotate(idx, V)), dtype=float)).reshape(V.shape[:2])

    results = minimize_on_sphere_batch(
        gauge_max, n, len(rotations), opt,
        pieces=[K.gauge_pieces + image.gauge_pieces for image in images])
    truncated = K.truncated or L.truncated
    out = []
    for t, res in enumerate(results):
        field = np.array([t])
        gmin = float(gauge_max(field, res.direction[None, None, :])[0, 0])
        if gmin <= 1e-12:
            out.append(DiameterResult(math.inf, math.inf, res.direction,
                                      "unbounded direction found", truncated))
            continue
        diameter = 2.0 / gmin
        note = "lower bound (attained direction)"
        upper = None
        if res.stage == "exact":
            note, upper = _exact_note(n), diameter
        elif bracket_delta is not None and K.inner_radius > 0 and L.inner_radius > 0:
            net = build_net(n, bracket_delta, seed=opt.seed)
            gnet = float(gauge_max(field, net.points[None]).min())
            lip = 1.0 / min(K.inner_radius, L.inner_radius)
            chord = 2.0 * math.sin(net.delta / 2.0)
            floor = gnet - lip * chord
            if floor > 0:
                upper = 2.0 / floor
                note = f"two-sided via net (delta={net.delta:.4g}, N={net.cardinality})"
        if truncated and diameter >= 0.5 * min(K.outer_radius, L.outer_radius):
            note += "; truncation active"
        out.append(DiameterResult(diameter, diameter, res.direction, note, truncated, upper))
    return out


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
    return _inclusion_radii(K, L, [U], opt, combine, bracket_delta)[0]


def inclusion_radii(K: Body, L: Body, rotations, opt: OptimizerConfig = DEFAULT_OPT,
                    combine: str = "sum"):
    """inclusion_radius for each rotation, in one lockstep optimizer run;
    each result equals the one-rotation call's."""
    return _inclusion_radii(K, L, list(rotations), opt, combine, None)


def _inclusion_radii(K, L, rotations, opt, combine, bracket_delta):
    if combine not in ("sum", "max"):
        raise DomainError(f"combine must be 'sum' or 'max', got {combine!r}")
    if not rotations:
        return []
    images = [linear_image(L, U) for U in rotations]
    rotate = _RowMaps(rotations)
    n = K.dim
    join = np.add if combine == "sum" else np.maximum

    def objective(idx, V):
        return join(np.asarray(K.support(V.reshape(-1, n)), dtype=float),
                    np.asarray(L.support(rotate(idx, V)), dtype=float)).reshape(V.shape[:2])

    if combine == "sum":
        pieces = [(Piece("sum", parts=(K.support_pieces, image.support_pieces)),)
                  for image in images]
    else:
        pieces = [K.support_pieces + image.support_pieces for image in images]

    results = minimize_on_sphere_batch(objective, n, len(rotations), opt, pieces=pieces)
    out = []
    for t, res in enumerate(results):
        field = np.array([t])
        value = float(objective(field, res.direction[None, None, :])[0, 0])
        note = "upper bound on the minimum (attained direction)"
        lower = None
        if res.stage == "exact":
            note, lower = _exact_note(n), value
        elif (bracket_delta is not None and math.isfinite(K.outer_radius)
                and math.isfinite(L.outer_radius)):
            net = build_net(n, bracket_delta, seed=opt.seed)
            vnet = float(objective(field, net.points[None]).min())
            lip = K.outer_radius + L.outer_radius
            lower = vnet - lip * 2.0 * math.sin(net.delta / 2.0)
            note = f"two-sided via net (delta={net.delta:.4g}, N={net.cardinality})"
        out.append(InclusionResult(value, res.direction, note, combine, lower))
    return out


def section_diameter(K: Body, E: Subspace, opt: OptimizerConfig = DEFAULT_OPT) -> float:
    """Diameter of the section of a symmetric body by the subspace: twice
    the largest radial value over unit directions inside it."""
    return section_diameters(K, [E], opt)[0]


def section_diameters(K: Body, subspaces, opt: OptimizerConfig = DEFAULT_OPT) -> list:
    """section_diameter for each of a list of subspaces of one dimension,
    in one lockstep optimizer run; each value equals the one-subspace
    call's."""
    if not K.symmetric:
        raise DomainError("section diameter requires a symmetric body")
    subspaces = list(subspaces)
    for E in subspaces:
        if E.n != K.dim:
            raise DomainError(f"subspace lives in R^{E.n}, body in R^{K.dim}")
    if not subspaces:
        return []
    k = subspaces[0].k
    if any(E.k != k for E in subspaces):
        raise DomainError("subspaces of one batch must share their dimension")
    embed = _RowMaps([E.frame for E in subspaces])

    def gauge_in_section(idx, W):
        return np.asarray(K.gauge(embed(idx, W)), dtype=float).reshape(W.shape[:2])

    results = minimize_on_sphere_batch(
        gauge_in_section, k, len(subspaces), opt,
        pieces=[map_pieces(K.gauge_pieces, E.frame) for E in subspaces])
    out = []
    for t, res in enumerate(results):
        gmin = float(gauge_in_section(np.array([t]), res.direction[None, None, :])[0, 0])
        out.append(math.inf if gmin <= 1e-12 else 2.0 / gmin)
    return out
