"""Measurable quantities with explicit error control: sphere-neighborhood
measures of bodies, covering numbers, intersection diameters, inclusion
radii, and section diameters.

Optimization-backed quantities come from minima over the sphere of a max
of gauge or support pieces of the bodies (see pieces.Piece).  Each
quantity has one function: one rotation (n, n) or subspace gives one
result, and a stack (F, n, n) or a sequence of them gives a list, as the
body evaluators take one point or a batch.  A batch is one piece tuple:
the rotated body's pieces, mapped by the stack of maps, carry a leading
field axis, and the fixed body's pieces are shared by every field.  The
optimizer reads nothing else, and the value it reports is the field's
value at its direction.
These quantities always report a value attained at an explicit
direction, so they are certified one-sided bounds: lower bounds for the
max-type problems (diameters), upper bounds for the min-type problems
(inclusion radii).  Two-sided brackets are available on request through
a certified net and the bodies' radius-derived Lipschitz bounds.
A value from the optimizer's exact stage (polyhedral fields, Minkowski
sums of zonotopes and spanning +- pairs answered by their facets, maxima
of Euclidean norms that the S-lemma dual certifies, Euclidean norms
beside facets that the cutting planes certify, sums of two Euclidean
norms that the Cauchy-Schwarz stage certifies, the 0-sphere) is the
extremum itself to rounding, and its brackets equal it.  A field that
one of those stages bounds without certifying it still gets a bracket
from the stage's bound, which a requested net may tighten.  The notes name the
stage as the optimizer reports it in SphereOptResult.method:
"exact (<method>)" or "two-sided via <method>".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ball_points, chunk_rows, hit_fraction, sphere_points
from .bodies import Body, check_dims, orthogonal_matrix
from .errors import DomainError, EvaluationError
from .geometry import Subspace, build_net
from .optimize import DEFAULT_OPT, OptimizerConfig, minimize_on_sphere_batch
from .optimize import minimize_on_sphere  # noqa: F401  (perfbench/test_perfbench.py reads it here)
from .pieces import map_pieces, max_of, select_pieces, sum_pieces

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

MAX_TRANSLATES = 100_000    # covering_number_upper gives up beyond this count


def mc_sigma_body(K: Body, eps: float, samples: int, seed=None):
    """Fraction of the unit sphere within Euclidean distance eps of the body,
    with its standard error.  The sphere points come in chunks of
    _util.chunk_rows(K.dim), so peak memory does not depend on samples,
    and the estimate does not depend on the chunk size: the points are
    one stream, and each one's distance is its own."""
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    rng = np.random.default_rng(seed)
    return hit_fraction(samples, chunk_rows(K.dim),
                        lambda m: np.asarray(K.distance(sphere_points(rng, m, K.dim))) <= eps)


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
    rng = np.random.default_rng(seed)
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


def _rotations(L, U):
    """U as an (F, n, n) stack of orthogonal maps of L's space, each one
    checked, and whether U was one (n, n) rotation rather than a stack or
    a sequence of them."""
    try:
        single = np.ndim(U) == 2
    except ValueError:  # a ragged sequence: its members are checked below
        single = False
    n = L.dim
    members = [U] if single else U
    return np.array([orthogonal_matrix(Q, n) for Q in members]).reshape(-1, n, n), single


def _certified_floor(res, field, net, lip):
    """The best certified lower bound on the field's minimum over the
    sphere, with its note, or (None, None) when there is none: the exact
    value; else the stage's lower; else, or when larger, the least field
    value over the net (None: no bracket asked) less the field's Lipschitz
    constant lip times the net's largest chord."""
    if res.stage == "exact":
        return res.value, f"exact ({res.method})"
    lower, note = res.lower, None if res.lower is None else f"two-sided via {res.method}"
    if net is not None:
        floor = float(max_of(field, net.points).min()) - lip * 2.0 * math.sin(net.delta / 2.0)
        if lower is None or floor > lower:
            lower, note = floor, f"two-sided via net (delta={net.delta:.4g}, N={net.cardinality})"
    return lower, note


def _bracket_net(results, n, bracket_delta, lip, opt):
    """The certified net of the brackets, built once for all fields; None
    without bracket_delta, a Lipschitz constant lip or an inexact field."""
    if bracket_delta is None or lip is None or all(res.stage == "exact" for res in results):
        return None
    return build_net(n, bracket_delta, seed=opt.seed)


def diameter_of_intersection(K: Body, L: Body, U, opt: OptimizerConfig = DEFAULT_OPT,
                             bracket_delta: float | None = None):
    """Diameter of the intersection of K with the rotated copy of L:
    twice the best of min(radial_K, radial_UL) over multistart ascent.

    U is one rotation (n, n), which gives one DiameterResult, or a stack
    (F, n, n) or a sequence of rotations, which gives a list of them from
    one lockstep optimizer run; each equals the one-rotation call's.
    The returned diameter is attained at the reported direction, hence a
    certified lower bound; a two-sided bracket is added when bracket_delta
    requests a certified net and both inner radii are positive.
    """
    check_dims(K, L)
    if not (K.symmetric and L.symmetric):
        raise DomainError("intersection diameter requires symmetric bodies")
    stack, single = _rotations(L, U)
    if not len(stack):
        return []
    n = K.dim
    # field t is max(g_K(u), g_L(U_t^T u)), the gauge of K intersected with U_t L
    pieces = K.gauge_pieces + map_pieces(L.gauge_pieces, stack)
    results = minimize_on_sphere_batch(pieces, n, len(stack), opt)
    truncated = K.truncated or L.truncated
    lip = None
    if K.inner_radius > 0 and L.inner_radius > 0:
        lip = 1.0 / min(K.inner_radius, L.inner_radius)
    net = _bracket_net(results, n, bracket_delta, lip, opt)
    out = []
    for t, res in enumerate(results):
        gmin = res.value
        if gmin <= 1e-12:
            out.append(DiameterResult(math.inf, res.direction,
                                      "unbounded direction found", truncated))
            continue
        diameter = 2.0 / gmin
        note, upper = "lower bound (attained direction)", None
        lower, how = _certified_floor(res, select_pieces(pieces, t), net, lip)
        if lower is not None and lower > 0:  # a positive bound on the gauge
            note, upper = how, 2.0 / lower
        if truncated and diameter >= 0.5 * min(K.outer_radius, L.outer_radius):
            note += "; truncation active"
        out.append(DiameterResult(diameter, res.direction, note, truncated, upper))
    return out[0] if single else out


def inclusion_radius(K: Body, L: Body, U, opt: OptimizerConfig = DEFAULT_OPT,
                     combine: str = "sum", bracket_delta: float | None = None):
    """Largest r with the r-ball inside the combined body.

    combine="sum" minimizes h_K(u) + h_L(U^T u): the inradius of the
    Minkowski sum K + UL.  combine="max" minimizes max(h_K, h_UL): the
    inradius of the convex hull of the union, which is the exact dual of
    the intersection diameter of the polars.  Either way the value is an
    upper bound on the minimum, exact at the reported direction up to
    evaluation error; a certified lower bracket is added on request.
    U is one rotation or a stack or sequence of them, as for
    diameter_of_intersection, with one InclusionResult or a list.
    """
    check_dims(K, L)
    if combine not in ("sum", "max"):
        raise DomainError(f"combine must be 'sum' or 'max', got {combine!r}")
    stack, single = _rotations(L, U)
    if not len(stack):
        return []
    n = K.dim
    # field t joins h_K(u) and h_L(U_t^T u), the support of U_t L
    images = map_pieces(L.support_pieces, stack)
    if combine == "sum":
        pieces = sum_pieces((K.support_pieces, images))
    else:
        pieces = K.support_pieces + images
    results = minimize_on_sphere_batch(pieces, n, len(stack), opt)
    lip = None
    if math.isfinite(K.outer_radius) and math.isfinite(L.outer_radius):
        lip = K.outer_radius + L.outer_radius
    net = _bracket_net(results, n, bracket_delta, lip, opt)
    out = []
    for t, res in enumerate(results):
        lower, note = _certified_floor(res, select_pieces(pieces, t), net, lip)
        if note is None:
            note = "upper bound on the minimum (attained direction)"
        out.append(InclusionResult(res.value, res.direction, note, combine, lower))
    return out[0] if single else out


def section_diameter(K: Body, E, opt: OptimizerConfig = DEFAULT_OPT):
    """Diameter of the section of a symmetric body by the subspace: twice
    the largest radial value over unit directions inside it.  E is one
    Subspace, which gives one float, or a sequence of subspaces of one
    dimension, which gives a list from one lockstep optimizer run; each
    value equals the one-subspace call's."""
    if not K.symmetric:
        raise DomainError("section diameter requires a symmetric body")
    single = isinstance(E, Subspace)
    subspaces = [E] if single else list(E)
    for S in subspaces:
        if S.n != K.dim:
            raise DomainError(f"subspace lives in R^{S.n}, body in R^{K.dim}")
    if not subspaces:
        return []
    k = subspaces[0].k
    if any(S.k != k for S in subspaces):
        raise DomainError("subspaces of one batch must share their dimension")
    # field t is the gauge of K at w E_t, for w in the frame's coordinates
    pieces = map_pieces(K.gauge_pieces, np.stack([S.frame for S in subspaces]))
    results = minimize_on_sphere_batch(pieces, k, len(subspaces), opt)
    out = [math.inf if res.value <= 1e-12 else 2.0 / res.value for res in results]
    return out[0] if single else out
