"""Measurable quantities with explicit error control: sphere-neighborhood
measures of bodies, covering numbers, intersection diameters, inclusion
radii, and section diameters.

Optimization-backed quantities come from minima over the sphere of a max
of gauge or support pieces of the bodies (see pieces.Piece).  Each
quantity has one function: one rotation (n, n), or one subspace frame
(k, n), gives one result, and a stack (F, n, n) or (F, k, n) or a
sequence of them gives a list, as the body evaluators take one point or
a batch.  A batch is one piece tuple: the rotated body's pieces, mapped
by the stack of maps, carry a leading field axis, and the fixed body's
pieces are shared by every field.  The optimizer reads nothing else,
and the value it reports is the field's value at its direction.
These quantities always report a value attained at an explicit
direction, so they are certified one-sided bounds: lower bounds for the
max-type problems (diameters), upper bounds for the min-type problems
(inclusion radii).  Two-sided brackets are available on request through
a certified net and the bodies' radius-derived Lipschitz bounds.
A value that one of the optimizer's exact stages certifies is the
extremum itself to rounding, and its brackets equal it; a field that a
stage only bounds gets a bracket from the stage's bound, which a
requested net may tighten.  The notes name the stage by its
optimize.SphereOptResult.method: "exact (<method>)" or
"two-sided via <method>".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ball_points, hit_fraction, row_norms, sphere_points
from .bodies import Body, check_dims, orthonormal_frame
from .errors import DomainError, EvaluationError
from .geometry import build_net
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
    with its standard error.  The sphere points come in seeded blocks,
    drawn in chunks on a thread pool (see _util.hit_fraction), so peak
    memory does not depend on samples, and the estimate depends neither
    on the chunk size nor on the worker count: each block is one stream,
    and each point's distance is its own."""
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    return hit_fraction(
        samples, K.dim,
        lambda rng, m: np.asarray(K.distance(sphere_points(rng, m, K.dim))) <= eps, seed)


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

    rest = np.arange(pts.shape[0])  # the uncovered probes, in order
    pull = K.inner_radius
    count = 0
    norms = row_norms(pts)
    depths = (1.0, 0.85, 0.7, 0.55, 0.4, 0.25, 0.1)
    while rest.size:
        if count >= MAX_TRANSLATES:
            raise EvaluationError(f"covering exceeded {MAX_TRANSLATES} translates")
        i = rest[int(np.argmax(norms[rest]))]
        p, np_, outstanding = pts[i], norms[i], np.take(pts, rest, axis=0)
        # candidate centers pull the probe inward by a fraction of K's inner
        # radius; every candidate still covers the probe itself, and the
        # fraction covering the most outstanding probes wins
        best_hit = None
        for beta in depths:
            center = p * (max(np_ - beta * pull, 0.0) / np_) if np_ > 0 else p
            hit = np.asarray(K.contains(outstanding - center), dtype=bool)
            if best_hit is None or hit.sum() > best_hit.sum():
                best_hit = hit
        count += 1
        rest = rest[~best_hit]
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


def _frames(U, n, k=None):
    """U as an (F, k, n) stack of orthonormal frames of R^n, each one
    checked by bodies.orthonormal_frame (k = n: rotations), and whether U
    was one (k, n) frame rather than a stack or a sequence of them.  The
    frames of one batch share their k."""
    try:
        single = np.ndim(U) == 2
    except ValueError:  # a ragged sequence: its members are checked below
        single = False
    members = [orthonormal_frame(F, n, k) for F in ([U] if single else U)]
    if len({F.shape[0] for F in members}) > 1:
        raise DomainError("frames of one batch must share their dimension")
    return np.array(members), single


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
    stack, single = _frames(U, L.dim, L.dim)
    if not len(stack):
        return []
    n = K.dim
    # field t is max(g_K(u), g_L(U_t^T u)), the gauge of K intersected with U_t L
    pieces = K.gauge_pieces + map_pieces(L.gauge_pieces, stack)
    results = minimize_on_sphere_batch(pieces, n, len(stack), opt)
    truncated = K.truncated or L.truncated
    r_in = min(K.inner_radius, L.inner_radius)
    lip = 1.0 / r_in if r_in > 0 else None
    net = _bracket_net(results, n, bracket_delta, lip, opt)
    out = [_diameter(res, res.direction, select_pieces(pieces, t), truncated,
                     min(K.outer_radius, L.outer_radius), net, lip)
           for t, res in enumerate(results)]
    return out[0] if single else out


def _diameter(res, direction, field, truncated, outer, net=None, lip=None):
    """The DiameterResult 2 / res.value of a gauge field's minimum res (inf at
    most 1e-12), bracketed by the field's _certified_floor."""
    if res.value <= 1e-12:
        return DiameterResult(math.inf, direction, "unbounded direction found", truncated)
    diameter = 2.0 / res.value
    note, upper = "lower bound (attained direction)", None
    lower, how = _certified_floor(res, field, net, lip)
    if lower is not None and lower > 0:  # a positive bound on the gauge
        note, upper = how, 2.0 / lower
    if truncated and diameter >= 0.5 * outer:
        note += "; truncation active"
    return DiameterResult(diameter, direction, note, truncated, upper)


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
    stack, single = _frames(U, L.dim, L.dim)
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
    """Diameter of the section of a symmetric body by the subspace, twice the
    largest radial value inside it: a DiameterResult as diameter_of_intersection
    gives, its direction in R^n.  E is one frame (k, n), which gives one
    result, or a stack (F, k, n) or a sequence of frames of one k, which
    gives a list from one lockstep optimizer run; each equals the one-frame
    call's."""
    if not K.symmetric:
        raise DomainError("section diameter requires a symmetric body")
    stack, single = _frames(E, K.dim)
    if not len(stack):
        return []
    # field t is the gauge of K at w E_t, for w in the frame's coordinates
    pieces = map_pieces(K.gauge_pieces, stack)
    results = minimize_on_sphere_batch(pieces, stack.shape[1], len(stack), opt)
    out = [_diameter(res, res.direction @ S, select_pieces(pieces, t), K.truncated,
                     K.outer_radius) for t, (res, S) in enumerate(zip(results, stack))]
    return out[0] if single else out
