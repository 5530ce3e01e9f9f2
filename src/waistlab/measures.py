"""Exact and Monte-Carlo neighborhood measures on spheres, plus closed-form bounds.

The normalized measure of the theta-neighborhood of the canonical
j-dimensional subsphere inside the m-dimensional sphere has an exact
expression: for a uniform point, the squared norm of the component
orthogonal to the subsphere's span is Beta((m-j)/2, (j+1)/2) distributed,
so the measure equals the regularized incomplete beta function at
sin^2(theta).  Everything else in this module (the measure near a product
of two balls, chi-square law, two-sided cap bounds, odd-map lower bounds,
small-ball facts) is evaluated through that function and the regularized
incomplete gamma function, both exact to well below 1e-13 absolute error,
which underwrites the 1e-12 identities asserted by the test suite.

The absolute constants appearing in the closed-form bounds are not pinned
by theory; the shipped defaults were fitted by an exhaustive sweep of the
exact measures over the verification grids (k <= 20, n <= 100,
eps in {0.01 .. 0.49}; chi-square grid k <= 20, M in {2,3,4},
eps in {0.05 .. 0.5}) and then frozen with a >= 20% safety margin:
c = 0.2 against an admissible ceiling of 0.2506 (binding case: the
chi-square upper tail at M = 2, k = 20) and C = 2.0 against an admissible
floor of 1.4843 (binding case: the chi-square small-ball upper bound at
k = 20, eps = 0.05).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, gammainc

from ._util import hit_fraction
from .errors import DomainError

__all__ = [
    "SubsphereQuery",
    "BoundConstants",
    "DEFAULT_CONSTANTS",
    "CapBounds",
    "LipBounds",
    "GaussianFactReport",
    "sigma_exact",
    "sigma_exact_array",
    "sigma_ball_product",
    "sigma_mc",
    "sigma_lip_lower",
    "cap_bounds",
    "cap_angle",
    "cap_angle_compl",
    "lip_bounds",
    "chisq_cdf",
    "gaussian_fact_check",
]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class SubsphereQuery:
    """Neighborhood query: subsphere of manifold dimension j inside the m-sphere.

    sphere_dim m >= 1 and 0 <= subsphere_dim j < m are manifold dimensions
    (the m-sphere lives in R^{m+1}); theta is the geodesic neighborhood
    radius in (0, pi/2].  theta = pi/2 is admitted as the closed boundary
    case, where the neighborhood covers the whole sphere.
    """

    sphere_dim: int
    subsphere_dim: int
    theta: float

    def __post_init__(self):
        m, j = self.sphere_dim, self.subsphere_dim
        if not (isinstance(m, (int, np.integer)) and isinstance(j, (int, np.integer))):
            raise DomainError("sphere_dim and subsphere_dim must be integers")
        if m < 1:
            raise DomainError(f"sphere_dim must be >= 1, got {m}")
        if not 0 <= j < m:
            raise DomainError(f"need 0 <= subsphere_dim < sphere_dim, got j={j}, m={m}")
        th = float(self.theta)
        if not 0.0 < th <= _HALF_PI:
            raise DomainError(f"theta must lie in (0, pi/2], got {th}")


@dataclass(frozen=True)
class BoundConstants:
    """Tunable absolute constants for the closed-form bounds and the schedule.

    c_small / C_big enter every two-sided bound in this module; the
    defaults are fitted and frozen as documented in the module docstring.
    C1_sched, c2_sched, a_frac drive the intersection-experiment parameter
    schedule.  a_frac is accepted anywhere in (0, 1); values above 1/33
    fall outside the strict regime of the underlying argument and the
    schedule records that flag.
    """

    c_small: float = 0.2
    C_big: float = 2.0
    C1_sched: float = 0.5
    c2_sched: float = 0.5
    a_frac: float = 0.25

    def __post_init__(self):
        for name in ("c_small", "C_big", "C1_sched", "c2_sched", "a_frac"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be strictly positive")
        if not self.a_frac < 1.0:
            raise DomainError(f"a_frac must lie in (0, 1), got {self.a_frac}")

    @property
    def a_in_strict_regime(self) -> bool:
        return self.a_frac <= 1.0 / 33.0


DEFAULT_CONSTANTS = BoundConstants()


def sigma_exact_array(m, j, sin_sq_theta):
    """Vectorized neighborhood measure from sin^2(theta); no domain checks."""
    m = np.asarray(m, dtype=float)
    j = np.asarray(j, dtype=float)
    x = np.asarray(sin_sq_theta, dtype=float)
    return betainc((m - j) / 2.0, (j + 1.0) / 2.0, np.clip(x, 0.0, 1.0))


def sigma_exact(q: SubsphereQuery) -> float:
    """Measure of the theta-neighborhood of a canonical subsphere.

    Equals the Beta((m-j)/2, (j+1)/2) CDF at sin^2(theta): monotone
    nondecreasing in theta and in j, nonincreasing in m, and exactly 1 at
    theta = pi/2.
    """
    s = math.sin(q.theta)
    return float(sigma_exact_array(q.sphere_dim, q.subsphere_dim, s * s))


def _far_gap(r: float, s: float, eps: float, rho: float) -> float:
    """1 - t2 for the largest t2 in [0, 1] with f(t2) <= eps^2, where
    f(t) = (sqrt(t) - r)_+^2 + (sqrt(1 - t) - s)_+^2 and eps is at least
    f's minimum (1 - rho)_+.

    Past f's minimum f grows, and eps is first reached either where only
    the first term is active, at sqrt(t) = r + eps, or where both are: on
    the quarter circle (cos phi, sin phi), t = cos^2 phi, f is then the
    squared distance to the corner (r, s), and it equals eps^2 at
    phi = atan2(s, r) - alpha with cos(alpha) = (1 + rho^2 - eps^2) / (2 rho).
    """
    a = r + eps
    if a >= 1.0:
        return 0.0
    if a * a + s * s >= 1.0:
        return (1.0 - a) * (1.0 + a)
    # 1 - cos(alpha) = 2 sin^2(alpha / 2), which keeps alpha accurate near 0
    half = math.sqrt((eps - 1.0 + rho) * (eps + 1.0 - rho) / (4.0 * rho))
    return math.sin(math.atan2(s, r) - 2.0 * math.asin(half)) ** 2


def sigma_ball_product(k: int, r: float, m: int, s: float, eps: float) -> float:
    """Fraction of the unit sphere of R^{k+m} within distance eps of the
    product ball(k, r) x ball(m, s).

    For a unit x, t = |x_{1..k}|^2 is Beta(k/2, m/2) distributed and the
    squared distance to the product is f(t) = (sqrt(t) - r)_+^2 +
    (sqrt(1 - t) - s)_+^2.  f is convex, so {f <= eps^2} is one interval
    [t1, t2] about f's minimum: 0 on [1 - s^2, r^2] when
    rho = hypot(r, s) >= 1, else (1 - rho)^2 at t = r^2 / rho^2.  The
    measure is I_{t2} - I_{t1} of the regularized incomplete beta
    function, computed as 1 minus the two tails outside the interval from
    each end's closed form (_far_gap; the t1 end is the t2 end of the
    swapped factors), so swapping the factors gives the same bits.
    Clamped to [0, 1].
    """
    if not (k >= 1 and m >= 1):
        raise DomainError(f"need factor dimensions k, m >= 1, got k={k}, m={m}")
    if not (r >= 0.0 and s >= 0.0 and eps >= 0.0):
        raise DomainError(f"need r, s, eps >= 0, got r={r}, s={s}, eps={eps}")
    rho = math.sqrt(r * r + s * s)
    if eps < 1.0 - rho:
        return 0.0
    # P(t > t2) = P(1 - t < 1 - t2), and P(t < t1) with t1 = 1 - (1 - t1)
    tails = (betainc(m / 2.0, k / 2.0, _far_gap(r, s, eps, rho))
             + betainc(k / 2.0, m / 2.0, _far_gap(s, r, eps, rho)))
    return float(min(max(1.0 - tails, 0.0), 1.0))


def sigma_mc(q: SubsphereQuery, samples: int, seed=None):
    """Monte-Carlo estimate of sigma_exact with its standard error.

    Draws Gaussian rows in R^{m+1} (uniform directions on the m-sphere)
    and tests the geodesic distance to the canonical subsphere, which is
    the arcsine of the norm of the component orthogonal to the
    subsphere's span.  Fixed seeds reproduce the estimate exactly.  The
    rows come in seeded SFC64 blocks, drawn in chunks by the caller and
    the process-wide helper pool (see _util.block_reduce), so peak memory
    does not depend on samples, and the estimate depends neither on the
    chunk size nor on the worker count: each block is one stream, tested
    row by row.  samples must be an integer >= 1 (DomainError).

    A row g hits when perp <= s^2 (perp + par), s = sin(theta), for the
    sums par and perp of its squares on and off the span, that is when
    g^2 . w <= 0 with w = -s^2 on the span's j + 1 coordinates and
    1 - s^2 on the rest.  That one contraction is an einsum, whose sum
    for each row reads that row alone; a BLAS matvec (g @ w) rounds a row
    differently by where it sits in the chunk, which would tie the
    estimate to the chunk size.
    """
    m, j = q.sphere_dim, q.subsphere_dim
    thresh = math.sin(q.theta) ** 2
    w = np.full(m + 1, 1.0 - thresh)
    w[: j + 1] = -thresh

    def hits(rng, n):
        g = rng.standard_normal((n, m + 1))
        np.multiply(g, g, out=g)
        return np.einsum("ij,j->i", g, w) <= 0.0

    return hit_fraction(samples, m + 1, hits, seed)


def sigma_lip_lower(n: int, k: int, theta: float) -> float:
    """Lower bound for the neighborhood measure of any odd continuous image
    of the k-sphere in the n-sphere, via a higher-dimensional subsphere.

    Returns sigma_exact on the (2n-k+1)-sphere with subsphere dimension
    k-1; never exceeds sigma_exact(n, k, theta).
    """
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < n, got k={k}, n={n}")
    return sigma_exact(SubsphereQuery(2 * n - k + 1, k - 1, theta))


def _check_cap_domain(n, k, eps):
    if not (isinstance(n, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise DomainError("n and k must be integers")
    if not 1 < k <= n:
        raise DomainError(f"need 1 < k <= n, got k={k}, n={n}")
    if not 0.0 < eps < 0.5:
        raise DomainError(f"need 0 < eps < 1/2, got eps={eps}")


def cap_angle(n: int, k: int, eps: float) -> float:
    """Angle arcsin(sqrt(eps^2 k / n)) of the thin-side bound."""
    _check_cap_domain(n, k, eps)
    return math.asin(math.sqrt(eps * eps * k / n))


def cap_angle_compl(n: int, k: int, eps: float) -> float:
    """Complementary angle arcsin(sqrt(1 - eps^2 k / n))."""
    _check_cap_domain(n, k, eps)
    return math.asin(math.sqrt(1.0 - eps * eps * k / n))


class CapBounds(NamedTuple):
    lower: float
    upper: float
    lower_compl: float
    upper_compl: float


def cap_bounds(n: int, k: int, eps: float, consts: BoundConstants = DEFAULT_CONSTANTS) -> CapBounds:
    """Two-sided closed-form bounds for the thin subsphere neighborhood
    at angle arcsin(sqrt(eps^2 k/n)), plus the complementary pair.

    lower = (c eps)^{2k}, upper = (C eps)^{k/2};
    lower_compl = 1 - (C eps)^{k/2}, upper_compl = 1 - (c eps)^k.
    All four values are clamped to [0, 1].  For admissible constants and
    k < n, [lower, upper] sandwiches sigma_exact(n-1, n-k-1, cap_angle).
    """
    _check_cap_domain(n, k, eps)
    c, C = consts.c_small, consts.C_big
    clamp = lambda v: min(max(v, 0.0), 1.0)
    lower = clamp((c * eps) ** (2 * k))
    upper = clamp((C * eps) ** (k / 2.0))
    return CapBounds(lower, upper, clamp(1.0 - (C * eps) ** (k / 2.0)),
                     clamp(1.0 - (c * eps) ** k))


class LipBounds(NamedTuple):
    bound_i: float
    bound_ii: float


def lip_bounds(n: int, k: int, eps: float, consts: BoundConstants = DEFAULT_CONSTANTS) -> LipBounds:
    """Closed-form lower bounds for odd-map neighborhood measures.

    bound_i = (c eps)^{8k} bounds the thin-angle measure from below;
    bound_ii = 1 - (C eps)^{k/4} bounds the wide-angle measure.  Both
    clamped to [0, 1].
    """
    _check_cap_domain(n, k, eps)
    c, C = consts.c_small, consts.C_big
    bound_i = min(max((c * eps) ** (8 * k), 0.0), 1.0)
    bound_ii = min(max(1.0 - (C * eps) ** (k / 4.0), 0.0), 1.0)
    return LipBounds(bound_i, bound_ii)


def chisq_cdf(k: int, x: float) -> float:
    """Chi-square CDF with k degrees of freedom (regularized lower gamma)."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"degrees of freedom must be a positive integer, got {k}")
    if not x >= 0:  # NaN fails it too
        raise DomainError(f"x must be nonnegative, got {x}")
    return float(gammainc(k / 2.0, x / 2.0))


@dataclass(frozen=True)
class GaussianFactReport:
    """Both sides of the squared-Gaussian-sum tail and small-ball checks."""

    k: int
    M: float
    eps: float
    tail_prob: float
    tail_bound: float
    tail_ok: bool
    smallball_prob: float
    smallball_lower: float
    smallball_upper: float
    smallball_ok: bool


def gaussian_fact_check(k: int, M: float, eps: float,
                        consts: BoundConstants = DEFAULT_CONSTANTS) -> GaussianFactReport:
    """Check the tail bound P{chi^2_k > M^2 k} <= 2 exp(-c M^2 k) and the
    small-ball sandwich (c eps)^k <= P{chi^2_k <= eps^2 k} <= (C eps)^k
    against the exact chi-square CDF."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"k must be a positive integer, got {k}")
    if M < 2:
        raise DomainError(f"tail check requires M >= 2, got {M}")
    if eps <= 0:
        raise DomainError(f"small-ball check requires eps > 0, got {eps}")
    c, C = consts.c_small, consts.C_big
    tail = 1.0 - chisq_cdf(k, M * M * k)
    tail_bound = 2.0 * math.exp(-c * M * M * k)
    small = chisq_cdf(k, eps * eps * k)
    lo, hi = (c * eps) ** k, (C * eps) ** k
    return GaussianFactReport(
        k=int(k), M=float(M), eps=float(eps),
        tail_prob=tail, tail_bound=tail_bound, tail_ok=tail <= tail_bound,
        smallball_prob=small, smallball_lower=lo, smallball_upper=hi,
        smallball_ok=lo <= small <= hi,
    )
