"""Sphere geometry: random rotations and frames, geodesics, certified
covering nets, spherical projection, and norm-minimal waist liftings.
A rotation is a plain (n, n) orthogonal float array."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import sphere_points
from .bodies import ORTHO_TOL, Body, dykstra
from .errors import (DomainError, EmptyFiberError, EvaluationError,
                     HypothesisError, NetConstructionError)

__all__ = [
    "Subspace",
    "SphereNet",
    "haar_rotation",
    "haar_rotations",
    "haar_rotations_per_seed",
    "random_subspace",
    "geodesic_distance",
    "spherical_projection",
    "build_net",
    "check_projected_ball",
    "lift_waist",
    "segment_cap_check",
]

GEODESIC_CHUNK = 1 << 15   # most points measured against a net at once
NET_PROBES = 10_000        # probes per round of a probe-certified net
NET_MAX_POINTS = 100_000   # build_net gives up beyond this cardinality
LIFT_CHECK_DIRECTIONS = 256  # directions lift_waist checks its hypothesis on
LIFT_CHECK_SEED = 0        # seed of those directions
LIFT_TOL = 1e-12           # lift_waist's cyclic projection tolerance
LIFT_CAP = 50_000          # and its iteration cap, which raises


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal k-frame whose rows span a subspace of R^n."""

    frame: np.ndarray

    @classmethod
    def from_frame(cls, rows) -> "Subspace":
        """The span of rows orthonormal to ORTHO_TOL; raises DomainError."""
        F = np.atleast_2d(np.asarray(rows, dtype=float))
        resid = float(np.max(np.abs(F @ F.T - np.eye(F.shape[0]))))
        if resid > ORTHO_TOL:
            raise DomainError(f"frame Gram residual {resid:.3e} exceeds {ORTHO_TOL}")
        return cls(F)

    @classmethod
    def canonical(cls, n: int, k: int, offset: int = 0) -> "Subspace":
        """Span of coordinate axes offset .. offset+k-1 in R^n."""
        if not (0 <= offset and offset + k <= n and k >= 1):
            raise DomainError(f"invalid canonical frame: n={n}, k={k}, offset={offset}")
        return cls(np.eye(n)[offset:offset + k])

    @property
    def k(self) -> int:
        return self.frame.shape[0]

    @property
    def n(self) -> int:
        return self.frame.shape[1]

    def coords(self, x):
        return np.asarray(x, dtype=float) @ self.frame.T

    def embed(self, w):
        return np.asarray(w, dtype=float) @ self.frame

    def project(self, x):
        return self.coords(x) @ self.frame


def haar_rotation(n: int, seed=None) -> np.ndarray:
    """Uniformly random (n, n) orthogonal matrix: the one-matrix case of
    haar_rotations, drawing the same stream.  Deterministic under a fixed
    seed."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return haar_rotations(n, 1, seed)[0]


def haar_rotations(n: int, count: int, seed=None) -> np.ndarray:
    """(count, n, n) uniformly random orthogonal matrices, the one
    construction behind haar_rotation: Gaussian matrices, QR with the
    column signs fixed by the diagonal of the triangular factor, then a
    coin per matrix flips the sign of its last column.  seed may also be
    a Generator, whose stream the draws continue."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, n, n))
    return _orthogonalize(g, rng.integers(0, 2, size=count).astype(bool))


def haar_rotations_per_seed(n: int, seeds) -> np.ndarray:
    """(len(seeds), n, n) rotations, the i-th equal to
    haar_rotation(n, seeds[i]) bit for bit: each draws its Gaussian matrix
    and coin from its own stream, and one stacked QR orthogonalizes them
    all, with the same bits as one QR per matrix."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    g = np.array([rng.standard_normal((n, n)) for rng in rngs]).reshape(len(rngs), n, n)
    flips = np.array([rng.integers(0, 2, size=1)[0] for rng in rngs], dtype=bool)
    return _orthogonalize(g, flips)


def _orthogonalize(g, flips):
    """The rotations of the Gaussian matrices g (count, n, n): the Q
    factors of their QR, with column signs fixed by the diagonal of R,
    and the last column negated where flips is true."""
    q, r = np.linalg.qr(g)
    idx = np.arange(g.shape[-1])
    d = np.sign(r[:, idx, idx])
    d = np.where(d == 0, 1.0, d)
    q = q * d[:, None, :]
    q[flips, :, -1] *= -1.0
    return q


def random_subspace(n: int, k: int, seed=None) -> Subspace:
    """Uniformly distributed k-frame: the first k rows of a random rotation."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Subspace.from_frame(haar_rotation(n, seed)[:k])


def _unitize(x, name="vector"):
    v = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-12:
        raise DomainError(f"{name} is zero")
    if abs(nrm - 1.0) > 1e-6:
        raise DomainError(f"{name} is not unit (norm {nrm})")
    return v / nrm


def geodesic_distance(x, y) -> float:
    """Great-circle distance: arccos of the clamped inner product."""
    xv = _unitize(x, "x")
    yv = _unitize(y, "y")
    return float(np.arccos(np.clip(xv @ yv, -1.0, 1.0)))


def spherical_projection(x, n_sub: int) -> np.ndarray:
    """Normalized image of x under the coordinate projection onto R^n_sub."""
    v = np.asarray(x, dtype=float)
    if not 1 <= n_sub <= v.shape[-1]:
        raise DomainError(f"target dimension {n_sub} out of range for {v.shape[-1]}")
    p = v[..., :n_sub]
    nrm = np.linalg.norm(p, axis=-1)
    if np.any(nrm <= 1e-12):
        raise DomainError("undefined projection: input orthogonal to the subspace")
    return p / nrm[..., None] if p.ndim > 1 else p / nrm


@dataclass(frozen=True, eq=False)
class SphereNet:
    """Finite point set on the unit sphere of R^n with a certified geodesic
    covering radius.  Certification is exhaustive (reference-grid) for
    n <= 4 and probe-based above that."""

    points: np.ndarray
    delta: float
    certification: str
    probe_count: int
    max_probe_distance: float

    @property
    def cardinality(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def to_json_dict(self) -> dict:
        return {"delta": self.delta, "cardinality": self.cardinality,
                "certification": self.certification,
                "max_probe_distance": self.max_probe_distance,
                "points": self.points.tolist()}


def _min_geodesic_to(points, net):
    out = np.empty(points.shape[0])
    for i in range(0, points.shape[0], GEODESIC_CHUNK):
        block = points[i:i + GEODESIC_CHUNK]
        cos = np.clip(block @ net.T, -1.0, 1.0).max(axis=1)
        out[i:i + GEODESIC_CHUNK] = np.arccos(cos)
    return out


def _angle_grid(n: int, h: float) -> np.ndarray:
    """Hyperspherical-coordinate grid on S^{n-1}; moving one angle at a time
    shows its geodesic covering radius is at most the half-sum of spacings."""
    polar = [np.arange(0.0, math.pi + h, h) for _ in range(n - 2)]
    azim = np.arange(0.0, 2.0 * math.pi, h)
    grids = np.meshgrid(*polar, azim, indexing="ij") if polar else [azim]
    angles = [g.ravel() for g in grids]
    m = angles[0].shape[0]
    pts = np.empty((m, n))
    sin_prod = np.ones(m)
    for i, a in enumerate(angles):
        pts[:, i] = sin_prod * np.cos(a)
        sin_prod = sin_prod * np.sin(a)
    pts[:, n - 1] = sin_prod
    return pts / np.linalg.norm(pts, axis=1)[:, None]


_GRID_BUDGET = 5_000_000


def build_net(n: int, delta: float, seed=None) -> SphereNet:
    """Covering net on the unit sphere of R^n by greedy farthest-point
    insertion, then certification of the covering radius by a reference
    grid (n <= 4) or by rounds of NET_PROBES random probes."""
    if not 1 <= n <= 12:
        raise DomainError(f"certified nets require 1 <= n <= 12, got {n}")
    if not 0.0 < delta < math.pi / 2.0:
        raise DomainError(f"delta must lie in (0, pi/2), got {delta}")
    if n == 1:
        pts = np.array([[1.0], [-1.0]])
        return SphereNet(pts, delta, "exhaustive", 2, 0.0)

    rng = np.random.default_rng(seed)
    target = 0.8 * delta
    pool = sphere_points(rng, max(8192, 4 * NET_PROBES), n)
    pts = [pool[0]]
    dist = np.arccos(np.clip(pool @ pool[0], -1.0, 1.0))
    while True:
        i = int(np.argmax(dist))
        if dist[i] <= target:
            break
        if len(pts) >= NET_MAX_POINTS:
            raise NetConstructionError(f"net exceeded {NET_MAX_POINTS} points before "
                                       f"reaching resolution {delta}")
        pts.append(pool[i])
        dist = np.minimum(dist, np.arccos(np.clip(pool @ pool[i], -1.0, 1.0)))

    net = np.asarray(pts)

    exhaustive = False
    if n <= 4:
        slack = 0.15 * delta
        h = 2.0 * slack / (n - 1)
        est = (math.pi / h + 1) ** (n - 2) * (2 * math.pi / h + 1)
        if est <= _GRID_BUDGET:
            exhaustive = True

    if exhaustive:
        grid = _angle_grid(n, h)
        for _ in range(8):
            d = _min_geodesic_to(grid, net)
            bad = d > delta - slack
            if not bad.any():
                return SphereNet(net, delta, "exhaustive", grid.shape[0],
                                 float(d.max() + slack))
            worst = np.argsort(d)[::-1][: max(1, int(bad.sum() // 50))]
            net = np.vstack([net, grid[worst]])
        raise NetConstructionError("exhaustive certification failed to close")

    for _ in range(8):
        fresh = sphere_points(rng, NET_PROBES, n)
        d = _min_geodesic_to(fresh, net)
        bad = d > delta
        if not bad.any():
            return SphereNet(net, delta, "probabilistic", NET_PROBES, float(d.max()))
        net = np.vstack([net, fresh[bad]])
    raise NetConstructionError("probe certification failed to close after 8 rounds")


def check_projected_ball(K: Body, P: Subspace, samples: int, rng, what: str = "P K") -> None:
    """Check that the projection of the body onto the subspace contains its
    unit ball: the support of K must be at least 1 - 1e-9 at samples
    random unit directions of P drawn from rng.  Raises HypothesisError,
    labelled by what, with the worst direction as its witness."""
    dirs = sphere_points(rng, samples, P.k)
    supp = np.asarray(K.support(P.embed(dirs)), dtype=float)
    i = int(np.argmin(supp))
    if supp[i] < 1.0 - 1e-9:
        raise HypothesisError(f"{what}: projected body does not contain the unit "
                              f"ball (support {supp[i]:.6g} < 1)",
                              witness=P.embed(dirs[i]))


def lift_waist(K: Body, P: Subspace, x, *, verify_hypothesis: bool = True):
    """Norm-minimal lifting of a unit vector of a subspace into the body.

    Returns (g, f): g is the minimum-Euclidean-norm point of the fiber
    {y in K : P y = x}, found by cyclic corrected projections between the
    body and the fiber's affine hull from the origin; f = g/|g| lies on
    the unit sphere inside the body.  The min-norm selection is odd for
    symmetric bodies and continuous in x.  verify_hypothesis first checks
    at LIFT_CHECK_DIRECTIONS directions that P K contains the unit ball
    (see check_projected_ball).
    """
    if P.n != K.dim:
        raise DomainError(f"subspace lives in R^{P.n}, body in R^{K.dim}")
    xv = _unitize(x, "x")
    if float(np.linalg.norm(P.project(xv) - xv)) > 1e-8:
        raise DomainError("x must lie in the subspace")
    if not K.can_project:
        raise EvaluationError("lifting requires a body with a projection route")

    if verify_hypothesis:
        check_projected_ball(K, P, LIFT_CHECK_DIRECTIONS, np.random.default_rng(LIFT_CHECK_SEED))

    target = P.coords(xv)

    def proj_affine(Y):
        return Y + (target[None, :] - Y @ P.frame.T) @ P.frame

    start = np.zeros((1, K.dim))
    try:
        g = dykstra([K._project_batch, proj_affine], start,
                    tol=LIFT_TOL, max_iter=LIFT_CAP)[0]
    except EvaluationError as exc:
        raise EmptyFiberError(f"lifting failed to converge: {exc}", witness=xv) from exc

    if float(np.linalg.norm(P.coords(g) - target)) > 1e-8:
        raise EmptyFiberError("fiber over x appears empty", witness=xv)
    gauge = float(K.gauge(g))
    if math.isfinite(gauge) and gauge > 1.0 + 1e-6:
        raise EmptyFiberError(f"lift left the body (gauge {gauge:.6g})", witness=xv)
    nrm = float(np.linalg.norm(g))
    if nrm < 1.0 - 1e-9:
        raise EvaluationError(f"lift norm {nrm} fell below 1; projections inconsistent")
    return g, g / nrm


def segment_cap_check(y, z, eps: float) -> bool:
    """Whenever z lies within geodesic distance arcsin(eps) of y, its
    Euclidean distance to the segment [-y, y] must be at most eps; the
    check is vacuously true otherwise.  Comparison carries a 1e-12
    absolute float guard on a closed inequality."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    yv = _unitize(y, "y")
    zv = _unitize(z, "z")
    if geodesic_distance(yv, zv) > math.asin(eps):
        return True
    t = float(np.clip(zv @ yv, -1.0, 1.0))
    return float(np.linalg.norm(zv - t * yv)) <= eps + 1e-12
