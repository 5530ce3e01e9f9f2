"""Sphere geometry: random rotations and frames, geodesics, certified
covering nets, spherical projection, and norm-minimal waist liftings.
A rotation is a plain (n, n) orthogonal float array, and a k-dimensional
subspace of R^n is a plain (k, n) float array of orthonormal rows, its
frame; bodies.orthonormal_frame checks both.  lift_waist lifts one unit
vector of a subspace or a batch of them, in one cyclic projection, after
its hypothesis B in P K is checked by bodies.unit_ball_check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import row_norms, sphere_points
from .bodies import Body, dykstra, orthonormal_frame, unit_ball_check
from .errors import DomainError, EmptyFiberError, EvaluationError, NetConstructionError

__all__ = [
    "SphereNet",
    "canonical_frame",
    "haar_rotation",
    "haar_rotations",
    "haar_rotations_per_seed",
    "random_subspace",
    "geodesic_distance",
    "spherical_projection",
    "build_net",
    "lift_waist",
    "segment_cap_check",
]

GEODESIC_CHUNK = 1 << 15   # most points measured against a net at once
NET_PROBES = 10_000        # probes per round of a probe-certified net
NET_MAX_POINTS = 100_000   # build_net gives up beyond this cardinality
LIFT_TOL = 1e-12           # lift_waist's cyclic projection tolerance
LIFT_CAP = 50_000          # and its iteration cap, which raises


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


def random_subspace(n: int, k: int, seed=None) -> np.ndarray:
    """Uniformly distributed k-frame (k, n): the first k rows of a random
    rotation."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    return haar_rotation(n, seed)[:k]


def canonical_frame(n: int, k: int, offset: int = 0) -> np.ndarray:
    """The frame (k, n) of coordinate axes offset .. offset+k-1 of R^n."""
    if not (0 <= offset and offset + k <= n and k >= 1):
        raise DomainError(f"invalid canonical frame: n={n}, k={k}, offset={offset}")
    return np.eye(n)[offset:offset + k]


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
    nrm = row_norms(p)
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
    return pts / row_norms(pts)[:, None]


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


def _first(mask):
    """The index of the first true entry of mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def lift_waist(K: Body, P, x, *, verify_hypothesis: bool = True):
    """Norm-minimal liftings of unit vectors of a subspace into the body.

    P is the subspace's frame (k, n), and x one unit vector (n,) of the
    subspace or a batch (m, n) of them.  Returns (g, f) of x's shape: each
    row of g is the minimum-Euclidean-norm point of the fiber
    {y in K : P y = x}, and f = g/|g| lies on the unit sphere inside the
    body.  All rows are lifted by one run of cyclic corrected projections
    between the body and the fibers' affine hulls, from the origin; every
    step reads only its own row, so a row's lift equals its lift alone,
    bit for bit.  The min-norm selection is odd for symmetric bodies and
    continuous in x.  verify_hypothesis first runs unit_ball_check, once,
    which raises when it refutes that B is in P K.  A row that is
    not a unit vector of the subspace raises DomainError, and one whose
    fiber is empty EmptyFiberError, with the first such row as witness; a
    run that does not converge raises EmptyFiberError witnessed by x.
    """
    P = orthonormal_frame(P, K.dim)
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if X.ndim not in (1, 2) or X.shape[-1] != K.dim:
        raise DomainError(f"x must have shape (n,) or (m, n) with n={K.dim}, got {X.shape}")
    X = X.reshape(-1, K.dim)
    nrm = row_norms(X)
    if (i := _first(~(np.abs(nrm - 1.0) <= 1e-6))) is not None:
        raise DomainError(f"x is not unit (norm {nrm[i]})", witness=X[i])
    X = X / nrm[:, None]
    T = np.einsum("ij,kj->ik", X, P)  # the coordinates of each row in the frame
    if (i := _first(row_norms(T @ P - X) > 1e-8)) is not None:
        raise DomainError("x must lie in the subspace", witness=X[i])
    if not K.can_project:
        raise EvaluationError("lifting requires a body with a projection route")

    if verify_hypothesis:
        unit_ball_check(K, P)

    # each row carries its target coordinates t in its last k columns,
    # which neither projection moves, so dykstra's live rows keep theirs
    n = K.dim

    def proj_body(Z):
        return np.hstack([K.project(Z[:, :n]), Z[:, n:]])

    def proj_fiber(Z):
        Y, t = Z[:, :n], Z[:, n:]
        return np.hstack([Y + np.einsum("ik,kj->ij", t - np.einsum("ij,kj->ik", Y, P), P), t])

    start = np.hstack([np.zeros_like(X), T])
    try:
        G = dykstra([proj_body, proj_fiber], start, tol=LIFT_TOL, max_iter=LIFT_CAP)[:, :n]
    except EvaluationError as exc:
        raise EmptyFiberError(f"lifting failed to converge: {exc}",
                              witness=X[0] if single else X) from exc

    if (i := _first(row_norms(G @ P.T - T) > 1e-8)) is not None:
        raise EmptyFiberError("fiber over x appears empty", witness=X[i])
    gauge = np.asarray(K.gauge(G))
    if (i := _first(np.isfinite(gauge) & (gauge > 1.0 + 1e-6))) is not None:
        raise EmptyFiberError(f"lift left the body (gauge {gauge[i]:.6g})", witness=X[i])
    norms = row_norms(G)
    if (i := _first(norms < 1.0 - 1e-9)) is not None:
        raise EvaluationError(f"lift norm {norms[i]} fell below 1; projections inconsistent")
    F = G / norms[:, None]
    return (G[0], F[0]) if single else (G, F)


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
