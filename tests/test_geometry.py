import math

import numpy as np
import pytest

from waistlab._util import sphere_points
from waistlab.bodies import ball, cube, orthogonal_matrix, product_body, slab_body
from waistlab.errors import (DomainError, EmptyFiberError, HypothesisError,
                             NetConstructionError)
from waistlab.geometry import (SphereNet, Subspace, build_net,
                               geodesic_distance, haar_rotation, haar_rotations,
                               lift_waist, random_subspace, segment_cap_check,
                               spherical_projection)


# ---------------------------------------------------------------------------
# rotations and subspaces
# ---------------------------------------------------------------------------


def test_haar_orthogonality_residual():
    for n in (1, 2, 5, 12):
        U = haar_rotation(n, seed=n)
        assert U.shape == (n, n)
        assert np.max(np.abs(U.T @ U - np.eye(n))) <= 1e-10


def test_haar_determinism():
    A = haar_rotation(6, seed=42)
    B = haar_rotation(6, seed=42)
    assert np.array_equal(A, B)
    C = haar_rotation(6, seed=43)
    assert not np.array_equal(A, C)


def test_haar_first_entry_centered():
    # symmetry of the distribution: <U e1, e1> has mean zero
    qs = haar_rotations(3, 100_000, seed=1)
    vals = qs[:, 0, 0]
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean()) <= 3 * se


def test_haar_left_invariance():
    # fixed V: the statistics of <U e1, w> match those of <VU e1, w>
    n, count = 4, 60_000
    V = haar_rotation(n, seed=99)
    w = np.array([0.5, -0.5, 0.5, 0.5])
    U = haar_rotations(n, count, seed=2)
    a = U[:, :, 0] @ w
    b = (V[None, :, :] @ U)[:, :, 0] @ w
    se = math.hypot(a.std() / math.sqrt(count), b.std() / math.sqrt(count))
    assert abs(a.mean() - b.mean()) <= 3 * se
    assert abs(a.var() - b.var()) <= 3 * math.hypot(a.var(), b.var()) / math.sqrt(count) * math.sqrt(2)


def test_haar_hits_both_components():
    dets = np.linalg.det(haar_rotations(3, 400, seed=3))
    assert (dets > 0).any() and (dets < 0).any()


def test_haar_rotation_is_the_first_of_haar_rotations():
    # one draw consumes the stream of haar_rotations(n, 1), bit for bit
    for n in range(1, 13):
        assert np.array_equal(haar_rotation(n, seed=n), haar_rotations(n, 1, seed=n)[0])
    assert haar_rotation(3, seed=7)[0, 0] == float.fromhex("0x1.69452370f2000p-10")


def test_orthogonal_matrix_rejects_a_shear():
    with pytest.raises(DomainError):
        orthogonal_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]), 2)


def test_random_subspace_full_frame():
    S = random_subspace(4, 4, seed=5)
    assert np.max(np.abs(S.frame @ S.frame.T - np.eye(4))) <= 1e-10
    assert S.k == 4


def test_random_subspace_projection_moment():
    # squared projection of e1 on a random line in R^3 has mean 1/3
    count = 100_000
    frames = haar_rotations(3, count, seed=6)[:, 0, :]
    proj = frames[:, 0] ** 2
    se = proj.std() / math.sqrt(count)
    assert abs(proj.mean() - 1.0 / 3.0) <= 3 * se


def test_random_subspace_determinism_and_domain():
    A = random_subspace(5, 2, seed=8).frame
    B = random_subspace(5, 2, seed=8).frame
    assert np.array_equal(A, B)
    with pytest.raises(DomainError):
        random_subspace(3, 4, seed=0)


def test_subspace_canonical_roundtrip():
    S = Subspace.canonical(5, 2, offset=1)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(S.coords(x), [2.0, 3.0])
    assert np.allclose(S.embed([2.0, 3.0]), [0, 2.0, 3.0, 0, 0])
    assert np.allclose(S.project(x), [0, 2.0, 3.0, 0, 0])


# ---------------------------------------------------------------------------
# geodesics and spherical projection
# ---------------------------------------------------------------------------


def test_geodesic_anchors():
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert geodesic_distance(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert geodesic_distance(e1, -e1) == pytest.approx(math.pi, abs=1e-15)
    y = np.array([math.cos(0.3), math.sin(0.3), 0.0])
    assert geodesic_distance(e1, y) == pytest.approx(0.3, abs=1e-12)


def test_geodesic_rejects_zero():
    with pytest.raises(DomainError):
        geodesic_distance([0.0, 0.0], [1.0, 0.0])


def test_spherical_projection_anchors():
    x = np.array([0.6, 0.0, 0.8])
    assert np.allclose(spherical_projection(x, 2), [1.0, 0.0])
    y = np.array([0.6, 0.8, 0.0])
    assert np.allclose(spherical_projection(y, 3), y)
    with pytest.raises(DomainError):
        spherical_projection(np.array([0.0, 0.0, 1.0]), 2)


def test_spherical_projection_claim_on_cap_unions(rng):
    # paired-cap targets: projecting toward the subsphere never increases
    # the distance to a symmetric set
    n, m = 3, 6
    centers = sphere_points(rng, 3, n + 1)
    radii = rng.uniform(0.1, 0.5, size=3)
    C = np.vstack([centers, -centers])
    r = np.concatenate([radii, radii])

    def dist_to_set(P):
        ang = np.arccos(np.clip(P @ C.T, -1.0, 1.0))
        return np.maximum(ang - r[None, :], 0.0).min(axis=1)

    Y = sphere_points(rng, 100_000, m + 1)
    par = np.linalg.norm(Y[:, : n + 1], axis=1)
    keep = par > 1e-12
    Y, par = Y[keep], par[keep]
    X1 = Y[:, : n + 1] / par[:, None]
    # exact distance from a big-sphere point to each cap of the small sphere
    ang = np.arccos(np.clip(X1 @ C.T, -1.0, 1.0))
    best_inner = np.cos(np.maximum(ang - r[None, :], 0.0)) * par[:, None]
    dY = np.arccos(np.clip(best_inner, -1.0, 1.0)).min(axis=1)
    assert np.all(dist_to_set(X1) <= dY + 1e-9)


# ---------------------------------------------------------------------------
# covering nets
# ---------------------------------------------------------------------------


def test_net_circle_quarter_pi():
    net = build_net(2, math.pi / 4, seed=0)
    assert net.cardinality <= 8
    assert net.certification == "exhaustive"
    assert net.max_probe_distance <= math.pi / 4
    # exact 1-d certification oracle: sorted angular gaps
    ang = np.sort(np.arctan2(net.points[:, 1], net.points[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * math.pi]]))
    assert gaps.max() / 2 <= math.pi / 4 + 1e-12


def test_net_rejects_wide_delta():
    with pytest.raises(DomainError):
        build_net(2, math.pi, seed=0)
    with pytest.raises(DomainError):
        build_net(2, math.pi / 2, seed=0)


def test_net_s2_exhaustive_and_volumetric():
    net = build_net(3, 0.5, seed=1)
    assert net.certification == "exhaustive"
    assert net.cardinality <= (1 + 2 / math.sin(0.5)) ** 3
    probes = sphere_points(np.random.default_rng(2), 5000, 3)
    d = np.arccos(np.clip(probes @ net.points.T, -1, 1)).min(axis=1)
    assert d.max() <= 0.5


def test_net_probabilistic_above_four():
    net = build_net(5, 0.8, seed=3)
    assert net.certification == "probabilistic"
    assert net.max_probe_distance <= 0.8


def test_net_s0():
    net = build_net(1, 0.5, seed=0)
    assert net.cardinality == 2


def test_net_json_fields():
    net = build_net(2, 0.7, seed=4)
    d = net.to_json_dict()
    assert set(d) == {"delta", "cardinality", "certification",
                      "max_probe_distance", "points"}


# ---------------------------------------------------------------------------
# waist lifting
# ---------------------------------------------------------------------------


def test_lift_identity_on_ball():
    K = ball(4, 1.0)
    P = Subspace.canonical(4, 2)
    x = np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0])
    g, f = lift_waist(K, P, x)
    assert np.allclose(g, x, atol=1e-9)
    assert np.allclose(f, x, atol=1e-9)


def test_lift_cube_anchor():
    g, f = lift_waist(cube(2, 1.0), Subspace.canonical(2, 1), [1.0, 0.0])
    assert np.allclose(g, [1.0, 0.0], atol=1e-8)


def test_lift_slab_worked_case():
    K = slab_body([[1.0, 0.0], [-1.0, 1.0]], [1.0, 0.5])
    g, f = lift_waist(K, Subspace.canonical(2, 1), [1.0, 0.0])
    assert np.allclose(g, [1.0, 0.5], atol=1e-7)
    assert np.allclose(f, [2 / math.sqrt(5), 1 / math.sqrt(5)], atol=1e-7)
    assert np.allclose(f, [0.89443, 0.44721], atol=5e-6)


def test_lift_norm_at_least_one_and_waist_inside():
    K = cube(3, 1.0)
    P = Subspace.canonical(3, 2)
    rng = np.random.default_rng(20)
    for x2 in sphere_points(rng, 100, 2):
        g, f = lift_waist(K, P, P.embed(x2), verify_hypothesis=False)
        assert np.linalg.norm(g) >= 1.0 - 1e-9
        assert float(K.gauge(f)) <= 1.0 + 1e-9
        assert abs(np.linalg.norm(f) - 1.0) < 1e-12


def test_lift_oddness_exact():
    K = slab_body([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3], [-0.5, 1.0, 1.0]],
                  [1.1, 1.0, 1.3])
    P = Subspace.canonical(3, 1)
    rng = np.random.default_rng(21)
    for _ in range(20):
        s = 1.0 if rng.random() < 0.5 else -1.0
        x = np.array([s, 0.0, 0.0])
        g1, _ = lift_waist(K, P, x, verify_hypothesis=False)
        g2, _ = lift_waist(K, P, -x, verify_hypothesis=False)
        assert np.max(np.abs(g1 + g2)) < 1e-12


def test_lift_empirical_continuity_modulus():
    K = cube(3, 1.0)
    P = Subspace.canonical(3, 2)
    rng = np.random.default_rng(22)
    for _ in range(50):
        w = sphere_points(rng, 1, 2)[0]
        t = np.array([-w[1], w[0]])
        w2 = w + 1e-4 * t
        w2 /= np.linalg.norm(w2)
        g1, _ = lift_waist(K, P, P.embed(w), verify_hypothesis=False)
        g2, _ = lift_waist(K, P, P.embed(w2), verify_hypothesis=False)
        assert np.linalg.norm(g1 - g2) <= 0.1


def test_lift_hypothesis_violation():
    with pytest.raises(HypothesisError) as exc:
        lift_waist(ball(3, 0.5), Subspace.canonical(3, 2), [1.0, 0.0, 0.0])
    assert exc.value.witness is not None


def test_lift_empty_fiber_reported():
    with pytest.raises(EmptyFiberError):
        lift_waist(ball(3, 0.9), Subspace.canonical(3, 1), [1.0, 0.0, 0.0],
                   verify_hypothesis=False)


def test_lift_rejects_off_subspace_input():
    with pytest.raises(DomainError):
        lift_waist(ball(3, 1.0), Subspace.canonical(3, 1), [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# segment-cap inclusion
# ---------------------------------------------------------------------------


def test_segment_cap_planar_anchor():
    y = np.array([1.0, 0.0])
    z = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
    assert segment_cap_check(y, z, 0.5)


def test_segment_cap_same_point():
    y = np.array([0.0, 1.0, 0.0])
    assert segment_cap_check(y, y, 0.3)


def test_segment_cap_vacuous_far_point():
    y = np.array([1.0, 0.0])
    z = np.array([0.0, 1.0])
    assert segment_cap_check(y, z, 0.1)  # premise fails, vacuously true


def test_segment_cap_random_sweep(rng):
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        y = sphere_points(rng, 1, n)[0]
        eps = float(rng.uniform(0.05, 0.95))
        w = sphere_points(rng, 1, n)[0]
        w -= (w @ y) * y
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            continue
        w /= nw
        phi = float(rng.random()) * math.asin(eps)
        z = math.cos(phi) * y + math.sin(phi) * w
        assert segment_cap_check(y, z, eps)


def test_segment_cap_domain():
    with pytest.raises(DomainError):
        segment_cap_check([1.0, 0.0], [0.0, 1.0], 1.5)


def test_waist_containment_ten_thousand_samples():
    # batched form of the lifting: project every start at once through the
    # same cyclic-projection scheme lift_waist uses pointwise
    from waistlab.bodies import dykstra

    K = cube(3, 1.0)
    P = Subspace.canonical(3, 2)
    rng = np.random.default_rng(23)
    X = sphere_points(rng, 10_000, 2)
    targets = X  # coordinates in the subspace

    def proj_affine(Y):
        return Y + (targets - Y @ P.frame.T) @ P.frame

    G = dykstra([K._project_batch, proj_affine], np.zeros((10_000, 3)),
                tol=1e-11, max_iter=50_000)
    norms = np.linalg.norm(G, axis=1)
    assert np.all(norms >= 1.0 - 1e-9)
    F = G / norms[:, None]
    assert np.max(np.asarray(K.gauge(F))) <= 1.0 + 1e-9
    assert np.max(np.abs(np.asarray(P.coords(G)) - targets)) <= 1e-8
    # spot-agreement with the pointwise lifting
    for i in (0, 17, 4096):
        g, f = lift_waist(K, P, P.embed(X[i]), verify_hypothesis=False)
        assert np.allclose(g, G[i], atol=1e-7)
