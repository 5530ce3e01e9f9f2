"""Built-in invariant battery behind the command-line `verify` subcommand.

Each check recomputes an identity, bound, or contract from scratch and
raises AssertionError with a diagnostic on failure.  `run_all` never stops
at the first failure; the CLI prints one line per check and exits nonzero
if any failed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bodies, estimators, experiments, geometry, measures
from ._util import sphere_points
from .errors import InfeasibleScheduleError
from .measures import SubsphereQuery
from .optimize import OptimizerConfig


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _check_anchors(fast):
    q = SubsphereQuery(2, 1, math.pi / 6)
    v = measures.sigma_exact(q)
    assert abs(v - 0.5) < 1e-12, f"band anchor {v}"
    v = measures.sigma_exact(SubsphereQuery(1, 0, math.pi / 4))
    assert abs(v - 0.5) < 1e-12, f"arc anchor {v}"
    v = measures.sigma_exact(SubsphereQuery(5, 4, math.pi / 2))
    assert abs(v - 1.0) < 1e-15, f"full-sphere anchor {v}"
    v = measures.chisq_cdf(2, 2.0)
    assert abs(v - (1.0 - math.exp(-1.0))) < 1e-12, f"chi-square anchor {v}"
    v = measures.sigma_lip_lower(3, 2, math.pi / 6)
    assert abs(v - 0.0625) < 1e-12, f"odd-map bound anchor {v}"
    return "five closed-form anchors at 1e-12"


def _check_complement(fast):
    m_max = 24 if fast else 60
    thetas = np.linspace(0.02, math.pi / 2 - 0.02, 9 if fast else 25)
    worst = 0.0
    for m in range(2, m_max + 1):
        j = np.arange(0, m)
        for th in thetas:
            a = measures.sigma_exact_array(m, j, math.sin(th) ** 2)
            b = measures.sigma_exact_array(m, m - j - 1, math.sin(math.pi / 2 - th) ** 2)
            worst = max(worst, float(np.max(np.abs(a + b - 1.0))))
    assert worst < 1e-12, f"complement identity residual {worst}"
    return f"max residual {worst:.2e} over m <= {m_max}"


def _check_monotonicity(fast):
    rng = np.random.default_rng(11)
    for _ in range(200 if fast else 1000):
        m = int(rng.integers(2, 40))
        j = int(rng.integers(0, m))
        th = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        v = measures.sigma_exact(SubsphereQuery(m, j, th))
        v_th = measures.sigma_exact(SubsphereQuery(m, j, min(th + 0.05, math.pi / 2)))
        assert v_th >= v - 1e-14, "theta monotonicity"
        if j + 1 < m:
            assert measures.sigma_exact(SubsphereQuery(m, j + 1, th)) >= v - 1e-14, "j monotonicity"
        assert measures.sigma_exact(SubsphereQuery(m + 1, j, th)) <= v + 1e-14, "m monotonicity"
    return "theta/j nondecreasing, m nonincreasing on random triples"


def _check_mc_measure(fast):
    pts = [(2, 1, math.pi / 6), (6, 2, 0.7), (12, 5, 0.5)]
    samples = 100_000 if fast else 400_000
    for i, (m, j, th) in enumerate(pts):
        q = SubsphereQuery(m, j, th)
        est, se = measures.sigma_mc(q, samples, seed=100 + i)
        ex = measures.sigma_exact(q)
        assert abs(est - ex) <= 4 * max(se, 1e-9), f"MC {est} vs exact {ex} at {(m, j, th)}"
    return f"{len(pts)} grid points within 4 SE at {samples} samples"


def _check_cap_sandwich(fast):
    eps = np.array([0.01 + 0.04 * t for t in range(13)])
    ks = range(2, 21, 3 if fast else 1)
    for k in ks:
        ns = range(k + 1, 101, 7 if fast else 1)
        for n in ns:
            x = eps * eps * k / n
            s = measures.sigma_exact_array(n - 1, n - k - 1, x)
            for e, sv in zip(eps, s):
                b = measures.cap_bounds(n, k, float(e))
                assert b.lower <= sv <= b.upper, f"sandwich broke at n={n}, k={k}, eps={e}"
                assert b.lower_compl <= 1.0 - sv <= b.upper_compl, \
                    f"complement sandwich broke at n={n}, k={k}, eps={e}"
    return "frozen constants sandwich every grid point"


def _check_lip_consistency(fast):
    eps = np.array([0.01 + 0.04 * t for t in range(13)])
    for k in range(2, 21, 3 if fast else 1):
        for n in range(k + 2, 101, 7 if fast else 2):
            for e in eps:
                th = measures.cap_angle(n, k, float(e))
                b = measures.lip_bounds(n, k, float(e))
                lo = measures.sigma_lip_lower(n - 1, n - k - 1, th)
                assert b.bound_i <= lo + 1e-15, f"bound_i broke at n={n}, k={k}, eps={e}"
    rng = np.random.default_rng(5)
    for _ in range(100 if fast else 400):
        n = int(rng.integers(3, 51))
        k = int(rng.integers(1, n))
        th = float(rng.uniform(0.05, math.pi / 2))
        assert measures.sigma_lip_lower(n, k, th) <= measures.sigma_exact(
            SubsphereQuery(n, k, th)) + 1e-13, "relaxed bound exceeded the subsphere value"
    return "odd-map bounds consistent with exact measures"


def _check_gaussian_facts(fast):
    for k in range(1, 21):
        for M in (2.0, 3.0, 4.0):
            for e in np.arange(0.05, 0.501, 0.05):
                rep = measures.gaussian_fact_check(k, M, float(e))
                assert rep.tail_ok, f"tail bound broke at k={k}, M={M}"
                assert rep.smallball_ok, f"small-ball bounds broke at k={k}, eps={e}"
    return "tail and small-ball checks pass at frozen constants"


def _check_bodies(fast):
    rng = np.random.default_rng(7)
    catalog = [bodies.ball(3, 1.5), bodies.cube(3, 0.8), bodies.cross_polytope(3, 1.2),
               bodies.ellipsoid([1.0, 2.0, 0.5]),
               bodies.slab_body(np.eye(2), [1.0, 0.7]),
               bodies.vertex_polytope([[1, 1], [-1, 1], [1, -1], [-1, -1], [1.5, 0], [-1.5, 0]])]
    for K in catalog:
        u = sphere_points(rng, 200, K.dim)
        r = np.asarray(K.radial(u), dtype=float)
        ok = np.isfinite(r) & (r > 0)
        g = np.asarray(K.gauge(u[ok] * r[ok][:, None]), dtype=float)
        assert np.max(np.abs(g - 1.0)) < 1e-9, f"radial/gauge roundtrip broke for {K.kind}"
        inside = np.asarray(K.contains(u[ok] * (r[ok] * (1 - 1e-6))[:, None]))
        outside = np.asarray(K.contains(u[ok] * (r[ok] * (1 + 1e-6))[:, None]))
        assert inside.all() and not outside.any(), f"membership flip broke for {K.kind}"
        assert np.all(r[ok] >= K.inner_radius - 1e-9) and np.all(r[ok] <= K.outer_radius + 1e-9)
    return f"{len(catalog)} catalog bodies: roundtrip, flip, radius bounds"


def _check_combinators(fast):
    rng = np.random.default_rng(8)
    K = bodies.cube(3, 1.0)
    L = bodies.ellipsoid([1.0, 0.5, 2.0])
    S = bodies.minkowski_sum(K, bodies.cross_polytope(3, 0.7))
    u = sphere_points(rng, 100, 3)
    hs = np.asarray(S.support(u))
    hk = np.asarray(K.support(u)) + np.asarray(bodies.cross_polytope(3, 0.7).support(u))
    assert np.max(np.abs(hs - hk)) < 1e-12, "support additivity broke"
    th = math.pi / 5
    R = np.array([[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1.0]])
    KR = bodies.linear_image(K, R)
    assert np.max(np.abs(np.asarray(KR.support(u)) - np.asarray(K.support(u @ R)))) < 1e-12
    PP = bodies.polar(bodies.polar(L))
    x = sphere_points(rng, 100, 3) * 1.7
    assert np.max(np.abs(np.asarray(PP.gauge(x)) - np.asarray(L.gauge(x)))) < 1e-10, "polar involution"
    D = bodies.difference_body(bodies.ball(4, 1.0))
    assert abs(float(D.support(np.eye(4)[0])) - 2.0) < 1e-12, "difference of the ball"
    return "sum, rotation, polar involution, difference body"


def _check_volumes(fast):
    samples = 100_000 if fast else 400_000
    vol, se = bodies.mc_volume(bodies.ball(3, 1.0), samples, seed=3)
    ref = 4.0 * math.pi / 3.0
    assert abs(vol - ref) <= max(3 * se, 1e-9), f"ball volume {vol} vs {ref}"
    A = bodies.volume_ratio(bodies.cube(2, 1.0), samples, seed=4)
    refA = math.sqrt(4.0 / math.pi)
    assert abs(A - refA) < 0.01, f"volume ratio {A} vs {refA}"
    tri = bodies.vertex_polytope([[0, 0], [1, 0], [0, 1]])
    diff = bodies.difference_body(tri)
    v1, se1 = bodies.mc_volume(tri, samples, seed=5)
    v2, se2 = bodies.mc_volume(diff, samples, seed=6)
    ratio = v2 / v1
    slack = 3 * ratio * math.hypot(se1 / v1, se2 / v2)
    assert abs(ratio - 6.0) <= slack + 0.05, f"simplex difference ratio {ratio}"
    return f"ball/cube/simplex volume anchors at {samples} samples"


def _check_rotations(fast):
    U = bodies.orthonormal_frame(geometry.haar_rotation(6, seed=0), 6, 6)
    assert np.array_equal(U, geometry.haar_rotation(6, seed=0)), "determinism broke"
    count = 20_000 if fast else 100_000
    qs = geometry.haar_rotations(3, count, seed=1)
    first = qs[:, 0, 0]
    se = first.std() / math.sqrt(count)
    assert abs(first.mean()) <= 4 * se, f"Haar mean {first.mean()} vs SE {se}"
    frames = geometry.haar_rotations(3, count, seed=2)[:, :1, :]
    proj = (frames[:, 0, 0]) ** 2
    se = proj.std() / math.sqrt(count)
    assert abs(proj.mean() - 1.0 / 3.0) <= 4 * se, "frame projection moment"
    return f"orthogonality, determinism, two moment checks at {count} samples"


def _check_nets(fast):
    net = geometry.build_net(2, math.pi / 4, seed=0)
    assert net.cardinality <= 8, f"circle net used {net.cardinality} points"
    assert net.certification == "exhaustive"
    net3 = geometry.build_net(3, 0.6, seed=0)
    assert net3.certification == "exhaustive"
    assert net3.cardinality <= (1 + 2 / math.sin(0.6)) ** 3
    return f"circle net N={net.cardinality}, sphere net N={net3.cardinality}"


def _check_segment_property(fast):
    rng = np.random.default_rng(13)
    count = 20_000 if fast else 100_000
    for _ in range(count):
        n = int(rng.integers(2, 6))
        y = sphere_points(rng, 1, n)[0]
        eps = float(rng.uniform(0.05, 0.95))
        w = sphere_points(rng, 1, n)[0]
        w -= (w @ y) * y
        wn = np.linalg.norm(w)
        if wn < 1e-12:
            continue
        w /= wn
        phi = float(rng.uniform(0.0, 1.0)) * math.asin(eps)
        z = math.cos(phi) * y + math.sin(phi) * w
        assert geometry.segment_cap_check(y, z, eps), f"segment property broke at eps={eps}"
    return f"{count} random valid triples, zero violations"


def _check_lifting(fast):
    K = bodies.cube(2, 1.0)
    P = geometry.canonical_frame(2, 1)
    g, f = geometry.lift_waist(K, P, [1.0, 0.0])
    assert np.allclose(g, [1.0, 0.0], atol=1e-8), f"cube lift {g}"
    K2 = bodies.slab_body([[1.0, 0.0], [-1.0, 1.0]], [1.0, 0.5])
    g, f = geometry.lift_waist(K2, P, [1.0, 0.0])
    assert np.allclose(g, [1.0, 0.5], atol=1e-7), f"slab lift {g}"
    assert np.allclose(f, [0.89443, 0.44721], atol=1e-4)
    return "minimum-norm fiber points match the worked cases"


def _check_body_measure(fast):
    seg = bodies.product_body(bodies.cube(1, 1.0), bodies.ball(2, 0.0))
    samples = 100_000 if fast else 400_000
    est, se = estimators.mc_sigma_body(seg, 0.5, samples, seed=21)
    ref = 1.0 - math.cos(math.pi / 6)
    assert abs(est - ref) <= 4 * max(se, 1e-9), f"two-cap anchor {est} vs {ref}"
    return f"two-cap anchor within 4 SE at {samples} samples"


def _check_covering(fast):
    D2 = bodies.ball(2, 1.0)
    assert estimators.covering_number_upper(D2, D2, probes=4000, seed=0) == 1
    n1 = estimators.covering_number_upper(bodies.cube(1, 1.0), bodies.cube(1, 0.5),
                                          probes=2000, seed=0)
    assert n1 == 2, f"interval covering {n1}"
    n2 = estimators.covering_number_upper(D2, bodies.ball(2, 0.5), probes=4000, seed=0)
    assert n2 <= 25, f"half-disk covering {n2}"
    slab = bodies.slab_body(np.eye(4)[:1], [0.4])
    sig, se = estimators.mc_sigma_body(slab, 0.0, 50_000, seed=2)
    N = estimators.covering_number_upper(bodies.ball(4, 1.0), slab, probes=4000, seed=1)
    assert N <= estimators.entropy_bound(slab, max(sig - 3 * se, 1e-9)), "entropy bound broke"
    return f"N(D,D)=1, interval=2, disk<=25, slab N={N}"


def _check_optimizers(fast):
    opt = OptimizerConfig(restarts=24, iters=80, seed=0)
    K = bodies.cube(3, 1.0)
    I = np.eye(3)
    d = estimators.diameter_of_intersection(K, K, I, opt=opt)
    assert abs(d.diameter - 2.0 * math.sqrt(3)) < 1e-6, f"cube diameter {d.diameter}"
    r = estimators.inclusion_radius(K, K, I, opt=opt)
    assert abs(r.value - 2.0) < 1e-6, f"cube inclusion {r.value}"
    B1 = bodies.cross_polytope(2, 1.0)
    th = math.pi / 4
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    d = estimators.diameter_of_intersection(B1, B1, R, opt=OptimizerConfig(restarts=16, iters=80, seed=0))
    ref = 2.0 / (math.cos(math.pi / 8) + math.sin(math.pi / 8))
    assert abs(d.diameter - ref) < 1e-6, f"rotated diamond diameter {d.diameter} vs {ref}"
    E = bodies.ellipsoid([1.0, 2.0, 0.5])
    sd = estimators.section_diameter(E, geometry.canonical_frame(3, 1, offset=1), opt=opt)
    assert abs(sd.diameter - 4.0) < 1e-6, f"axis section {sd.diameter}"
    return "diameter, inclusion, and section anchors to 1e-6"


def _check_duality(fast):
    opt = OptimizerConfig(restarts=32, iters=100, seed=3)
    K = bodies.ellipsoid([1.0, 1.4, 0.8])
    L = bodies.cube(3, 0.9)
    U = geometry.haar_rotation(3, seed=5)
    imax = estimators.inclusion_radius(K, L, U, opt=opt, combine="max")
    pd = estimators.diameter_of_intersection(
        bodies.polar(K), bodies.polar(L), U,
        opt=OptimizerConfig(restarts=32, iters=100, seed=11))
    prod = pd.diameter * imax.value
    assert abs(prod - 2.0) < 2e-4, f"duality product {prod}"
    isum = estimators.inclusion_radius(K, L, U, opt=opt, combine="sum")
    prod_sum = pd.diameter * isum.value
    assert 2.0 - 1e-6 <= prod_sum <= 4.0 + 1e-6, f"sum-form product {prod_sum}"
    return f"product {prod:.6f} (max form), {prod_sum:.4f} in [2,4] (sum form)"


def _check_schedule(fast):
    consts = measures.BoundConstants(a_frac=0.1, C1_sched=1.0, c2_sched=0.5)
    sp = experiments.theorem_schedule(40, 10, consts)
    assert abs(sp.eps_K - math.exp(-4.0)) < 1e-15
    assert abs(sp.eps_L - math.exp(-20.0)) < 1e-15
    assert sp.guaranteed_radius > 0
    try:
        experiments.theorem_schedule(100, 10, measures.BoundConstants(a_frac=1.0 / 40.0))
    except InfeasibleScheduleError:
        pass
    else:
        raise AssertionError("a*k < 1 was not rejected")
    return "worked schedule example and infeasibility rejection"


def _check_determinism(fast):
    import tempfile
    from pathlib import Path

    K = bodies.ball(3, 1.0)
    opt = OptimizerConfig(restarts=8, iters=30, seed=0)
    r1 = experiments.run_two_bodies(K, K, 3, 2, trials=4, seed=77,
                                    section_bound=2.0, opt=opt)
    r2 = experiments.run_two_bodies(K, K, 3, 2, trials=4, seed=77,
                                    section_bound=2.0, opt=opt)
    with tempfile.TemporaryDirectory() as td:
        p1, p2 = Path(td) / "a.csv", Path(td) / "b.csv"
        r1.write_trials_csv(p1)
        r2.write_trials_csv(p2)
        assert p1.read_bytes() == p2.read_bytes(), "trial CSVs differ under one seed"
    assert r1.to_json_dict(include_wall_time=False) == r2.to_json_dict(include_wall_time=False)
    return "byte-identical trials, identical report sans wall time"


CHECKS = [
    ("measure anchors", _check_anchors),
    ("complement identity", _check_complement),
    ("measure monotonicity", _check_monotonicity),
    ("monte-carlo vs exact", _check_mc_measure),
    ("cap bound sandwich", _check_cap_sandwich),
    ("odd-map bound consistency", _check_lip_consistency),
    ("gaussian facts", _check_gaussian_facts),
    ("catalog body invariants", _check_bodies),
    ("combinator identities", _check_combinators),
    ("volume anchors", _check_volumes),
    ("random rotations", _check_rotations),
    ("covering nets", _check_nets),
    ("segment-cap property", _check_segment_property),
    ("waist lifting", _check_lifting),
    ("body neighborhood measure", _check_body_measure),
    ("covering numbers & entropy", _check_covering),
    ("sphere optimizers", _check_optimizers),
    ("duality consistency", _check_duality),
    ("parameter schedule", _check_schedule),
    ("harness determinism", _check_determinism),
]


def run_all(fast: bool = False) -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            detail = fn(fast)
            ok = True
        except Exception as exc:  # noqa: BLE001 - battery reports, never raises
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(CheckResult(name, ok, detail, time.perf_counter() - t0))
    return results
