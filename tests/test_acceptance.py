"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its measured quantities; a failed
assertion is the FAIL line.  Grid sizes, seeds, and tolerances are frozen
here and must not be weakened.
"""

import json
import math
import time

import numpy as np
import pytest

import waistlab as wl
from waistlab._util import sphere_points
from waistlab.errors import DomainError
from waistlab.measures import SubsphereQuery, sigma_exact_array

OPT = wl.OptimizerConfig(restarts=12, iters=50, seed=0)
OPT_TIGHT = wl.OptimizerConfig(restarts=40, iters=120, seed=0)

EPS_GRID = [0.01 + 0.04 * t for t in range(13)]  # 0.01 .. 0.49 step 0.04


def _flat_disk(n):
    return wl.product_body(wl.ball(n - 1, 1.0), wl.ball(1, 0.0))


def test_criterion_01_exact_measure_oracle():
    from scipy.special import betaincinv

    t0 = time.monotonic()
    # 60-point grid with sphere dimensions up to 30; theta chosen at Beta
    # quantiles so every point has an interior, MC-resolvable value
    grid = []
    for m in (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 21, 24, 27, 30):
        js = sorted({0, m // 2, m - 1})
        for j in js[:2 if m < 4 else 3]:
            a, b = (m - j) / 2.0, (j + 1) / 2.0
            for qtl in (0.3, 0.7):
                th = math.asin(math.sqrt(float(betaincinv(a, b, qtl))))
                grid.append((m, j, min(th, math.pi / 2)))
    grid = grid[:60]
    assert len(grid) == 60
    worst = 0.0
    for i, (m, j, th) in enumerate(grid):
        q = SubsphereQuery(m, j, th)
        est, se = wl.sigma_mc(q, 1_000_000, seed=1000 + i)
        gap = abs(est - wl.sigma_exact(q))
        assert gap <= 4 * max(se, 1e-9), f"MC/exact gap {gap} at {(m, j, th)}"
        worst = max(worst, gap / max(se, 1e-12))
    assert abs(wl.sigma_exact(SubsphereQuery(2, 1, math.pi / 6)) - 0.5) < 1e-12
    assert abs(wl.sigma_exact(SubsphereQuery(1, 0, math.pi / 4)) - 0.5) < 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
    print(f"ACCEPTANCE 1 PASS: 60-point MC grid within 4 SE at 1e6 samples "
          f"(worst {worst:.2f} SE), anchors at 1e-12, {elapsed:.1f}s")


def test_criterion_02_complement_identity():
    thetas = np.linspace(0.015, math.pi / 2 - 0.015, 25)
    worst = 0.0
    for m in range(2, 61):
        j = np.arange(0, m)
        for th in thetas:
            a = sigma_exact_array(m, j, math.sin(th) ** 2)
            b = sigma_exact_array(m, m - j - 1, math.sin(math.pi / 2 - th) ** 2)
            worst = max(worst, float(np.max(np.abs(a + b - 1.0))))
    assert worst < 1e-12, f"complement residual {worst}"
    print(f"ACCEPTANCE 2 PASS: complement identity to 1e-12 over m <= 60 "
          f"(max residual {worst:.2e})")


def test_criterion_03_cap_sandwich_and_lip_consistency():
    t0 = time.monotonic()
    eps = np.array(EPS_GRID)
    checked = 0
    for k in range(2, 21):
        for n in range(k + 1, 101):
            x = eps * eps * k / n
            s = sigma_exact_array(n - 1, n - k - 1, x)
            lo = (wl.DEFAULT_CONSTANTS.c_small * eps) ** (2 * k)
            hi = np.minimum((wl.DEFAULT_CONSTANTS.C_big * eps) ** (k / 2.0), 1.0)
            assert np.all(lo <= s), f"lower bound broke at n={n}, k={k}"
            assert np.all(s <= hi), f"upper bound broke at n={n}, k={k}"
            # complement pair on the same grid point
            lo_c = 1.0 - hi
            hi_c = np.minimum(1.0, 1.0 - (wl.DEFAULT_CONSTANTS.c_small * eps) ** k)
            assert np.all(lo_c <= 1.0 - s) and np.all(1.0 - s <= hi_c)
            # relaxed odd-map bound never exceeds the subsphere measure
            lip = sigma_exact_array(2 * n - k + 1, k - 1, x)
            ref = sigma_exact_array(n, k, x)
            assert np.all(lip <= ref + 1e-13), f"lip consistency broke at n={n}, k={k}"
            checked += eps.size
    # the k = n endpoint has subsphere dimension -1 and is outside the
    # measure's domain; the query type rejects it
    with pytest.raises(DomainError):
        SubsphereQuery(9, -1, 0.3)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"
    print(f"ACCEPTANCE 3 PASS: sandwich + lip consistency on {checked} grid "
          f"points at frozen constants (c=0.2, C=2.0), {elapsed:.1f}s")


def test_criterion_04_gaussian_facts():
    assert abs(wl.chisq_cdf(2, 2.0) - (1.0 - math.exp(-1.0))) < 1e-12
    count = 0
    for k in range(1, 21):
        for M in (2.0, 3.0, 4.0):
            for e in np.arange(0.05, 0.501, 0.05):
                rep = wl.gaussian_fact_check(k, M, float(e))
                assert rep.tail_ok, f"tail failed at k={k}, M={M}"
                assert rep.smallball_ok, f"small-ball failed at k={k}, eps={e}"
                count += 1
    print(f"ACCEPTANCE 4 PASS: {count} chi-square fact checks at frozen "
          f"constants, exponential anchor at 1e-12")


def test_criterion_05_higher_sphere():
    rng = np.random.default_rng(505)
    held = 0
    for i in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, n + 5))
        ncaps = int(rng.integers(1, 4))
        centers = sphere_points(rng, ncaps, n + 1).tolist()
        radii = rng.uniform(0.1, 0.6, size=ncaps).tolist()
        theta = float(rng.uniform(0.3, 1.3))
        theta = min(theta, math.pi / 2)
        rep = wl.run_higher_sphere({"kind": "caps", "centers": centers, "radii": radii},
                                   n, m, theta, 60_000, seed=7000 + i)
        s = rep.summary
        assert s["inequality_holds_4se"], f"inequality failed at config {i}"
        assert s["claim_violations"] == 0, f"claim violated at config {i}"
        held += 1
    # dedicated pointwise claim run on 1e5 samples
    rep = wl.run_higher_sphere({"kind": "caps",
                                "centers": [[1, 0, 0, 0], [0, 0.6, 0.8, 0]],
                                "radii": [0.35, 0.5]},
                               3, 6, 0.7, 100_000, seed=515)
    assert rep.summary["claim_samples"] >= 100_000 - 5
    assert rep.summary["claim_violations"] == 0
    print(f"ACCEPTANCE 5 PASS: inequality held on {held}/50 random symmetric "
          f"cap unions (4 SE); pointwise claim 0 violations on "
          f"{rep.summary['claim_samples']} samples")


def test_criterion_06_projection_cases():
    # equality case: embedded unit k-ball in R^n
    for i, (n, k) in enumerate([(4, 1), (4, 3), (7, 3), (10, 5), (10, 9)]):
        K = wl.product_body(wl.ball(k, 1.0), wl.ball(n - k, 0.0))
        eps = 0.35
        est, se = wl.mc_sigma_body(K, eps, 200_000, seed=600 + i)
        ref = wl.sigma_exact(SubsphereQuery(n - 1, k - 1, math.asin(eps)))
        assert abs(est - ref) <= 4 * max(se, 1e-9), f"equality case failed at {(n, k)}"
    # inequality case: cylinders of transverse radius t
    n, k, eps = 6, 2, 0.3
    for j, t in enumerate((0.05, 0.1)):
        K = wl.product_body(wl.ball(k, 1.0), wl.ball(n - k, t))
        est, se = wl.mc_sigma_body(K, eps, 200_000, seed=650 + j)
        rhs = wl.sigma_lip_lower(n - 1, k - 1, math.asin(eps))
        assert est + 4 * se >= rhs, f"lip lower bound failed at t={t}"
    # two-cap anchor
    seg = wl.product_body(wl.cube(1, 1.0), wl.ball(2, 0.0))
    est, se = wl.mc_sigma_body(seg, 0.5, 400_000, seed=666)
    assert abs(est - 0.13397) <= 4 * se + 5e-6
    print(f"ACCEPTANCE 6 PASS: 5 equality cases, 2 cylinder inequalities, "
          f"two-cap anchor {est:.5f} vs 0.13397 within 4 SE")


def test_criterion_07_segment_cap_property():
    rng = np.random.default_rng(707)
    checked = 0
    for _ in range(100_000):
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
        assert wl.segment_cap_check(y, z, eps), f"violation at eps={eps}, phi={phi}"
        checked += 1
    print(f"ACCEPTANCE 7 PASS: segment-cap inclusion held on {checked} "
          f"random valid triples, zero violations")


def test_criterion_08_entropy_bound():
    catalog = [
        ("slab n=3", wl.slab_body(np.eye(3)[:1], [0.35])),
        ("slab n=5", wl.slab_body(np.eye(5)[:1], [0.45])),
        ("slab n=8", wl.slab_body(np.eye(8)[:1], [0.5])),
        ("cube n=3", wl.cube(3, 0.9)),
        ("cross n=3", wl.cross_polytope(3, 1.5)),
        ("ellipsoid n=4", wl.ellipsoid([0.9, 1.1, 1.2, 1.3])),
    ]
    lines = []
    for i, (name, K) in enumerate(catalog):
        n = K.dim
        sig, se = wl.mc_sigma_body(K, 0.0, 150_000, seed=800 + i)
        floor = sig - 3 * se
        assert floor > 0, f"{name}: measure too small to pin down"
        N = wl.covering_number_upper(wl.ball(n, 1.0), K, probes=5000, seed=800 + i)
        bound = wl.entropy_bound(K, floor)
        assert N <= bound, f"{name}: N={N} exceeds 2^n/sigma={bound:.1f}"
        lines.append(f"{name}: N={N} <= {bound:.1f}")
    print("ACCEPTANCE 8 PASS: " + "; ".join(lines))


@pytest.mark.parametrize("n,delta_K,delta_L", [(4, 0.4, 0.35), (6, 0.5, 0.4),
                                               (8, 0.6, 0.35)])
def test_criterion_09_core_lemma(n, delta_K, delta_L):
    t0 = time.monotonic()
    flat = _flat_disk(n)
    rep = wl.run_core_lemma(flat, flat, delta_K, delta_L, trials=500,
                            seed=900 + n, sigma_samples=100_000,
                            net_probes=2048, opt=OPT)
    s = rep.summary
    slack = 3.0 * math.hypot(s["incl_failure_se"], s["failure_bound_se"])
    assert s["incl_failure_rate"] <= min(s["failure_bound"], 1.0) + slack, \
        f"failure rate {s['incl_failure_rate']} above bound {s['failure_bound']}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    print(f"ACCEPTANCE 9 PASS (n={n}): fail={s['incl_failure_rate']:.4f} <= "
          f"N*sigma={s['failure_bound']:.3f}+3SE (N={s['net_cardinality']}, "
          f"sigma={s['sigma_hat']:.4f}), 500 rotations, {elapsed:.1f}s")


def test_criterion_10a_duality_consistency():
    pairs = [
        (wl.ellipsoid([1.0, 1.4, 0.8]), wl.cube(3, 0.9)),
        (wl.ellipsoid([1.0, 1.2, 0.9, 1.1]), wl.ellipsoid([0.8, 1.3, 1.0, 0.7])),
        (wl.cube(3, 1.0), wl.cross_polytope(3, 1.5)),
        (wl.ball(4, 1.2), wl.cube(4, 0.8)),
    ]
    worst = 0.0
    for i, (K, L) in enumerate(pairs):
        for s in range(2):
            U = wl.haar_rotation(K.dim, seed=1010 + 10 * i + s)
            imax = wl.inclusion_radius(K, L, U, opt=OPT_TIGHT, combine="max")
            alt = wl.OptimizerConfig(restarts=40, iters=120, seed=9091)
            pd = wl.diameter_of_intersection(wl.polar(K), wl.polar(L), U, opt=alt)
            rel = abs(pd.diameter * imax.value - 2.0) / 2.0
            assert rel <= 1e-4, f"duality product off by {rel:.2e} on pair {i}"
            worst = max(worst, rel)
            isum = wl.inclusion_radius(K, L, U, opt=OPT_TIGHT, combine="sum")
            prod_sum = pd.diameter * isum.value
            assert 2.0 - 1e-9 <= prod_sum <= 4.0 + 1e-9
    print(f"ACCEPTANCE 10a PASS: diam(polar intersection) x hull-inclusion "
          f"radius = 2 within 1e-4 rel (worst {worst:.2e}); Minkowski-sum "
          f"form bracketed in [2, 4]")


def test_criterion_10b_cylinder_fit_stability():
    fits = {}
    for n in (8, 10, 12):
        k = n // 2
        m2 = max(1, math.ceil(0.25 * k))
        K = wl.truncated_cylinder(wl.ball(k, 0.5), n, truncation_radius=1e6)
        L = wl.product_body(wl.ball(m2, 1e6), wl.ball(n - m2, 0.5))
        rep = wl.run_two_bodies(K, L, n, k, trials=200, seed=20260808, a_frac=0.25,
                                section_L=wl.canonical_frame(n, n - m2, offset=m2),
                                opt=wl.OptimizerConfig(restarts=16, iters=60, seed=0))
        q95 = rep.summary["diameter"]["q95"]
        assert math.isfinite(q95), f"95th percentile diameter not finite at n={n}"
        fits[n] = q95 ** (k / n)
    vals = np.array(list(fits.values()))
    dev = float(np.max(np.abs(vals - vals.mean())) / vals.mean())
    assert dev <= 0.25, f"C_fit deviation {dev:.3f} exceeds 25%: {fits}"
    print(f"ACCEPTANCE 10b PASS: cylinder q95 diameters finite at n=8,10,12; "
          f"C_fit = {', '.join(f'{v:.3f}' for v in vals)} (max dev {dev:.1%})")


def test_criterion_10c_trivial_anchor():
    D = wl.ball(5, 1.0)
    rep = wl.run_two_bodies(D, D, 5, 2, trials=20, seed=1033, section_bound=2.0,
                            opt=OPT)
    for row in rep.trials:
        assert abs(row["diameter"] - 2.0) < 1e-12
    print("ACCEPTANCE 10c PASS: unit-ball intersection diameter exactly 2 "
          "(to 1e-12) in all 20 trials")


def test_criterion_11_global_vr_pipeline():
    t0 = time.monotonic()
    # Rogers-Shephard equality case for the planar simplex
    tri = wl.vertex_polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    diff = wl.difference_body(tri)
    v1, se1 = wl.mc_volume(tri, 400_000, seed=1101)
    v2, se2 = wl.mc_volume(diff, 400_000, seed=1102)
    ratio = v2 / v1
    slack = 3 * ratio * math.hypot(se1 / v1, se2 / v2)
    assert abs(ratio - 6.0) <= slack, f"simplex ratio {ratio} vs 6 (slack {slack:.3f})"
    # volume-ratio anchor for the square
    vol, se = wl.mc_volume(wl.cube(2, 1.0), 400_000, seed=1103)
    A = (vol / math.pi) ** 0.5
    seA = A * (se / vol) / 2.0
    ref = math.sqrt(4.0 / math.pi)
    assert abs(A - ref) <= 3 * seA
    assert ref == pytest.approx(1.12838, abs=5e-6)
    # full pipeline smoke run at n=6, k=3
    K = wl.ellipsoid([1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
    L = wl.product_body(wl.ball(3, 0.5), wl.ball(3, 8.0))
    rep = wl.run_global_vr(K, L, 6, 3, trials=30, seed=1104, a_frac=1.0 / 3.0,
                           vol_samples=150_000,
                           section_L=wl.canonical_frame(6, 3), opt=OPT)
    s = rep.summary
    assert s["rs_holds_3se"]
    assert s["volume_ratio"] == pytest.approx(np.prod([1.0, 1.1, 1.2, 1.3, 1.4, 1.5]) ** (1 / 6),
                                              abs=0.02)
    for key in ("volume_ratio", "rs_ratio", "rs_bound", "diff_section_diameter",
                "beta_fit", "two_bodies"):
        assert key in s
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    print(f"ACCEPTANCE 11 PASS: simplex ratio {ratio:.3f} ~ 6 (3 SE), square "
          f"volume ratio {A:.5f} ~ 1.12838 (3 SE), pipeline smoke {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    flat3 = _flat_disk(3)
    runs = {
        "two-bodies": lambda seed: wl.run_two_bodies(
            wl.ball(3, 1.0), wl.ball(3, 1.0), 3, 2, trials=4, seed=seed,
            section_bound=2.0, opt=OPT),
        "sections": lambda seed: wl.run_sections(
            wl.cube(3, 1.0), 3, 2, trials=4, seed=seed, opt=OPT),
        "core": lambda seed: wl.run_core_lemma(
            flat3, flat3, 0.4, 0.35, trials=4, seed=seed,
            sigma_samples=5000, net_probes=512, opt=OPT),
        "higher-sphere": lambda seed: wl.run_higher_sphere(
            {"kind": "subsphere", "dim": 1}, 2, 4, 0.5, 20_000, seed=seed),
        "projection": lambda seed: wl.run_projection(
            wl.product_body(wl.ball(2, 1.0), wl.ball(2, 0.0)),
            wl.canonical_frame(4, 2), 0.3, 20_000, seed=seed, lift_checks=5),
        "global-vr": lambda seed: wl.run_global_vr(
            wl.ball(4, 1.0), wl.product_body(wl.ball(2, 0.5), wl.ball(2, 4.0)),
            4, 2, trials=3, seed=seed, a_frac=0.5, vol_samples=10_000,
            section_L=wl.canonical_frame(4, 2), opt=OPT),
    }
    for name, runner in runs.items():
        a, b = runner(123), runner(123)
        pa, pb = tmp_path / f"{name}-a.csv", tmp_path / f"{name}-b.csv"
        a.write_trials_csv(pa)
        b.write_trials_csv(pb)
        assert pa.read_bytes() == pb.read_bytes(), f"{name}: trials.csv differs"
        ja, jb = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
        a.write_json(ja)
        b.write_json(jb)
        da, db = json.loads(ja.read_text()), json.loads(jb.read_text())
        da.pop("wall_time_s")
        db.pop("wall_time_s")
        assert da == db, f"{name}: report differs beyond wall time"
    print("ACCEPTANCE 12 PASS: byte-identical trials.csv and reports (sans "
          "wall time) for all six harnesses under fixed seeds")
