import itertools
import math
import tracemalloc

import numpy as np
import pytest

from waistlab import _util, experiments
from waistlab._util import seed_sequence
from waistlab.bodies import (ball, cross_polytope, cube, difference_body, ellipsoid,
                             intersect, polar, product_body, truncated_cylinder,
                             unit_ball_check, vertex_polytope, volume_ratio)
from waistlab.errors import (DomainError, EvaluationError, HypothesisError,
                             InfeasibleScheduleError)
from waistlab.experiments import (ExperimentReport, cover_ball_with_body,
                                  run_core_lemma, run_global_vr,
                                  run_higher_sphere, run_projection,
                                  run_sections, run_two_bodies, theorem_schedule)
from waistlab.geometry import canonical_frame, haar_rotation, lift_waist
from waistlab.measures import BoundConstants, SubsphereQuery, sigma_ball_product, sigma_exact
from waistlab.optimize import OptimizerConfig

OPT = OptimizerConfig(restarts=12, iters=50, seed=0)


# ---------------------------------------------------------------------------
# parameter schedule
# ---------------------------------------------------------------------------


def test_schedule_worked_example():
    consts = BoundConstants(a_frac=0.1, C1_sched=1.0, c2_sched=0.5)
    sp = theorem_schedule(40, 10, consts)
    assert sp.eps_K == pytest.approx(math.exp(-4.0), rel=1e-15)
    assert sp.delta_K == pytest.approx(math.sqrt(1 - math.exp(-8.0) / 4.0), rel=1e-15)
    assert sp.eps_L == pytest.approx(math.exp(-20.0), rel=1e-15)
    assert sp.delta_L == pytest.approx(math.sqrt(math.exp(-40.0) / 40.0), rel=1e-15)
    assert sp.guaranteed_radius > 0
    assert not sp.in_strict_regime


def test_schedule_internal_identities():
    sp = theorem_schedule(24, 6, BoundConstants(a_frac=0.25))
    assert sp.delta_K == pytest.approx(math.sqrt(1 - sp.eps_K ** 2 * sp.k / sp.n), rel=1e-15)
    assert sp.delta_L == pytest.approx(
        math.sqrt(sp.eps_L ** 2 * sp.a_frac * sp.k / sp.n), rel=1e-15)
    assert sp.guaranteed_radius == pytest.approx(1 - sp.delta_K - 2 * sp.delta_L, rel=1e-12)


def test_schedule_rejects_small_ak():
    with pytest.raises(InfeasibleScheduleError):
        theorem_schedule(100, 10, BoundConstants(a_frac=1.0 / 40.0))


def test_schedule_rejects_infeasible_constants():
    # tiny c2 makes delta_L enormous relative to the slack left by delta_K
    with pytest.raises(InfeasibleScheduleError):
        theorem_schedule(8, 4, BoundConstants(a_frac=0.5, C1_sched=5.0, c2_sched=1e-4))


def test_schedule_strict_regime_flag():
    sp = theorem_schedule(140, 70, BoundConstants(a_frac=1.0 / 35.0))
    assert sp.in_strict_regime


# ---------------------------------------------------------------------------
# core-lemma harness
# ---------------------------------------------------------------------------


def test_core_trivial_ball_config():
    D = ball(3, 1.0)
    rep = run_core_lemma(D, D, 0.3, 0.3, trials=10, seed=1,
                         sigma_samples=20_000, net_probes=512, opt=OPT)
    assert rep.summary["incl_failure_rate"] == 0.0
    assert rep.summary["sigma_hat"] == 0.0
    assert all(r["incl_value"] >= 2.0 - 1e-9 for r in rep.trials)


def test_core_zero_trials_empty_report():
    D = ball(3, 1.0)
    rep = run_core_lemma(D, D, 0.3, 0.3, trials=0, seed=2)
    assert rep.trials == []
    assert rep.name == "core"


def test_core_requires_small_deltas():
    D = ball(3, 1.0)
    with pytest.raises(DomainError):
        run_core_lemma(D, D, 0.6, 0.5, trials=1, seed=0)


def test_core_flat_disk_rate_below_bound():
    flat = product_body(ball(3, 1.0), ball(1, 0.0))
    rep = run_core_lemma(flat, flat, 0.4, 0.35, trials=60, seed=3,
                         sigma_samples=50_000, net_probes=1024, opt=OPT)
    s = rep.summary
    assert s["bound_holds"]
    assert s["incl_failure_rate"] <= s["net_failure_rate"] + 3 * math.hypot(
        s["incl_failure_se"], s["net_failure_se"]) + 1e-12
    # both sides recorded, never only a boolean
    assert {"failure_bound", "incl_failure_rate", "sigma_hat", "sigma_se"} <= set(s)


def _no_sampling(*args, **kwargs):
    raise AssertionError("mc_sigma_body called for a body with an exact sigma")


def test_core_flat_disk_sigma_is_exact_without_sampling(monkeypatch):
    monkeypatch.setattr(experiments, "mc_sigma_body", _no_sampling)
    flat = product_body(ball(3, 1.0), ball(1, 0.0))
    rep = run_core_lemma(flat, flat, 0.4, 0.35, trials=5, seed=3,
                         sigma_samples=50_000, net_probes=512, opt=OPT)
    s = rep.summary
    assert s["sigma_method"] == "exact (product of two balls)"
    assert s["sigma_se"] == 0.0 and s["failure_bound_se"] == 0.0
    # a flat disk's neighborhood is the subsphere neighborhood of its plane
    assert s["sigma_hat"] == pytest.approx(
        1.0 - sigma_exact(SubsphereQuery(3, 2, math.asin(0.4))), abs=1e-12)
    assert rep.config["sigma_samples"] == 50_000


def test_core_ball_sigma_is_exact(monkeypatch):
    monkeypatch.setattr(experiments, "mc_sigma_body", _no_sampling)
    rep = run_core_lemma(ball(3, 0.8), ball(3, 1.0), 0.3, 0.3, trials=2, seed=4,
                         net_probes=256, opt=OPT)
    assert rep.summary["sigma_method"] == "exact (ball)"
    assert rep.summary["sigma_hat"] == 0.0 and rep.summary["sigma_se"] == 0.0


def test_core_truncated_cylinder_over_a_ball_sigma_is_exact(monkeypatch):
    # the cylinder is the product of its core ball with a transverse ball
    monkeypatch.setattr(experiments, "mc_sigma_body", _no_sampling)
    K = truncated_cylinder(ball(3, 0.9), 4, transverse_radius=0.2)
    rep = run_core_lemma(K, ball(4, 1.0), 0.3, 0.4, 5, seed=1)
    assert rep.summary["sigma_method"] == "exact (product of two balls)"
    sigma_hat = 1.0 - sigma_ball_product(3, 0.9, 1, 0.2, 0.3)
    assert rep.summary["sigma_hat"] == sigma_hat == 0.3910022189557705


@pytest.mark.parametrize("K, method, sigma", [
    (ellipsoid([0.6] * 3), "exact (ball)", 0.0),
    (polar(ball(3, 2.0)), "exact (ball)", 0.0),
    (intersect(ball(3, 0.5), cube(3, 1.0)), "exact (ball)", 0.0),
    (difference_body(ball(3, 0.45)), "exact (ball)", 1.0),
    (difference_body(product_body(ball(3, 0.9), ball(1, 0.2))),
     "exact (product of two balls)", sigma_ball_product(3, 1.8, 1, 0.4, 0.3)),
    (ellipsoid([0.6, 0.7, 0.8]), "Monte Carlo", None),
], ids=["equal-axis-ellipsoid", "polar", "intersection", "difference-ball",
        "difference-product", "ellipsoid"])
def test_sigma_near_reads_balls_off_certified_structure(K, method, sigma):
    # whatever a body's kind, equal certified radii make it a ball, and
    # factors that are balls make it a product of balls
    value, se, how = experiments._sigma_near(K, 0.3, 2000, 0)
    assert how == method
    if sigma is None:
        assert se > 0
    else:
        assert (value, se) == (sigma, 0.0)


def test_trial_rotations_pin_the_draws():
    # trial i draws from child i of the trials' sequence, bit for bit
    R = experiments._trial_rotations(seed_sequence(904).spawn(3)[2], 4, 20)
    assert R.shape == (20, 4, 4)
    assert R[0, 0, 0] == float.fromhex("-0x1.eb6b378850c18p-3")
    assert R[19, 3, 3] == float.fromhex("-0x1.77742a760037cp-2")
    # fewer trials draw a prefix of the same rotations
    prefix = experiments._trial_rotations(seed_sequence(904).spawn(3)[2], 4, 7)
    assert np.array_equal(prefix, R[:7])
    assert experiments._trial_rotations(seed_sequence(904), 4, 0).shape == (0, 4, 4)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_trial_rotations_equal_one_rotation_per_child(n):
    # one stacked QR gives the bits of one haar_rotation per child stream
    for seed in range(4):
        R = experiments._trial_rotations(seed_sequence(seed), n, 7)
        alone = [haar_rotation(n, c) for c in seed_sequence(seed).spawn(7)]
        assert np.array_equal(R, np.array(alone))


def test_core_other_bodies_sample_sigma():
    K = ellipsoid([0.6, 0.9, 1.2])
    rep = run_core_lemma(K, ball(3, 1.0), 0.2, 0.3, trials=2, seed=5,
                         sigma_samples=2000, net_probes=256, opt=OPT)
    s = rep.summary
    assert s["sigma_method"] == "Monte Carlo"
    assert 0.0 < s["sigma_hat"] < 1.0
    assert s["sigma_se"] > 0.0 and s["failure_bound_se"] > 0.0


def test_cover_ball_net_certifies():
    L = ball(2, 0.8)
    centers = cover_ball_with_body(L, 0.3, probes=1024, seed=4, opt=OPT)
    rng = np.random.default_rng(5)
    from waistlab._util import ball_points

    pts = ball_points(rng, 2000, 2, 1.0)
    dmin = np.min(
        [np.asarray(L.distance(pts - z), dtype=float) for z in centers], axis=0)
    assert dmin.max() <= 0.3 + 1e-9


@pytest.mark.parametrize("seed, centers, net, net_ok, incl_ok", [
    (1, 14, 11, "00000000000000000000", "11111111111111111111"),
    (2, 13, 12, "00100000001000000000", "11111111111111111111"),
])
def test_flat_disk_cover_and_core_run_are_pinned(seed, centers, net, net_ok, incl_ok):
    # integers and booleans only, so every numpy gives the same: the greedy
    # cover's center count, and the core harness's net and trial outcomes
    disk = product_body(ball(5, 1.0), ball(1, 0.0))
    assert len(cover_ball_with_body(disk, 0.35, probes=2048, seed=seed)) == centers
    rep = run_core_lemma(disk, disk, 0.5, 0.4, trials=20, seed=seed)
    assert rep.summary["net_cardinality"] == net
    assert "".join("01"[row["net_ok"]] for row in rep.trials) == net_ok
    assert "".join("01"[row["incl_ok"]] for row in rep.trials) == incl_ok


def test_net_lands_does_not_depend_on_the_chunk_size(monkeypatch):
    # the rotated centers of one rotation are K.dim-wide rows of one chunk;
    # chunks of 1 and 7 rotations give every center the same distance
    K = ellipsoid([1.0, 1.4, 0.8])
    centers = 1.2 * _util.sphere_points(np.random.default_rng(3), 5, 3)
    rotations = [haar_rotation(3, seed=s) for s in range(20)]
    real, seen = K.distance, []
    monkeypatch.setattr(K, "distance", lambda X: seen.append(np.asarray(real(X))) or seen[-1])
    runs = []
    for rows in (1, 7):
        monkeypatch.setattr(_util, "CHUNK_FLOATS", len(centers) * K.dim * rows)
        seen.clear()
        ok = experiments._net_lands(K, centers, rotations, 0.3)
        assert [len(d) for d in seen] == [len(centers) * r for r in _util.chunk_sizes(20, rows)]
        runs.append((ok, np.concatenate(seen)))
    assert runs[0][0] == runs[1][0] and 0 < sum(runs[0][0]) < len(rotations)
    assert np.array_equal(runs[0][1], runs[1][1])


# ---------------------------------------------------------------------------
# two-bodies harness
# ---------------------------------------------------------------------------


def test_two_bodies_ball_anchor():
    D = ball(4, 1.0)
    rep = run_two_bodies(D, D, 4, 2, trials=6, seed=7, section_bound=2.0, opt=OPT)
    for row in rep.trials:
        assert row["diameter"] == pytest.approx(2.0, abs=1e-12)
        assert row["success"]
    assert rep.summary["C_fit_max"] == pytest.approx(2.0 ** (2 / 4), abs=1e-9)


def test_cover_search_falls_back_to_the_optimizer(monkeypatch):
    # a segment in R^3: the sphere point over a probe need not cover it,
    # and the search for a center goes to the optimizer, from that point
    L, delta = product_body(ball(1, 1.0), ball(2, 0.0)), 0.2
    eff = delta * (1.0 - 1e-9)
    real, calls = experiments.minimize_on_sphere, []

    def recording(objective, n, cfg, extra_starts=None):
        res = real(objective, n, cfg, extra_starts=extra_starts)
        calls.append((res, float(objective(res.direction[None])[0])))
        return res

    monkeypatch.setattr(experiments, "minimize_on_sphere", recording)
    centers = cover_ball_with_body(L, delta, probes=1024, seed=0)
    assert calls
    for res, residual in calls:
        assert abs(np.linalg.norm(res.direction) - 1.0) <= 1e-12
        assert residual <= eff
        assert any(np.array_equal(res.direction, c) for c in centers)
    assert np.array_equal(cover_ball_with_body(L, delta, probes=1024, seed=0), centers)


def test_two_bodies_deterministic():
    D = ball(3, 1.0)
    r1 = run_two_bodies(D, D, 3, 2, trials=5, seed=11, section_bound=2.0, opt=OPT)
    r2 = run_two_bodies(D, D, 3, 2, trials=5, seed=11, section_bound=2.0, opt=OPT)
    assert r1.trials == r2.trials
    assert r1.to_json_dict(include_wall_time=False) == r2.to_json_dict(include_wall_time=False)


def test_two_bodies_hypothesis_failure_witness():
    # cube sections on the declared plane have diameter over the bound
    K = cube(3, 1.0)
    with pytest.raises(HypothesisError) as exc:
        run_two_bodies(K, K, 3, 2, trials=1, seed=0, opt=OPT)
    assert exc.value.witness is not None


def test_two_bodies_cylinder_hypotheses_pass():
    n, k = 6, 3
    m2 = max(1, math.ceil(0.25 * k))
    K = truncated_cylinder(ball(k, 0.5), n, truncation_radius=1e4)
    L = product_body(ball(m2, 1e4), ball(n - m2, 0.5))
    rep = run_two_bodies(K, L, n, k, trials=8, seed=13, a_frac=0.25,
                         section_L=canonical_frame(n, n - m2, offset=m2), opt=OPT)
    assert rep.summary["hypothesis"]["section_diam_K"] <= 1 + 1e-4
    assert all(math.isfinite(r["diameter"]) for r in rep.trials)


def test_two_bodies_dual_mode_product():
    K = ellipsoid([1.0, 1.2, 0.9])
    L = ellipsoid([1.1, 0.8, 1.0])
    # L's projection on coordinates 0 and 2 contains the unit ball
    rep = run_two_bodies(K, L, 3, 2, trials=3, seed=17, mode="dual", dual_products=True,
                         section_L=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                         opt=OptimizerConfig(restarts=24, iters=80, seed=0))
    for row in rep.trials:
        assert row["dual_product"] == pytest.approx(2.0, rel=2e-4)
        assert row["incl_sum"] >= row["incl_max"] - 1e-12


# ---------------------------------------------------------------------------
# sections harness
# ---------------------------------------------------------------------------


def test_sections_ball_all_two():
    rep = run_sections(ball(4, 1.0), 2, 2, trials=6, seed=19, opt=OPT)
    for row in rep.trials:
        assert row["diameter"] == pytest.approx(2.0, abs=1e-9)


def test_sections_cube_r4_bracket():
    rep = run_sections(cube(4, 1.0), 4, 2, trials=20, seed=23, opt=OPT)
    d = rep.summary["diameter"]
    assert d["min"] >= 2.0 - 1e-6
    assert d["max"] <= 4.0 + 1e-6  # inscribed/circumscribed bracket [2, 2*sqrt(4)]


def test_sections_median_trend_in_aspect():
    # median section diameter does not increase as n/k grows
    medians = []
    for k in (3, 2, 1):
        rep = run_sections(cube(4, 1.0), 4, k, trials=30, seed=29, opt=OPT)
        medians.append(rep.summary["diameter"]["q50"])
    assert medians[0] >= medians[1] >= medians[2] - 1e-9


# ---------------------------------------------------------------------------
# higher-sphere harness
# ---------------------------------------------------------------------------


def test_higher_sphere_subsphere_matches_exact():
    rep = run_higher_sphere({"kind": "subsphere", "dim": 1}, 2, 4, 0.5, 150_000, seed=31)
    s = rep.summary
    assert abs(s["lhs"] - s["exact_lhs"]) <= 4 * s["lhs_se"]
    assert abs(s["rhs"] - s["exact_rhs"]) <= 4 * s["rhs_se"]
    assert s["exact_lhs"] == pytest.approx(sigma_exact(SubsphereQuery(2, 1, 0.5)), abs=1e-14)
    assert s["inequality_holds_4se"]
    assert s["claim_violations"] == 0


def test_higher_sphere_equal_dimensions():
    rep = run_higher_sphere({"kind": "caps", "centers": [[1, 0, 0]], "radii": [0.4]},
                            2, 2, 0.5, 80_000, seed=37)
    s = rep.summary
    assert abs(s["lhs"] - s["rhs"]) <= 4 * math.hypot(s["lhs_se"], s["rhs_se"])


def test_higher_sphere_rejects_bad_dims():
    with pytest.raises(DomainError):
        run_higher_sphere({"kind": "subsphere", "dim": 1}, 4, 3, 0.5, 1000, seed=0)


@pytest.mark.parametrize("samples", [0, -3])
def test_higher_sphere_rejects_sample_counts_below_one(samples):
    with pytest.raises(DomainError, match="samples"):
        run_higher_sphere({"kind": "subsphere", "dim": 1}, 2, 3, 0.5, samples, seed=0)


TWO_CAPS = {"kind": "caps", "centers": [[1, 0, 0, 0], [0, 0.6, 0.8, 0]], "radii": [0.35, 0.5]}


def test_higher_sphere_golden_summaries():
    # the exact summaries at one, two and three workers; 100_003 points are
    # 24 blocks of STREAM_ROWS (4096) and a short one of 1699 per stream
    assert run_higher_sphere(TWO_CAPS, 3, 6, 0.7, 100_003, seed=5).summary == {
        "lhs": 0.7688669339919803, "lhs_se": 0.0013330612913460983,
        "rhs": 0.25758227253182403, "rhs_se": 0.0013828517945604585,
        "inequality_holds_4se": True, "claim_samples": 100003, "claim_violations": 0,
        "claim_max_gap": -0.00013336977108635573}
    assert run_higher_sphere({"kind": "subsphere", "dim": 1}, 3, 5, 0.6, 50_001,
                             seed=6).summary == {
        "lhs": 0.3183536329273415, "lhs_se": 0.0020832679007950876,
        "rhs": 0.10267794644107117, "rhs_se": 0.0013574486589838595,
        "inequality_holds_4se": True, "claim_samples": 50001, "claim_violations": 0,
        "claim_max_gap": -8.545592300457372e-07,
        "exact_lhs": 0.31882112276166324, "exact_rhs": 0.10164690831900755}


def test_higher_sphere_does_not_depend_on_the_chunk_size(monkeypatch):
    alone = run_higher_sphere(TWO_CAPS, 3, 6, 0.7, 10_004, seed=8).summary
    # 7 rows of R^7 at one worker (3 at two); 4096 = 7 * 585 + 1 = 3 * 1365 + 1
    monkeypatch.setattr(_util, "CHUNK_FLOATS", 7 * 7)
    assert run_higher_sphere(TWO_CAPS, 3, 6, 0.7, 10_004, seed=8).summary == alone


_CENTERS = np.random.default_rng(0).standard_normal((200, 4))
CAPS_200 = {"kind": "caps", "centers": _CENTERS.tolist(), "radii": [0.05] * 200}


@pytest.mark.parametrize("cap_spec, samples", [
    (TWO_CAPS, 10**6),
    (CAPS_200, 20_000),
], ids=["two-caps", "200-caps"])
def test_higher_sphere_memory_does_not_grow_with_samples(cap_spec, samples):
    # whole X and Y arrays peaked at 222 MB and 246 MB here; chunks as
    # wide as R^7 alone, not as the 400 cap angles, at 115 MB
    tracemalloc.start()
    try:
        run_higher_sphere(cap_spec, 3, 6, 0.7, samples, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


ONE_CAP = {"kind": "caps", "centers": [[0.3, -1.0, 0.5]], "radii": [0.45]}


def test_higher_sphere_cap_golden_summaries():
    # the exact summaries at one, two and three workers; the 400 cap
    # angles, not R^7, size the 200-caps chunks
    assert run_higher_sphere(CAPS_200, 3, 6, 0.7, 20_000, seed=5).summary == {
        "lhs": 1.0, "lhs_se": 0.0, "rhs": 0.47945, "rhs_se": 0.003532546514201901,
        "inequality_holds_4se": True, "claim_samples": 20000, "claim_violations": 0,
        "claim_max_gap": -0.001888306791959754}
    assert run_higher_sphere(ONE_CAP, 2, 5, 0.8, 30_001, seed=9).summary == {
        "lhs": 0.6809773007566414, "lhs_se": 0.002690972409609154,
        "rhs": 0.24415852804906504, "rhs_se": 0.00248018137730768,
        "inequality_holds_4se": True, "claim_samples": 30001, "claim_violations": 0,
        "claim_max_gap": -0.0003910086923462064}


@pytest.mark.parametrize("cap_spec, n, m", [
    (TWO_CAPS, 3, 6), (CAPS_200, 3, 6), ({"kind": "subsphere", "dim": 1}, 3, 5),
], ids=["two-caps", "200-caps", "subsphere"])
def test_higher_sphere_does_not_depend_on_the_worker_count(monkeypatch, cap_spec, n, m):
    # 10_004 points are two blocks of STREAM_ROWS (4096) and a short one per
    # stream, so that the pool runs; at two workers the rhs chunks are 71
    # rows of R^7 (two-caps) or one row of 400 cap angles (200-caps)
    runs = []
    for workers, floats in ((1, _util.CHUNK_FLOATS), (2, 1001), (3, _util.CHUNK_FLOATS)):
        monkeypatch.setattr(_util, "cpu_count", lambda: workers)
        monkeypatch.setattr(_util, "CHUNK_FLOATS", floats)
        runs.append(run_higher_sphere(cap_spec, n, m, 0.7, 10_004, seed=17).summary)
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("cap_spec, n, m, seed", [
    (TWO_CAPS, 3, 6, 1), (ONE_CAP, 2, 5, 9), ({"kind": "subsphere", "dim": 1}, 3, 5, 6),
], ids=["two-caps", "one-cap", "subsphere"])
def test_higher_sphere_one_row_chunks_give_the_same_summary(monkeypatch, cap_spec, n, m, seed):
    # numpy multiplies a one-row matrix by BLAS gemv, which rounds some
    # products differently from gemm; when a one-row chunk took that path,
    # two-caps at seed 1 moved claim_max_gap by 1.1e-16
    alone = run_higher_sphere(cap_spec, n, m, 0.7, 3001, seed=seed).summary
    monkeypatch.setattr(_util, "CHUNK_FLOATS", 1)
    assert _util.chunk_rows(m + 1) == 1
    assert run_higher_sphere(cap_spec, n, m, 0.7, 3001, seed=seed).summary == alone


def test_higher_sphere_rejects_centers_off_the_n_sphere():
    with pytest.raises(DomainError, match="coordinates"):
        run_higher_sphere(ONE_CAP, 3, 5, 0.7, 1000, seed=0)


# ---------------------------------------------------------------------------
# projection harness
# ---------------------------------------------------------------------------


def test_projection_equality_case():
    n, k = 5, 2
    K = product_body(ball(k, 1.0), ball(n - k, 0.0))
    rep = run_projection(K, canonical_frame(n, k), 0.4, 150_000, seed=41,
                         lift_checks=40)
    s = rep.summary
    assert abs(s["lhs"] - s["equality_ref"]) <= 4 * s["lhs_se"]
    assert s["inequality_holds_4se"]
    assert s["lift"]["odd_gap"] <= 1e-12
    assert s["lift"]["waist_contained"] == s["lift"]["waist_checked"]


def test_projection_ball_trivial():
    K = ball(4, 1.0)
    rep = run_projection(K, canonical_frame(4, 2), 0.3, 20_000, seed=43,
                         lift_checks=10)
    assert rep.summary["lhs"] == 1.0


def test_projection_cylinder_gap_grows():
    n, k = 5, 2
    lhs = {}
    for t in (0.05, 0.1):
        K = product_body(ball(k, 1.0), ball(n - k, t))
        rep = run_projection(K, canonical_frame(n, k), 0.3, 150_000,
                             seed=47, lift_checks=10)
        eq_ref = rep.summary["equality_ref"]
        lhs[t] = rep.summary["lhs"]
        assert lhs[t] + 4 * rep.summary["lhs_se"] >= eq_ref
    assert lhs[0.1] > lhs[0.05]


def test_projection_hypothesis_failure():
    K = ball(4, 0.5)
    with pytest.raises(HypothesisError):
        run_projection(K, canonical_frame(4, 2), 0.3, 1000, seed=0)


# ---------------------------------------------------------------------------
# global volume-ratio harness
# ---------------------------------------------------------------------------


def test_global_vr_unit_ball():
    D = ball(4, 1.0)
    L = product_body(ball(2, 0.5), ball(2, 4.0))
    rep = run_global_vr(D, L, 4, 2, trials=4, seed=53, a_frac=0.5,
                        vol_samples=20_000, section_L=canonical_frame(4, 2),
                        opt=OPT)
    s = rep.summary
    assert s["volume_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert s["rs_ratio"] == pytest.approx(2.0 ** 4, rel=0.05)  # K - K = 2D
    assert s["rs_holds_3se"]


def test_global_vr_ellipsoid_pipeline_fields():
    K = ellipsoid([1.0, 1.2, 1.3, 1.4])
    L = product_body(ball(2, 0.5), ball(2, 4.0))
    rep = run_global_vr(K, L, 4, 2, trials=5, seed=59, a_frac=0.5,
                        vol_samples=40_000, section_L=canonical_frame(4, 2),
                        opt=OPT)
    s = rep.summary
    assert s["volume_ratio"] == pytest.approx((1.0 * 1.2 * 1.3 * 1.4) ** 0.25, abs=0.02)
    for key in ("volume_ratio", "rs_ratio", "rs_bound", "diff_section_diameter",
                "beta_fit", "two_bodies"):
        assert key in s
    assert len(rep.trials) == 5


def test_global_vr_rejects_a_volume_without_a_hit(monkeypatch):
    # cube(30, 1) fills about 3e-9 of its outer ball: past the volume ratio,
    # which would raise first, |K| has no hit and rs_ratio no denominator
    monkeypatch.setattr(experiments, "volume_ratio", lambda K, samples, seed: 1.0)
    with pytest.raises(EvaluationError, match="hit"):
        run_global_vr(cube(30, 1.0), ball(30, 1.0), 30, 2, trials=1, seed=0,
                      vol_samples=20_000, opt=OPT)


# ---------------------------------------------------------------------------
# the theorem's hypotheses, certified by the optimizer
# ---------------------------------------------------------------------------


def _thin_cap():
    # the cube [-1, 1]^3 with its top facet at x3 = 1 - 1e-7: the unit ball
    # leaves it only near e3, where the gauge exceeds 1 + 1e-9 within 4.5e-4
    # and the support falls below 1 - 1e-9 within 1e-7, caps that 512 random
    # directions miss; the convex-hull stage finds support 1 - 1e-7 at e3
    V = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    V[V[:, 2] > 0, 2] = 1.0 - 1e-7
    return vertex_polytope(V)


@pytest.mark.parametrize("check", [
    lambda K: unit_ball_check(K, canonical_frame(3, 3)),
    lambda K: run_two_bodies(K, cube(3, 1.0), 3, 2, trials=1, seed=0, mode="dual",
                             section_K=canonical_frame(3, 2, offset=1), opt=OPT),
    lambda K: lift_waist(K, canonical_frame(3, 3), [0.0, 0.0, 1.0]),
    lambda K: volume_ratio(K, 1000, seed=0),
], ids=["unit_ball_check", "two-bodies-dual", "lift_waist", "volume_ratio"])
def test_a_thin_cap_outside_the_body_is_refuted(check):
    with pytest.raises(HypothesisError, match="0.9999999 < 1") as exc:
        check(_thin_cap())
    assert np.allclose(exc.value.witness, [0.0, 0.0, 1.0], atol=1e-12)


def test_volume_ratio_needs_a_support():
    with pytest.raises(EvaluationError, match="support"):
        volume_ratio(intersect(cube(3, 1.0), ball(3, 1.5)), 1000, seed=0)


def test_dual_products_need_a_dual_mode():
    with pytest.raises(DomainError, match="dual_products"):
        run_two_bodies(ball(3, 1.0), ball(3, 1.0), 3, 2, trials=1, seed=0, mode="primal",
                       dual_products=True, section_bound=2.0, opt=OPT)


def _assert_certified(entry):
    assert entry["status"] == "certified"
    assert entry["method"] and entry["lower"] >= 1.0 and entry["value"] >= entry["lower"]


def test_report_hypothesis_blocks_are_certified():
    rep = run_two_bodies(cube(3, 1.0), cross_polytope(3, 1.5), 3, 2, trials=2, seed=37,
                         mode="both", section_K=canonical_frame(3, 1),
                         section_L=canonical_frame(3, 2, offset=1),
                         section_bound=3.0 * math.sqrt(3), opt=OPT)
    hyp = rep.summary["hypothesis"]
    assert set(hyp) == {"section_diam_K", "section_diam_L", "section_K", "section_L",
                        "ball_in_PK", "ball_in_QL"}
    _assert_certified(hyp["ball_in_PK"])
    _assert_certified(hyp["ball_in_QL"])
    for name in ("K", "L"):
        entry = hyp[f"section_{name}"]
        assert entry["status"] == "certified" and entry["note"].startswith("exact (")
        assert hyp[f"section_diam_{name}"] == entry["upper_bracket"]
    K = product_body(ball(2, 1.0), ball(2, 0.5))
    rep = run_projection(K, canonical_frame(4, 2), 0.3, 1000, seed=0, lift_checks=2)
    assert set(rep.summary["hypothesis"]) == {"ball_in_PK"}
    _assert_certified(rep.summary["hypothesis"]["ball_in_PK"])
    assert rep.summary["hypothesis"]["ball_in_PK"]["method"] == "Cauchy-Schwarz"


# ---------------------------------------------------------------------------
# report determinism
# ---------------------------------------------------------------------------


def test_reports_byte_identical(tmp_path):
    flat = product_body(ball(2, 1.0), ball(1, 0.0))
    runs = []
    for _ in range(2):
        runs.append(run_core_lemma(flat, flat, 0.4, 0.35, trials=8, seed=61,
                                   sigma_samples=10_000, net_probes=512, opt=OPT))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    runs[0].write_trials_csv(p1)
    runs[1].write_trials_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    runs[0].write_json(j1)
    runs[1].write_json(j2)
    import json

    d1 = json.loads(j1.read_text())
    d2 = json.loads(j2.read_text())
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    assert d1 == d2


def test_report_records_drawn_seed():
    D = ball(2, 1.0)
    rep = run_two_bodies(D, D, 2, 1, trials=2, seed=None, section_bound=2.0, opt=OPT)
    assert isinstance(rep.seed, int)
    rep2 = run_two_bodies(D, D, 2, 1, trials=2, seed=rep.seed, section_bound=2.0, opt=OPT)
    assert rep.trials == rep2.trials


def test_results_independent_of_worker_count(monkeypatch):
    D = ball(3, 1.0)

    def run():
        return run_two_bodies(D, D, 3, 2, trials=6, seed=71, section_bound=2.0, opt=OPT)

    monkeypatch.setenv("WAISTLAB_THREADS", "1")
    serial = run()
    monkeypatch.setenv("WAISTLAB_THREADS", "4")
    threaded = run()
    assert serial.trials == threaded.trials
    assert serial.to_json_dict(include_wall_time=False) == \
        threaded.to_json_dict(include_wall_time=False)


# ---------------------------------------------------------------------------
# trial-count independence: the trials of one batch do not leak into each
# other, so the first trials of a longer run equal a shorter run's
# ---------------------------------------------------------------------------


def _first_trials_agree(run):
    short, longer = run(3), run(5)
    assert len(longer.trials) == 5
    assert short.trials == longer.trials[:3]


def test_two_bodies_primal_trial_count_independent():
    n, k = 6, 3
    m2 = max(1, math.ceil(0.25 * k))
    K = truncated_cylinder(ball(k, 0.5), n, truncation_radius=1e4)
    L = product_body(ball(m2, 1e4), ball(n - m2, 0.5))
    _first_trials_agree(lambda t: run_two_bodies(
        K, L, n, k, trials=t, seed=31, a_frac=0.25,
        section_L=canonical_frame(n, n - m2, offset=m2), opt=OPT))


def test_two_bodies_both_modes_trial_count_independent():
    K, L = cube(3, 1.0), cross_polytope(3, 1.5)
    _first_trials_agree(lambda t: run_two_bodies(
        K, L, 3, 2, trials=t, seed=37, mode="both", dual_products=True,
        section_K=canonical_frame(3, 1), section_L=canonical_frame(3, 2, offset=1),
        section_bound=3.0 * math.sqrt(3), opt=OPT))


def test_sections_trial_count_independent():
    _first_trials_agree(lambda t: run_sections(ellipsoid([1.0, 1.5, 0.7, 2.0]), 4, 2,
                                               trials=t, seed=41, opt=OPT))


def test_core_trial_count_independent():
    flat = product_body(ball(3, 1.0), ball(1, 0.0))
    _first_trials_agree(lambda t: run_core_lemma(flat, flat, 0.4, 0.35, trials=t, seed=43,
                                                 sigma_samples=10_000, net_probes=512,
                                                 opt=OPT))


# ---------------------------------------------------------------------------
# the harnesses' estimator calls
# ---------------------------------------------------------------------------


def test_harnesses_measure_trials_through_the_public_estimators(monkeypatch):
    # a tracer that wraps the three public estimator names sees every batch
    # of trials: one call per quantity, with one result per trial
    seen = []
    for name in ("diameter_of_intersection", "inclusion_radius", "section_diameter"):
        def counting(*args, _name=name, _real=getattr(experiments, name), **kwargs):
            out = _real(*args, **kwargs)
            seen.append((_name, len(out) if isinstance(out, list) else None))
            return out

        monkeypatch.setattr(experiments, name, counting)
    run_two_bodies(cube(3, 1.0), cross_polytope(3, 1.5), 3, 2, trials=4, seed=37,
                   mode="both", dual_products=True,
                   section_K=canonical_frame(3, 1),
                   section_L=canonical_frame(3, 2, offset=1),
                   section_bound=3.0 * math.sqrt(3), opt=OPT)
    # every hull-of-union radius of these polytopes is certified, so the
    # polar diameter is called with the open trials: none
    assert seen == [("section_diameter", None), ("section_diameter", None),
                    ("diameter_of_intersection", 4), ("inclusion_radius", 4),
                    ("inclusion_radius", 4), ("diameter_of_intersection", 0)]
    seen.clear()
    flat = product_body(ball(3, 1.0), ball(1, 0.0))
    run_core_lemma(flat, flat, 0.4, 0.35, trials=5, seed=43, sigma_samples=10_000,
                   net_probes=512, opt=OPT)
    assert seen == [("inclusion_radius", 5)]
    seen.clear()
    run_sections(ellipsoid([1.0, 1.5, 0.7, 2.0]), 4, 2, trials=3, seed=41, opt=OPT)
    assert seen == [("section_diameter", None), ("section_diameter", 3)]
