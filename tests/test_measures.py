import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from waistlab import _util, measures
from waistlab.bodies import (ball, cross_polytope, cube, ellipsoid, mc_volume, minkowski_sum,
                             product_body, vertex_polytope)
from waistlab.errors import DomainError
from waistlab.estimators import mc_sigma_body
from waistlab.measures import (BoundConstants, SubsphereQuery, cap_angle, cap_angle_compl,
                               cap_bounds, chisq_cdf, gaussian_fact_check,
                               lip_bounds, sigma_ball_product, sigma_exact,
                               sigma_exact_array, sigma_lip_lower, sigma_mc)


# ---------------------------------------------------------------------------
# sigma_exact against independent oracles
# ---------------------------------------------------------------------------


def test_band_on_two_sphere_anchor():
    # band of geodesic half-width theta around a great circle has area sin(theta)
    theta = math.pi / 6
    oracle = math.sin(theta)
    assert abs(sigma_exact(SubsphereQuery(2, 1, theta)) - oracle) < 1e-12
    assert abs(oracle - 0.5) < 1e-12


def test_uniform_beta_anchor():
    # (m=3, j=1): the squared perpendicular component is uniform on [0,1]
    theta = math.asin(0.5)
    assert abs(sigma_exact(SubsphereQuery(3, 1, theta)) - 0.25) < 1e-12


def test_full_sphere_at_right_angle():
    assert sigma_exact(SubsphereQuery(5, 4, math.pi / 2)) == pytest.approx(1.0, abs=1e-15)


def test_circle_arcs_anchor():
    # two arcs of half-width theta around antipodal points: measure 2*theta/pi
    theta = math.pi / 4
    assert abs(sigma_exact(SubsphereQuery(1, 0, theta)) - 2 * theta / math.pi) < 1e-12


def test_sigma_exact_quadrature_oracle():
    # independent oracle: integrate the Beta((m-j)/2,(j+1)/2) density
    for m, j, th in [(4, 2, 0.7), (9, 3, 0.4), (17, 0, 1.0)]:
        a, b = (m - j) / 2, (j + 1) / 2
        dens = lambda t: t ** (a - 1) * (1 - t) ** (b - 1) / (math.gamma(a) * math.gamma(b) / math.gamma(a + b))
        oracle, err = quad(dens, 0.0, math.sin(th) ** 2)
        assert abs(sigma_exact(SubsphereQuery(m, j, th)) - oracle) < 1e-10 + 10 * err


def test_sigma_exact_domain_errors():
    with pytest.raises(DomainError):
        SubsphereQuery(3, 3, 0.5)
    with pytest.raises(DomainError):
        SubsphereQuery(3, -1, 0.5)
    with pytest.raises(DomainError):
        SubsphereQuery(3, 1, 0.0)
    with pytest.raises(DomainError):
        SubsphereQuery(3, 1, math.pi / 2 + 1e-9)


def test_complement_identity_spot():
    for m, j, th in [(7, 3, 0.4), (60, 17, 1.1), (2, 0, 0.9)]:
        lhs = sigma_exact(SubsphereQuery(m, j, th)) + sigma_exact(
            SubsphereQuery(m, m - j - 1, math.pi / 2 - th))
        assert abs(lhs - 1.0) < 1e-12


def test_monotonicity_random_sweep(rng):
    for _ in range(500):
        m = int(rng.integers(2, 50))
        j = int(rng.integers(0, m))
        th = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        v = sigma_exact(SubsphereQuery(m, j, th))
        assert sigma_exact(SubsphereQuery(m, j, min(th + 0.03, math.pi / 2))) >= v - 1e-14
        if j + 1 < m:
            assert sigma_exact(SubsphereQuery(m, j + 1, th)) >= v - 1e-14
        assert sigma_exact(SubsphereQuery(m + 1, j, th)) <= v + 1e-14


def test_strict_monotonicity_interior():
    v1 = sigma_exact(SubsphereQuery(6, 2, 0.5))
    v2 = sigma_exact(SubsphereQuery(6, 2, 0.6))
    v3 = sigma_exact(SubsphereQuery(6, 3, 0.5))
    assert v2 > v1 and v3 > v1


# ---------------------------------------------------------------------------
# sigma_mc
# ---------------------------------------------------------------------------


def test_sigma_mc_matches_exact():
    for i, (m, j, th) in enumerate([(2, 1, math.pi / 6), (1, 0, math.pi / 4), (8, 3, 0.6)]):
        q = SubsphereQuery(m, j, th)
        est, se = sigma_mc(q, 200_000, seed=i)
        assert abs(est - sigma_exact(q)) <= 4 * max(se, 1e-9)


def test_sigma_mc_deterministic():
    q = SubsphereQuery(5, 2, 0.8)
    assert sigma_mc(q, 50_000, seed=7) == sigma_mc(q, 50_000, seed=7)


def test_sigma_mc_rejects_zero_samples():
    with pytest.raises(DomainError):
        sigma_mc(SubsphereQuery(2, 1, 0.5), 0)


# (m, j, theta), samples, seed and the exact (est, se) that sigma_mc gave
# at one and at two workers; 10^6 rows at m = 30 are 244 blocks of
# STREAM_ROWS (4096) and a short one of 576 rows
SIGMA_MC_GOLDEN = [
    ((3, 1, 0.5), 100_000, 1, (0.22997, 0.0013307283686011958)),
    ((15, 7, 0.9), 123_457, 2, (0.7354463497412055, 0.001255378012246498)),
    ((30, 15, 0.7), 1_000_000, 3, (0.297152, 0.0004570040359734255)),
]


@pytest.mark.parametrize("query, samples, seed, expected", SIGMA_MC_GOLDEN,
                         ids=["m3", "m15", "m30"])
def test_sigma_mc_golden_values(query, samples, seed, expected):
    assert sigma_mc(SubsphereQuery(*query), samples, seed=seed) == expected


def test_sigma_mc_does_not_depend_on_the_chunk_size(monkeypatch):
    query, samples, seed, expected = SIGMA_MC_GOLDEN[0]
    # 7 rows of R^4 at one worker (3 at two); 4096 = 7 * 585 + 1
    monkeypatch.setattr(_util, "CHUNK_FLOATS", 7 * 4)
    assert _util.chunk_rows(4) == 7
    assert sigma_mc(SubsphereQuery(*query), samples, seed=seed) == expected


@pytest.mark.parametrize("golden, rows", [
    (SIGMA_MC_GOLDEN[1], 7),     # 4096 = 7 * 585 + 1
    (SIGMA_MC_GOLDEN[2], 1003),  # 4096 = 1003 * 4 + 84
], ids=["m15", "m30"])
def test_sigma_mc_golden_values_at_chunks_of_odd_rows(monkeypatch, golden, rows):
    query, samples, seed, expected = golden
    monkeypatch.setattr(_util, "CHUNK_FLOATS", (query[0] + 1) * rows)
    assert _util.chunk_rows(query[0] + 1) == rows
    assert sigma_mc(SubsphereQuery(*query), samples, seed=seed) == expected


def _hit_rows(q, rows, seed):
    """sigma_mc's hit test of the first `rows` rows of block 0's stream,
    one bool a row."""
    tested = []

    def one_chunk(samples, width, hits, seed):
        tested.append(hits(_util.block_rng(_util.seed_sequence(seed), 0), samples))
        return 0.0, 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "hit_fraction", one_chunk)
        sigma_mc(q, rows, seed=seed)
    return tested[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 40), data=st.data(),
       theta=st.floats(0.0, math.pi / 2, exclude_min=True),
       seed=st.integers(0, 2**32 - 1))
def test_sigma_mc_hit_test_is_the_two_sum_test_row_for_row(m, data, theta, seed):
    # the hit test perp <= s^2 (perp + par) on the squared Gaussian rows,
    # as sums over the coordinates off and on the span; rows may differ
    # only where its two sides agree to the rounding of those sums
    j = data.draw(st.integers(0, m - 1))
    g = _util.block_rng(np.random.SeedSequence(seed), 0).standard_normal((500, m + 1)) ** 2
    perp, par = g[:, j + 1:].sum(axis=1), g[:, : j + 1].sum(axis=1)
    bound = math.sin(theta) ** 2 * (perp + par)
    near = np.abs(perp - bound) <= 4 * (m + 1) * np.finfo(float).eps * (perp + par)
    hits = _hit_rows(SubsphereQuery(m, j, theta), 500, seed)
    assert np.array_equal(hits[~near], (perp <= bound)[~near])


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sigma_mc_memory_does_not_grow_with_samples():
    # whole batches of 2^19 rows peaked at 256 MB here
    assert _peak_mb(lambda: sigma_mc(SubsphereQuery(30, 15, 0.7), 10**6)) < 16


def test_mc_sigma_body_golden_value_and_chunk_size(monkeypatch):
    # the exact (est, se) at one and at two workers
    K = product_body(ball(2, 1.0), ball(3, 0.2))
    assert mc_sigma_body(K, 0.3, 300_001, seed=4) == (0.12459625134582884, 0.0006029694904503585)
    alone = mc_sigma_body(K, 0.3, 20_001, seed=5)
    monkeypatch.setattr(_util, "CHUNK_FLOATS", 7 * 5)  # 7 points of R^5
    assert mc_sigma_body(K, 0.3, 20_001, seed=5) == alone


# each of hit_fraction's three samplers, as sampler(seed), with its
# STREAM_ROWS; each draws several blocks, so that the pool runs.  The
# vertex polytope's distances are least-distance programs; those of the
# cube's sum with an ellipsoid, a curved summand, are SLSQP solves
# (optimize.nearest_points) at about 1.3 ms a point, which hold the
# interpreter lock and run here from pool threads, so its blocks are
# shorter than the default
POOLED_SAMPLERS = {
    "sigma_mc": (lambda seed: sigma_mc(SubsphereQuery(15, 7, 0.9), 20_001, seed=seed),
                 _util.STREAM_ROWS),
    "mc_sigma_body": (lambda seed: mc_sigma_body(product_body(ball(2, 1.0), ball(3, 0.2)),
                                                 0.3, 20_001, seed=seed), _util.STREAM_ROWS),
    "mc_sigma_body-polytope": (
        lambda seed: mc_sigma_body(vertex_polytope(np.random.default_rng(3).standard_normal((6, 3))),
                                   0.4, 20_001, seed=seed), _util.STREAM_ROWS),
    "mc_sigma_body-curved-sum": (
        lambda seed: mc_sigma_body(minkowski_sum(cube(3, 0.4), ellipsoid([0.3, 0.2, 0.25])),
                                   0.4, 1001, seed=seed), 250),
    "mc_volume": (lambda seed: mc_volume(cross_polytope(3, 1.0), 20_001, seed=seed),
                  _util.STREAM_ROWS),
}


@pytest.mark.parametrize("name", POOLED_SAMPLERS)
def test_mc_samplers_do_not_depend_on_the_worker_count_or_the_chunk(monkeypatch, name):
    sampler, rows = POOLED_SAMPLERS[name]
    monkeypatch.setattr(_util, "STREAM_ROWS", rows)
    ss = np.random.SeedSequence(17)
    runs = []
    for workers, floats in ((1, _util.CHUNK_FLOATS), (2, 1001), (3, _util.CHUNK_FLOATS)):
        monkeypatch.setattr(_util, "cpu_count", lambda: workers)
        monkeypatch.setattr(_util, "CHUNK_FLOATS", floats)
        runs.append(sampler(ss))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    # the blocks' streams are built from ss, not spawned from it
    assert ss.n_children_spawned == 0


@pytest.mark.parametrize("run", [
    lambda n: sigma_mc(SubsphereQuery(15, 7, 0.9), n, seed=1),
    lambda n: mc_sigma_body(ball(3, 0.5), 0.3, n, seed=1),
    lambda n: mc_volume(cross_polytope(3, 1.0), n, seed=1),
], ids=["sigma_mc", "mc_sigma_body", "mc_volume"])
def test_mc_samplers_take_integer_sample_counts_only(run):
    for samples in (1e4, 10.5):
        with pytest.raises(DomainError, match="samples"):
            run(samples)
    assert run(np.int64(5000)) == run(5000)


class BlockFailed(Exception):
    pass


def _hit_fraction_of(seed):
    return _util.hit_fraction(9000, 3, lambda rng, m: rng.standard_normal((m, 3))[:, 0] > 0, seed)


def _within(seconds, fn):
    """fn() run on its own thread, so that a pool that deadlocks fails the
    test instead of hanging it; fn's exception is raised here."""
    out = []

    def run():
        try:
            out.append((True, fn()))
        except BaseException as exc:
            out.append((False, exc))

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=seconds)
    assert not runner.is_alive(), f"block_reduce did not return within {seconds} s"
    ok, value = out[0]
    if not ok:
        raise value
    return value


@pytest.mark.parametrize("workers", [2, 3])
def test_block_pool_raises_a_failed_block_and_serves_the_next_call(monkeypatch, workers):
    monkeypatch.setattr(_util, "cpu_count", lambda: 1)
    serial = _hit_fraction_of(23)
    monkeypatch.setattr(_util, "cpu_count", lambda: workers)
    calls = []
    lock = threading.Lock()

    def chunk(rng, m):
        with lock:
            calls.append(m)
            if len(calls) == 2:
                raise BlockFailed("block failed")
        return m

    with pytest.raises(BlockFailed):
        _within(30, lambda: _util.block_reduce(5 * _util.STREAM_ROWS, 3, chunk,
                                               lambda a, b: a + b, seed=23))
    assert _within(30, lambda: _hit_fraction_of(23)) == serial


@pytest.mark.parametrize("workers", [2, 3])
def test_block_pool_reduces_a_nested_call_without_deadlock(monkeypatch, workers):
    # every block of the outer stream runs a whole hit_fraction, seeded by
    # its own stream, from the caller or from a helper thread of the pool,
    # whose helpers the outer blocks may all hold; the outer blocks'
    # results concatenate in block order
    monkeypatch.setattr(_util, "STREAM_ROWS", 500)

    def outer():
        return _util.block_reduce(
            2001, 3, lambda rng, m: [(m, _hit_fraction_of(int(rng.integers(2**32))))],
            lambda a, b: a + b, seed=29)

    monkeypatch.setattr(_util, "cpu_count", lambda: 1)
    serial = outer()
    assert len(serial) == 5
    monkeypatch.setattr(_util, "cpu_count", lambda: workers)
    # switch threads often, so that a claim or count lost between them shows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _within(30, outer) == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("query", [(3, 1, 0.5), (15, 7, 0.9)], ids=["m3", "m15"])
def test_sigma_mc_streams_are_calibrated_against_sigma_exact(monkeypatch, query):
    # the goldens pin bits, not the quality of the streams: over 300 seeds
    # the z-scores of 2000-row estimates (four blocks of 500 rows, so that
    # a block stream repeated or shared would inflate their spread) have
    # mean 0 and sd 1, within about 4 standard errors of either
    monkeypatch.setattr(_util, "STREAM_ROWS", 500)
    q, samples, seeds = SubsphereQuery(*query), 2000, 300
    p = sigma_exact(q)
    z = np.array([sigma_mc(q, samples, seed=s)[0] - p for s in range(seeds)])
    z /= math.sqrt(p * (1 - p) / samples)
    assert abs(z.mean()) < 4 / math.sqrt(seeds)
    assert abs(z.std(ddof=1) - 1) < 4 / math.sqrt(2 * seeds)


# ---------------------------------------------------------------------------
# sigma_ball_product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k, r, m, s, eps", [
    # flat disks ball(n - 1, 1) x ball(1, 0)
    (5, 1.0, 1, 0.0, 0.5), (5, 1.0, 1, 0.0, 0.6),
    (7, 1.0, 1, 0.0, 0.5), (7, 1.0, 1, 0.0, 0.6),
    # cylinders ball(k, 1) x ball(n - k, s)
    (2, 1.0, 4, 0.1, 0.3), (2, 1.0, 4, 0.3, 0.3),
    (4, 1.0, 6, 0.1, 0.3), (4, 1.0, 6, 0.3, 0.3),
    # hypot(r, s) < 1: both ends of the interval lie where both terms are active
    (3, 0.6, 3, 0.5, 0.3), (2, 0.5, 5, 0.4, 0.45),
])
def test_ball_product_matches_monte_carlo(k, r, m, s, eps):
    K = product_body(ball(k, r), ball(m, s))
    est, se = mc_sigma_body(K, eps, 200_000, seed=100 * (k + m) + int(100 * (s + eps)))
    assert abs(est - sigma_ball_product(k, r, m, s, eps)) <= 4 * max(se, 1e-9)


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 5), (10, 3)])
@pytest.mark.parametrize("r", [1.0, 1.7])
@pytest.mark.parametrize("eps", [0.05, 0.35, 0.9, 1.0])
def test_ball_product_embedded_ball_is_the_subsphere_neighborhood(n, k, r, eps):
    # a ball of radius >= 1 in a k-plane: the sphere points within eps of it
    # are those within geodesic distance asin(eps) of the plane's great sphere
    ref = sigma_exact(SubsphereQuery(n - 1, k - 1, math.asin(eps)))
    assert abs(sigma_ball_product(k, r, n - k, 0.0, eps) - ref) < 1e-12


def test_ball_product_domain_errors():
    with pytest.raises(DomainError):
        sigma_ball_product(0, 1.0, 2, 0.0, 0.3)
    with pytest.raises(DomainError):
        sigma_ball_product(2, -0.1, 2, 0.0, 0.3)
    with pytest.raises(DomainError):
        sigma_ball_product(2, 1.0, 2, 0.0, -0.3)


_dims = st.integers(1, 12)
_radii = st.floats(0.0, 1.5)
_eps = st.floats(0.0, 1.2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_dims, _radii, _dims, _radii, _eps)
def test_ball_product_is_a_measure_symmetric_in_its_factors(k, r, m, s, eps):
    v = sigma_ball_product(k, r, m, s, eps)
    assert 0.0 <= v <= 1.0
    assert sigma_ball_product(m, s, k, r, eps) == v
    if eps >= 1.0:
        assert v == 1.0
    if eps < 1.0 - math.hypot(r, s):
        assert v == 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_dims, _radii, _dims, _radii, _eps, st.floats(0.0, 0.5), st.sampled_from(range(3)))
def test_ball_product_is_nondecreasing_in_eps_and_radii(k, r, m, s, eps, step, which):
    grown = [r, s, eps]
    grown[which] += step
    assume(grown[2] <= 1.2)
    assert sigma_ball_product(k, grown[0], m, grown[1], grown[2]) >= \
        sigma_ball_product(k, r, m, s, eps) - 1e-12


# ---------------------------------------------------------------------------
# sigma_lip_lower
# ---------------------------------------------------------------------------


def test_lip_lower_beta_square_anchor():
    # reduces to the Beta(2,1) CDF, which is x^2
    v = sigma_lip_lower(3, 2, math.pi / 6)
    assert abs(v - 0.25 ** 2) < 1e-12
    assert abs(v - 0.0625) < 1e-12


def test_lip_lower_right_angle():
    assert sigma_lip_lower(3, 2, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_lip_lower_below_subsphere_value(rng):
    for _ in range(300):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, n))
        th = float(rng.uniform(0.05, math.pi / 2))
        assert sigma_lip_lower(n, k, th) <= sigma_exact(SubsphereQuery(n, k, th)) + 1e-13


def test_lip_lower_domain():
    with pytest.raises(DomainError):
        sigma_lip_lower(3, 3, 0.5)
    with pytest.raises(DomainError):
        sigma_lip_lower(3, 0, 0.5)


# ---------------------------------------------------------------------------
# cap_bounds
# ---------------------------------------------------------------------------


def test_cap_bounds_arithmetic_example():
    b = cap_bounds(8, 2, 0.25, BoundConstants(c_small=0.1, C_big=2.0))
    assert b.lower == pytest.approx((0.1 * 0.25) ** 4, rel=1e-12)
    assert b.lower == pytest.approx(3.90625e-7, rel=1e-9)
    assert b.upper == pytest.approx(0.5, rel=1e-12)
    assert b.lower_compl == pytest.approx(0.5, rel=1e-12)
    assert b.upper_compl == pytest.approx(1 - (0.1 * 0.25) ** 2, rel=1e-12)


def test_cap_bounds_sandwich_worked_case():
    # exact beta evaluation pins admissible constants at this grid point
    n, k, eps = 8, 2, 0.25
    target = sigma_exact(SubsphereQuery(n - 1, n - k - 1, cap_angle(n, k, eps)))
    b = cap_bounds(n, k, eps, BoundConstants(c_small=0.01, C_big=30.0))
    assert b.lower <= target <= b.upper


def test_cap_bounds_complement_sums():
    b = cap_bounds(10, 3, 0.2)
    assert b.lower_compl == pytest.approx(1.0 - b.upper, abs=1e-15)


def test_cap_bounds_clamped():
    b = cap_bounds(4, 2, 0.49, BoundConstants(c_small=0.2, C_big=1000.0))
    assert b.upper == 1.0 and 0.0 <= b.lower <= 1.0


def test_cap_bounds_domain():
    with pytest.raises(DomainError):
        cap_bounds(8, 1, 0.25)
    with pytest.raises(DomainError):
        cap_bounds(8, 9, 0.25)
    with pytest.raises(DomainError):
        cap_bounds(8, 2, 0.5)


@pytest.mark.parametrize("n, k, eps", [(8, 2, 0.25), (10, 3, 0.2), (5, 5, 0.49)])
def test_cap_angle_compl_complements_cap_angle(n, k, eps):
    total = math.sin(cap_angle(n, k, eps)) ** 2 + math.sin(cap_angle_compl(n, k, eps)) ** 2
    assert total == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n, k, eps", [(8, 1, 0.25), (8, 9, 0.25), (8, 2, 0.0), (8, 2, 0.5),
                                       (8.0, 2, 0.25)])
def test_cap_angle_compl_domain(n, k, eps):
    with pytest.raises(DomainError):
        cap_angle_compl(n, k, eps)


# ---------------------------------------------------------------------------
# lip_bounds
# ---------------------------------------------------------------------------


def test_lip_bounds_arithmetic_example():
    b = lip_bounds(16, 4, 0.1, BoundConstants(c_small=0.05, C_big=10.0))
    assert b.bound_i == pytest.approx(0.005 ** 32, rel=1e-12)
    assert b.bound_ii == 0.0  # C*eps = 1 clamps part (ii) to zero


def test_lip_bounds_clamp_rule():
    b = lip_bounds(16, 4, 0.3, BoundConstants(c_small=0.05, C_big=10.0))
    assert b.bound_ii == 0.0


def test_lip_bound_i_below_relaxed_measure():
    n, k, eps = 16, 4, 0.1
    rhs = sigma_lip_lower(n - 1, n - k - 1, cap_angle(n, k, eps))
    b = lip_bounds(n, k, eps, BoundConstants(c_small=0.01, C_big=2.0))
    assert b.bound_i <= rhs


# ---------------------------------------------------------------------------
# chisq_cdf and gaussian facts
# ---------------------------------------------------------------------------


def test_chisq_exponential_anchor():
    # two degrees of freedom give the exponential law
    assert abs(chisq_cdf(2, 2.0) - (1.0 - math.exp(-1.0))) < 1e-12


def test_chisq_one_dof_erf_anchor():
    assert abs(chisq_cdf(1, 1.0) - math.erf(1.0 / math.sqrt(2.0))) < 1e-12
    assert abs(chisq_cdf(1, 1.0) - 0.6826894921370859) < 1e-12


def test_chisq_zero_and_limits():
    assert chisq_cdf(5, 0.0) == 0.0
    assert chisq_cdf(5, 1e6) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.1, 20.0, 40)
    vals = [chisq_cdf(4, float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_chisq_quadrature_oracle():
    for k, x in [(3, 0.12), (7, 5.0)]:
        dens = lambda t: t ** (k / 2 - 1) * math.exp(-t / 2) / (2 ** (k / 2) * math.gamma(k / 2))
        oracle, err = quad(dens, 0.0, x)
        assert abs(chisq_cdf(k, x) - oracle) < 1e-10 + 10 * err


def test_chisq_domain():
    with pytest.raises(DomainError):
        chisq_cdf(2, -0.1)
    with pytest.raises(DomainError):
        chisq_cdf(2, math.nan)
    with pytest.raises(DomainError):
        chisq_cdf(0, 1.0)


def test_gaussian_fact_worked_cases():
    rep = gaussian_fact_check(1, 2.0, 0.2, BoundConstants(c_small=0.3, C_big=2.0))
    # oracle: P{chi^2_1 > 4} = 1 - erf(sqrt(2))
    assert rep.tail_prob == pytest.approx(1.0 - math.erf(math.sqrt(2.0)), abs=1e-12)
    assert rep.tail_ok
    rep = gaussian_fact_check(3, 2.0, 0.2, BoundConstants(c_small=0.1, C_big=2.0))
    assert rep.smallball_lower == pytest.approx(0.02 ** 3, rel=1e-12)
    assert rep.smallball_upper == pytest.approx(0.4 ** 3, rel=1e-12)
    assert rep.smallball_ok


def test_gaussian_fact_smallball_vanishes():
    probs = [gaussian_fact_check(4, 2.0, e).smallball_prob for e in (1e-2, 1e-4, 1e-6)]
    assert probs[0] > probs[1] > probs[2]
    assert probs[2] < 1e-20


def test_gaussian_fact_domain():
    with pytest.raises(DomainError):
        gaussian_fact_check(3, 1.5, 0.2)
    with pytest.raises(DomainError):
        gaussian_fact_check(3, 2.0, 0.0)


# ---------------------------------------------------------------------------
# constants container
# ---------------------------------------------------------------------------


def test_bound_constants_validation():
    with pytest.raises(DomainError):
        BoundConstants(c_small=0.0)
    with pytest.raises(DomainError):
        BoundConstants(a_frac=1.0)
    assert BoundConstants(a_frac=0.02).a_in_strict_regime
    assert not BoundConstants(a_frac=0.25).a_in_strict_regime


def test_sigma_exact_array_matches_scalar():
    ms = np.array([3, 8, 15])
    js = np.array([1, 2, 6])
    x = np.array([0.2, 0.3, 0.5])
    vec = sigma_exact_array(ms, js, x)
    for i in range(3):
        q = SubsphereQuery(int(ms[i]), int(js[i]), math.asin(math.sqrt(x[i])))
        assert vec[i] == pytest.approx(sigma_exact(q), abs=1e-14)
