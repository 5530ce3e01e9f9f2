"""The optimizer's Cauchy-Schwarz stage on sums of two Euclidean norms
|u M_1| + |u M_2|: the Minkowski-sum inclusion fields of flat disks, and
random sums drawn by hypothesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waistlab import optimize
from waistlab._util import seed_sequence, sphere_points
from waistlab.bodies import ball, ellipsoid, product_body
from waistlab.estimators import inclusion_radius
from waistlab.experiments import _trial_rotations
from waistlab.geometry import haar_rotation
from waistlab.optimize import OptimizerConfig, minimize_on_sphere, minimize_on_sphere_batch
from waistlab.pieces import Piece, map_pieces, max_of, sum_pieces

CFG = OptimizerConfig(restarts=8, iters=60, seed=0)
OPT = OptimizerConfig(restarts=12, iters=50, seed=0)  # acceptance criterion 9's
ZERO = Piece("smooth", value=lambda V: np.zeros(len(V)))  # leaves any field as it is


def _flat_disk(n):
    return product_body(ball(n - 1, 1.0), ball(1, 0.0))


def _flat_disk_sums(n, rotations):
    flat = _flat_disk(n)
    return sum_pieces((flat.support_pieces, map_pieces(flat.support_pieces, rotations)))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_flat_disk_inclusion_radius_has_its_closed_form(n):
    # h_K(u) + h_K(U^T u) is least at the apex e_n of K's support cone,
    # where it is |(U^T e_n)_{1..n-1}| = sqrt(1 - U_nn^2)
    U = haar_rotation(n, seed=n)
    res = inclusion_radius(_flat_disk(n), _flat_disk(n), U, opt=CFG)
    assert res.note == "exact (Cauchy-Schwarz)" and res.lower_bracket == res.value
    closed = math.sqrt(1.0 - U[n - 1, n - 1] ** 2)
    assert res.value == pytest.approx(closed, rel=4 * np.finfo(float).eps, abs=0)


def test_batched_fields_equal_one_rotation_calls():
    flat = _flat_disk(5)
    rotations = [haar_rotation(5, seed=s) for s in range(6)]
    for r, U in zip(inclusion_radius(flat, flat, rotations, opt=CFG), rotations):
        one = inclusion_radius(flat, flat, U, opt=CFG)
        assert r.value == one.value and np.array_equal(r.direction, one.direction)


def _criterion_9_rotations(n, count):
    # the first rotations of acceptance criterion 9's run at n (seed 900 + n)
    s_trials = seed_sequence(900 + n).spawn(3)[2]
    return _trial_rotations(s_trials, n, count)


@pytest.mark.parametrize("K, L", [
    (_flat_disk(4), _flat_disk(4)), (_flat_disk(6), _flat_disk(6)), (_flat_disk(8), _flat_disk(8)),
    (ellipsoid([1.0, 1.2, 0.9, 1.1]), ellipsoid([0.8, 1.3, 1.0, 0.7]))],
    ids=["disk4", "disk6", "disk8", "ellipsoids4"])
def test_descent_never_beats_the_exact_value(K, L):
    # criterion 9's flat disks have their minima at the apexes, at the ends
    # of w; the ellipsoids of criterion 10a have theirs inside (0, 1)
    n = K.dim
    rotations = _criterion_9_rotations(n, 20)
    pieces = sum_pieces((K.support_pieces, map_pieces(L.support_pieces, rotations)))
    exact = minimize_on_sphere_batch(pieces, n, len(rotations), OPT)
    # the zero smooth piece sends the same fields past the exact stage
    found = minimize_on_sphere_batch(pieces + (ZERO,), n, len(rotations), OPT)
    for res, other in zip(exact, found):
        assert res.stage == "exact" and other.stage in ("descent", "polish")
        assert other.value >= res.value * (1.0 - 1e-14)


@pytest.mark.parametrize("n, budget", [(4, 40), (6, 40), (8, 40)])
def test_kernel_end_ladders_prune_the_flat_disk_fields(n, budget):
    # the minima sit at the kernel ends, which the ladders prune before the
    # grid, and the grid's first pass prunes the rest: each field takes its
    # 2 kernel-end candidates
    rotations = _criterion_9_rotations(n, 20)
    results = optimize._cauchy_schwarz(_flat_disk_sums(n, rotations), n, len(rotations))
    assert all(res.stage == "exact" for res in results)
    assert sum(res.nfev for res in results) <= budget


# flat-disk fields with c / 2 < beta^2 / sigma^2 < c, where the bound of a
# doubling link [z / 2, z] would grow like z (c / 2 - beta^2 / sigma^2)
# and the field grows like z (c - beta^2 / sigma^2): links at ratio
# 2^(1/8), whose bounds grow like z (0.92 c - beta^2 / sigma^2), climb on
HARD_FLAT_DISKS = [(4, 15), (6, 0), (8, 21)]


@pytest.mark.parametrize("n, seed", HARD_FLAT_DISKS)
def test_fine_ladder_links_certify_kernel_end_minima(n, seed):
    U = haar_rotation(n, seed=seed)
    res, = optimize._cauchy_schwarz(_flat_disk_sums(n, U[None]), n, 1)
    assert res.stage == "exact" and res.nfev == 2 and res.lower == res.value
    closed = math.sqrt(1.0 - U[n - 1, n - 1] ** 2)
    assert res.value == pytest.approx(closed, rel=4 * np.finfo(float).eps, abs=0)


def _keeps_solo_results_in_lockstep(U):
    # U between easy fields of criterion 9's run: each field's result in
    # one lockstep call is its one-field call's, bit for bit
    n = len(U)
    easy = _criterion_9_rotations(n, 4)
    rotations = np.concatenate([easy[:2], U[None], easy[2:]])
    mixed = optimize._cauchy_schwarz(_flat_disk_sums(n, rotations), n, len(rotations))
    for V, res in zip(rotations, mixed):
        solo, = optimize._cauchy_schwarz(_flat_disk_sums(n, V[None]), n, 1)
        assert (res.value, res.lower, res.stage, res.nfev) == (
            solo.value, solo.lower, solo.stage, solo.nfev)
        assert res.direction.tobytes() == solo.direction.tobytes()
    return mixed[2]


@pytest.mark.parametrize("n, seed", HARD_FLAT_DISKS)
def test_fields_that_climb_the_fine_ladder_keep_their_solo_results_in_lockstep(n, seed):
    _keeps_solo_results_in_lockstep(haar_rotation(n, seed=seed))


def _nearly_coincident(n, t):
    # rotated by t rad in the (e_1, e_n) plane, the two support cones
    # nearly coincide
    U = np.eye(n)
    U[[0, 0, n - 1, n - 1], [0, n - 1, 0, n - 1]] = [math.cos(t), -math.sin(t),
                                                     math.sin(t), math.cos(t)]
    return U


def test_nearly_coincident_disks_carry_the_stage_bound():
    # the search gives up at its budget: the field descends, with the
    # stage's certified bound as its bracket
    n, t = 4, 1e-3
    res = inclusion_radius(_flat_disk(n), _flat_disk(n), _nearly_coincident(n, t), opt=CFG)
    assert res.note == "two-sided via Cauchy-Schwarz"
    assert 0.0 < res.lower_bracket <= res.value
    assert res.value == pytest.approx(math.sin(t), rel=1e-9)


def test_a_field_that_gives_up_keeps_its_solo_result_in_lockstep():
    res = _keeps_solo_results_in_lockstep(_nearly_coincident(4, 1e-3))
    assert res.stage == "bound"


@st.composite
def two_norm_sums(draw):
    """(n, pieces): |u M_1| + |u M_2| on R^n, n = 2-8.  M_i is a Gaussian
    n x rank matrix times a Gaussian rank x k one, k = rank to rank + 2
    (rank 0: a zero column), or orthonormal columns, times a power of ten
    from 1e-3 to 1e3; ranks below n give the kernel ends."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(2):
        rank = draw(st.integers(0, n))
        if rank == 0:
            M = np.zeros((n, 1))
        elif draw(st.booleans()):
            M = np.linalg.qr(rng.standard_normal((n, rank)))[0]
        else:
            k = rank + draw(st.integers(0, 2))
            M = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, k))
        parts.append((Piece("l2", 10.0 ** draw(st.integers(-3, 3)) * M),))
    return n, (Piece("sum", parts=tuple(parts)),)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(two_norm_sums())
def test_cauchy_schwarz_results_are_attained_bracketed_and_minimal(field):
    n, pieces = field
    res = minimize_on_sphere(pieces, n, CFG)
    assert res.value == max_of(pieces, res.direction[None])[0]
    assert res.value >= res.lower * (1.0 - 1e-12)
    if res.stage == "exact":
        V = sphere_points(np.random.default_rng(n), 20_000, n)
        assert res.value <= max_of(pieces, V).min() * (1.0 + 1e-12)


def test_the_stage_sees_every_sum_of_two_norms(monkeypatch):
    seen = []
    real = optimize._cauchy_schwarz

    def recording(pieces, n, count):
        seen.append(count)
        return real(pieces, n, count)

    monkeypatch.setattr(optimize, "_cauchy_schwarz", recording)
    inclusion_radius(_flat_disk(4), _flat_disk(4), [np.eye(4)] * 3, opt=CFG)
    assert seen == [3]  # one lockstep call for the three fields
