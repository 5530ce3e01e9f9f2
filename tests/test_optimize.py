import warnings

import numpy as np
import pytest

from waistlab import optimize
from waistlab.optimize import OptimizerConfig, minimize_on_sphere, minimize_on_sphere_batch

N = 4
CFG = OptimizerConfig(restarts=8, iters=200, seed=1)


def _fields():
    """Four fields on the sphere of R^4 whose descents stop at different
    iterations (165, 90, 136 and 71), the last one infinite on a cap."""
    rng = np.random.default_rng(5)
    fields = []
    for t in range(3):
        B = rng.standard_normal((N, N))
        A = B @ B.T + 3.0 * t * np.eye(N)
        fields.append(lambda V, A=A: ((V @ A) * V).sum(axis=1))
    a = rng.standard_normal(N)
    fields.append(lambda V: np.where(V[:, 0] > 0.5, np.inf, V @ a))
    return fields


def _batched(fields):
    def f(idx, V):
        return np.stack([fields[t](V[j]) for j, t in enumerate(idx)])

    return f


def _assert_same(res, solo):
    assert res.value == solo.value
    assert np.array_equal(res.direction, solo.direction)
    assert res.nfev == solo.nfev


@pytest.mark.parametrize("polish", [False, True])
def test_batch_equals_solo_bit_for_bit(polish):
    cfg = OptimizerConfig(restarts=CFG.restarts, iters=CFG.iters, seed=CFG.seed,
                          polish=polish)
    fields = _fields()
    with np.errstate(invalid="ignore"):
        solo = [minimize_on_sphere(f, N, cfg) for f in fields]
        batch = minimize_on_sphere_batch(_batched(fields), N, len(fields), cfg)
    assert len({r.nfev for r in solo}) == len(fields)  # stopped at different iterations
    for res, one in zip(batch, solo):
        _assert_same(res, one)


def test_infinite_difference_sides_warn_nothing():
    # rows next to the cap have central differences with an infinite side;
    # those components are zero, with no inf - inf and no NaN candidate
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = minimize_on_sphere(_fields()[-1], N, CFG)
    assert np.isfinite(res.value) and np.all(np.isfinite(res.direction))


def test_batch_results_do_not_depend_on_chunking(monkeypatch):
    fields = _fields()
    with np.errstate(invalid="ignore"):
        whole = minimize_on_sphere_batch(_batched(fields), N, len(fields), CFG)
        m = CFG.restarts
        monkeypatch.setattr(optimize, "BATCH_ROWS", 3 * m * N)  # chunks of 3 and 1
        chunked = minimize_on_sphere_batch(_batched(fields), N, len(fields), CFG)
    for res, one in zip(chunked, whole):
        _assert_same(res, one)


def test_batch_call_never_exceeds_row_cap(monkeypatch):
    monkeypatch.setattr(optimize, "BATCH_ROWS", 2 * CFG.restarts * N)
    seen = []
    fields = _fields()[:3]

    def f(idx, V):
        seen.append(V.shape[0] * V.shape[1])
        return _batched(fields)(idx, V)

    minimize_on_sphere_batch(f, N, len(fields), CFG)
    assert max(seen) <= optimize.BATCH_ROWS


def test_polish_counts_unconverged_solves(monkeypatch):
    fields = _fields()[:1]
    res = minimize_on_sphere(fields[0], N, CFG)
    assert res.polish_unconverged == 0
    real = optimize._scipy_minimize
    solves = []

    def capped(*args, **kwargs):
        out = real(*args, **kwargs)
        out.status = 9  # SLSQP: iteration limit reached
        solves.append(out)
        return out

    monkeypatch.setattr(optimize, "_scipy_minimize", capped)
    res = minimize_on_sphere(fields[0], N, CFG)
    assert len(solves) > 1
    assert res.polish_unconverged == len(solves)
    no_polish = OptimizerConfig(restarts=8, iters=200, seed=1, polish=False)
    assert minimize_on_sphere(fields[0], N, no_polish).polish_unconverged == 0
