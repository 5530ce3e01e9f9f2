"""The four benchmark workloads: how each job is generated from the seed,
how the client runs it, and which output checks it must pass.

A job is the unit the closed-loop client sends: one or more
`waistlab experiment` invocations driven in-process through
`waistlab.cli.main`, plus (sphere-mc only) direct library calls.  Job
parameters depend only on (workload, seed, job index); the dimensions and
sizes cycle with the index so that every seed runs the same mix.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import minimize, rosen
from scipy.special import betaincinv

import waistlab
import waistlab.cli
import waistlab.measures


@dataclass
class Job:
    index: int
    cli: list          # [(experiment name, config dict, harness seed)]
    sigma: list        # [(sphere_dim, subsphere_dim, theta, samples, seed)]
    work: int          # trials, or Monte-Carlo samples for sphere-mc
    facts: dict = field(default_factory=dict)  # precomputed check inputs


@dataclass
class Outcome:
    wall: float        # seconds as measured
    cal: float         # mean calibration time just before and after the job
    error: str | None
    reports: list      # parsed report.json per CLI call
    trials: list       # parsed trials.csv rows per CLI call
    sigma: list        # [(estimate, se, exact)]
    digest: str
    report_bytes: int

    @property
    def norm_wall(self) -> float:
        """Job time at the reference calibration speed."""
        return self.wall * CAL_REF_S / self.cal


def _seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _ball(dim, radius):
    return {"kind": "ball", "dim": dim, "radius": radius}


# ---------------------------------------------------------------------------
# job generators
# ---------------------------------------------------------------------------


def _half_ball_inside(spec: dict, n: int) -> bool:
    """Whether the body of `spec` contains the centered 0.5-ball, on 512
    boundary points and by its certified inner radius."""
    body = waistlab.construct_body(waistlab.BodySpec.from_json_dict(spec))
    g = np.random.default_rng(0).standard_normal((512, n))
    pts = 0.5 * g / np.linalg.norm(g, axis=1)[:, None]
    return bool(np.all(body.contains(pts))) and body.inner_radius >= 0.5 - 1e-12


def cylinder_job(seed: int, i: int) -> Job:
    n = (8, 10, 12)[i % 3]
    k, m2 = n // 2, math.ceil(n / 8)
    K = {"kind": "truncated_cylinder", "core": _ball(k, 0.5), "dim": n,
         "truncation_radius": 1e6}
    L = {"kind": "product", "first": _ball(m2, 1e6), "second": _ball(n - m2, 0.5)}
    cfg = {"experiment": "two-bodies", "n": n, "k": k, "trials": 2, "K": K, "L": L,
           "a_frac": 0.25, "section_L": {"k": n - m2, "offset": m2},
           "optimizer": {"restarts": 16, "iters": 60, "seed": 0}}
    facts = {"half_ball": _half_ball_inside(K, n) and _half_ball_inside(L, n)}
    return Job(i, [("two-bodies", cfg, _seed(seed, i))], [], 2, facts)


_SEMIAXES = [1.0, 1.4, 0.8, 1.2, 0.9]


def polytope_job(seed: int, i: int) -> Job:
    n = 3 + (i // 2) % 3
    cube = {"kind": "cube", "dim": n, "half_width": 1.0}
    if i % 2 == 0:
        K, L = cube, {"kind": "cross_polytope", "dim": n, "radius": 1.5}
    else:
        K, L = {"kind": "ellipsoid", "semiaxes": _SEMIAXES[:n]}, cube
    # 1- and 2-dimensional coordinate sections on which both projections
    # contain the unit ball; section_bound clears every section diameter
    cfg = {"experiment": "two-bodies", "n": n, "k": 2, "trials": 1, "K": K, "L": L,
           "mode": "both", "dual_products": True,
           "section_K": {"k": 1, "offset": 0}, "section_L": {"k": 2, "offset": n - 2},
           "section_bound": 3.0 * math.sqrt(n)}
    return Job(i, [("two-bodies", cfg, _seed(seed, i))], [], 1)


_CORE_DELTAS = {6: (0.5, 0.4), 8: (0.6, 0.35)}


def core_job(seed: int, i: int) -> Job:
    # both dimensions in every job, so that all jobs cost alike and the
    # median job is not a pick between two cost classes
    cli = []
    for n, (d_k, d_l) in _CORE_DELTAS.items():
        flat = {"kind": "product", "first": _ball(n - 1, 1.0), "second": _ball(1, 0.0)}
        cfg = {"experiment": "core", "K": flat, "L": flat, "delta_K": d_k,
               "delta_L": d_l, "trials": 5, "sigma_samples": 100_000,
               "net_probes": 2048, "optimizer": {"restarts": 12, "iters": 50, "seed": 0}}
        cli.append(("core", cfg, _seed(seed, i) + n))
    return Job(i, cli, [], 10)


_SIGMA_DIMS = (3, 8, 15, 30)
_SIGMA_SAMPLES = 100_000
_MC_SAMPLES = 40_000


def sphere_job(seed: int, i: int) -> Job:
    rng = np.random.default_rng(_seed(seed, i))
    sigma = []
    for t, m in enumerate(_SIGMA_DIMS):
        j = (0, m // 2, m - 1)[(i + t) % 3]
        qtl = float(rng.uniform(0.2, 0.8))
        x = float(betaincinv((m - j) / 2.0, (j + 1) / 2.0, qtl))
        sigma.append((m, j, math.asin(math.sqrt(x)), _SIGMA_SAMPLES,
                      int(rng.integers(2**31))))
    n = 2 + i % 5
    ncaps = 1 + i % 3
    c = rng.standard_normal((ncaps, n + 1))
    caps = {"kind": "caps", "centers": (c / np.linalg.norm(c, axis=1)[:, None]).tolist(),
            "radii": rng.uniform(0.1, 0.6, ncaps).tolist()}
    higher = {"experiment": "higher-sphere", "cap_spec": caps, "n": n,
              "m": n + 1 + i % 4, "theta": float(rng.uniform(0.3, 1.3)),
              "samples": _MC_SAMPLES}
    pn, pk = 4 + i % 4, 2 + i % 2
    cylinder = {"kind": "product", "first": _ball(pk, 1.0),
                "second": _ball(pn - pk, float(rng.uniform(0.05, 0.3)))}
    projection = {"experiment": "projection", "K": cylinder, "k": pk,
                  "eps": float(rng.uniform(0.2, 0.4)), "samples": _MC_SAMPLES,
                  "lift_checks": 8}
    cli = [("higher-sphere", higher, int(rng.integers(2**31))),
           ("projection", projection, int(rng.integers(2**31)))]
    work = len(_SIGMA_DIMS) * _SIGMA_SAMPLES + 3 * _MC_SAMPLES
    return Job(i, cli, sigma, work)


# ---------------------------------------------------------------------------
# output checks: (name, passed, hard).  Hard checks are invariants whose
# failure makes the run incorrect; the others are accuracy or statistical
# checks that are counted in `failed` and fail_frac.
# ---------------------------------------------------------------------------


def _finite(*vals) -> bool:
    return all(math.isfinite(v) for v in vals)


def check_cylinder(job: Job, out: Outcome) -> list:
    res = [("bodies_contain_half_ball", job.facts["half_ball"], True)]
    for row in out.trials[0]:
        d = row["diameter"]
        res.append(("diameter_finite_ge_1", _finite(d) and d >= 1.0 - 1e-9, True))
    return res


def check_polytope(job: Job, out: Outcome) -> list:
    res = []
    for row in out.trials[0]:
        dp, imax, isum = row["dual_product"], row["incl_max"], row["incl_sum"]
        finite = _finite(dp, imax, isum) and imax > 0
        res.append(("dual_values_finite", finite, True))
        res.append(("dual_product_2_within_1e-4", finite and abs(dp - 2.0) / 2.0 <= 1e-4,
                    False))
        prod = dp / imax * isum if finite else math.nan
        res.append(("sum_product_in_2_4", finite and 2.0 - 1e-9 <= prod <= 4.0 + 1e-9,
                    False))
    return res


def check_core(job: Job, out: Outcome) -> list:
    res = []
    for report, rows in zip(out.reports, out.trials):
        res.append(("bound_holds", report["summary"]["bound_holds"] is True, False))
        res.append(("incl_values_finite", _finite(*(r["incl_value"] for r in rows)), True))
    return res


def check_sphere(job: Job, out: Outcome) -> list:
    res = [("mc_within_4se_of_exact", abs(est - exact) <= 4.0 * max(se, 1e-9), False)
           for est, se, exact in out.sigma]
    higher, projection = (rep["summary"] for rep in out.reports)
    res.append(("higher_inequality_holds_4se", higher["inequality_holds_4se"] is True,
                False))
    res.append(("claim_violations_zero", higher["claim_violations"] == 0, True))
    res.append(("projection_inequality_holds_4se",
                projection["inequality_holds_4se"] is True, False))
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    make_job: object
    check: object
    nominal_job_s: float   # job cost on the reference machine (README.md)
    unit: str              # what work_per_s counts


WORKLOADS = {w.name: w for w in (
    Workload("cylinder-diam", cylinder_job, check_cylinder, 0.95, "trials"),
    Workload("polytope-dual", polytope_job, check_polytope, 0.75, "trials"),
    Workload("core-net", core_job, check_core, 0.8, "trials"),
    Workload("sphere-mc", sphere_job, check_sphere, 0.23, "samples"),
)}

MIN_JOBS = 24


def job_count(workload: Workload, seconds: float) -> int:
    """Measured jobs per run: fixed by --seconds and the workload, never by
    how fast the jobs happen to run, so every run of a seed checks the
    same outputs."""
    return max(MIN_JOBS, round(seconds / workload.nominal_job_s))


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------


def _canonical_report(data: dict) -> bytes:
    data = dict(data)
    data.pop("wall_time_s", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _parse_trials(text: str) -> list:
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({k: float(v) for k, v in row.items()})
    return rows


# The host's speed drifts by up to a third within seconds (a busy sibling
# hyperthread slows everything alike).  A fixed calibration runs before and
# after every job, and each job time is rescaled to the reference
# calibration time CAL_REF_S; see README.md.  The calibration uses SciPy
# and NumPy but no waistlab code, so a change to waistlab moves the
# rescaled times as much as the raw ones.
CAL_REF_S = 0.006
_CAL_REPEATS = 3
_CAL_SORT = np.random.default_rng(0).random(20_000)


def calibration_s() -> float:
    """Fastest of three runs of a fixed Nelder-Mead solve, a Gaussian draw
    and a sort; the minimum drops the runs that a preemption hit."""
    best = math.inf
    for _ in range(_CAL_REPEATS):
        t0 = time.perf_counter()
        minimize(rosen, np.full(4, 0.5), method="Nelder-Mead",
                 options={"maxiter": 100, "xatol": 1e-12, "fatol": 1e-14})
        np.random.default_rng(1).standard_normal((8_000, 8))
        np.sort(_CAL_SORT)
        best = min(best, time.perf_counter() - t0)
    return best


class Client:
    """Runs jobs back to back from one thread, with its files in `workdir`."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._cal = None
        workdir.mkdir(parents=True, exist_ok=True)

    def run(self, job: Job, tracer=None) -> Outcome:
        calls = []
        for c, (name, cfg, seed) in enumerate(job.cli):
            path = self.workdir / f"config{c}.json"
            path.write_text(json.dumps(cfg))
            calls.append(["experiment", name, "--config", str(path),
                          "--seed", str(seed), "--out", str(self.workdir / f"out{c}")])
        rcs, sigma, error = [], [], None
        if self._cal is None:
            self._cal = calibration_s()
        cal_before = self._cal
        sink = io.StringIO()
        span = tracer.open("job", job=job.index) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            for m, j, theta, samples, seed in job.sigma:
                q = waistlab.measures.SubsphereQuery(m, j, theta)
                est, se = waistlab.measures.sigma_mc(q, samples, seed=seed)
                sigma.append((est, se, waistlab.measures.sigma_exact(q)))
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in calls:
                    rcs.append(waistlab.cli.main(argv))
                    if rcs[-1] != 0:
                        break
        except Exception:  # a failed job is recorded and the loop goes on
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        self._cal = calibration_s()
        if error is None and any(rcs):
            error = f"exit codes {rcs}: {sink.getvalue()[-500:]}"
        return self._collect(job, wall, (cal_before + self._cal) / 2, error, sigma)

    def _collect(self, job, wall, cal, error, sigma) -> Outcome:
        h = hashlib.sha256()
        reports, trials, nbytes = [], [], 0
        if error is None:
            for c in range(len(job.cli)):
                out = self.workdir / f"out{c}"
                report_raw = (out / "report.json").read_bytes()
                trials_raw = (out / "trials.csv").read_bytes()
                nbytes += len(report_raw) + len(trials_raw)
                report = json.loads(report_raw)
                h.update(hashlib.sha256(_canonical_report(report)).digest())
                h.update(hashlib.sha256(trials_raw).digest())
                reports.append(report)
                trials.append(_parse_trials(trials_raw.decode()))
            h.update(repr(sigma).encode())
        return Outcome(wall, cal, error, reports, trials, sigma,
                       h.hexdigest() if error is None else "error", nbytes)
