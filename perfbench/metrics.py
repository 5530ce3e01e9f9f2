"""Metric catalogue and the small statistics the benchmark reports.

Every metric the benchmark can print is declared here once, with its unit;
`BENCHMARK.json` at the repository root must list the same end-to-end and
per-layer names (the self-tests check this).
"""

from __future__ import annotations

import math

# name -> (unit, better, bound).  Measured with tracing off.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "work_per_s": ("1/s", "higher", 0.25),
    "job_p50_s": ("s", "lower", 0.25),
    "job_tail_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_BODY_KINDS = ("gauge", "support", "distance", "contains")
_ESTIMATORS = ("diameter_of_intersection", "inclusion_radius",
               "section_diameter", "mc_sigma_body")
MODULES = ("job", "cli", "experiments", "estimators", "optimize", "bodies",
           "measures", "geometry")


def _per_layer() -> dict:
    m = {
        "optimize.calls": "count", "optimize.s": "s", "optimize.self_s": "s",
        "optimize.nfev": "count", "optimize.nfev_per_call": "count",
    }
    for kind in _BODY_KINDS:
        m[f"bodies.{kind}.calls"] = "count"
        m[f"bodies.{kind}.rows"] = "count"
        m[f"bodies.{kind}.s"] = "s"
    m["bodies.s"] = "s"
    m["bodies.rows_per_call"] = "count"
    for fn in _ESTIMATORS:
        m[f"estimators.{fn}.calls"] = "count"
        m[f"estimators.{fn}.s"] = "s"
    m["estimators.self_s"] = "s"
    m.update({
        "experiments.job_s": "s", "experiments.pretrial_s": "s",
        "experiments.trials_s": "s", "experiments.trial_p50_s": "s",
        "experiments.trial_tail_s": "s", "experiments.pool_speedup": "ratio",
        "experiments.serial_pass_s": "s", "experiments.threads_speedup": "ratio",
        "experiments.cover_ball_with_body.calls": "count",
        "experiments.cover_ball_with_body.s": "s",
        "measures.sigma_exact.calls": "count", "measures.sigma_exact.s": "s",
        "measures.sigma_mc.calls": "count", "measures.sigma_mc.s": "s",
        "measures.sigma_mc.samples_per_s": "1/s",
        "geometry.lift_waist.calls": "count", "geometry.lift_waist.s": "s",
        "geometry.spherical_projection.s": "s",
        "cli.load_config.s": "s", "cli.write.s": "s", "cli.report_bytes": "B",
        "process.cpu_per_wall": "ratio", "process.tracing_overhead": "ratio",
        "fail_frac": "ratio",
    })
    for mod in MODULES:
        m[f"selftime.{mod}_s"] = "s"
    m["selftime.wall_s"] = "s"
    return {name: (unit, "higher" if name in _HIGHER_IS_BETTER else "lower")
            for name, unit in m.items()}


_HIGHER_IS_BETTER = {"bodies.rows_per_call", "experiments.pool_speedup",
                     "experiments.threads_speedup", "measures.sigma_mc.samples_per_s",
                     "process.cpu_per_wall"}

# name -> (unit, better).  Measured in the traced run; no bound.
PER_LAYER = _per_layer()


def tail_rank(n: int, beyond: int = 10) -> tuple[int, int]:
    """(percentile, 1-based rank) of the highest whole percentile of n
    sorted samples that leaves at least `beyond` samples above it, by the
    nearest-rank rule (rank = ceil(p * n / 100))."""
    if n < beyond + 1:
        raise ValueError(f"need at least {beyond + 1} samples, got {n}")
    p = (100 * (n - beyond)) // n
    return p, max(1, math.ceil(p * n / 100))


def tail(values, beyond: int = 10) -> tuple[float, int]:
    """Value at the tail percentile of `values`, and that percentile."""
    p, rank = tail_rank(len(values), beyond)
    return sorted(values)[rank - 1], p
