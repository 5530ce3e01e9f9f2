"""waistlab benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload cylinder-diam --seed 1 --seconds 20 --trace 0

Runs from any directory; it measures the `src/waistlab` of the checkout it
sits in.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
SETUP_PROBES = 3
# The warm-up job is job 0 of this fixed seed, so set-up does not depend
# on --seed.
WARMUP_SEED = 0
# Seeded outputs differ in their last digits between one and two OpenBLAS
# threads, so the BLAS is pinned to one thread; workers stay <= nproc.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("cylinder-diam", "polytope-dual", "core-net", "sphere-mc")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Checks:
    """Counts output checks; hard failures make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.hard_failed = 0

    def add(self, name: str, ok: bool, hard: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed[name] += 1
            self.hard_failed += hard

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


class Digests:
    """Per-job output digests of one (source tree, versions, workload, seed),
    kept across runs in the checkout; every later sighting must match."""

    def __init__(self, key: str):
        self.path = STATE / "digests" / f"{key}.json"
        self.known = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.ok = {}

    def see(self, index: int, digest: str) -> None:
        idx = str(index)
        match = digest != "error" and self.known.setdefault(idx, digest) == digest
        self.ok[idx] = self.ok.get(idx, True) and match

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "waistlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": "none", "git_dirty": "unknown"}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": "unavailable", "git_dirty": "unknown"}
    return {"git_sha": sha or "none", "git_dirty": bool(status.strip())}


def environment() -> dict:
    import numpy as np
    import scipy
    import waistlab._util

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "waistlab_threads": waistlab._util.worker_count(),
            "waistlab": str(Path(waistlab._util.__file__).parent.relative_to(ROOT)),
            "src_sha256": src_digest()[:16], **git_state()}


def setup_probe(workload: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter that imports the checkout's waistlab
    and runs the warm-up job; the child prints that job's digest."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(WARMUP_SEED)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, "error"
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return wall, "error"
    return wall, json.loads(lines[-1])["digest"]


def run_pass(client, jobs, tracer=None):
    cpu0, t0 = os.times(), time.perf_counter()
    outcomes = [client.run(job, tracer) for job in jobs]
    wall, cpu1 = time.perf_counter() - t0, os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return outcomes, wall, cpu


def job_walls(outcomes) -> list:
    return [o.norm_wall for o in outcomes]


def print_metrics(title, metrics) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "waistlab" / "__init__.py").is_file():
        print(f"error: no waistlab source tree at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import waistlab

    if Path(waistlab.__file__).resolve().parent != (SRC / "waistlab").resolve():
        print(f"error: imported {waistlab.__file__}, not the checkout", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = STATE / f"work-{os.getpid()}"
    try:
        client = workloads.Client(workdir)
        if args.setup_probe:
            out = client.run(workload.make_job(WARMUP_SEED, 0))
            print(json.dumps({"digest": out.digest}))
            return 0
        return measure(args, workload, client)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, client) -> int:
    import workloads
    from metrics import END_TO_END, PER_LAYER, tail

    env = environment()
    key = hashlib.sha256(json.dumps(
        [env["src_sha256"], env["python"], env["numpy"], env["scipy"],
         args.workload, args.seed]).encode()).hexdigest()[:24]
    digests = Digests(key)
    checks = Checks()
    errors = []

    setups, raw_setups = [], []
    cal = workloads.calibration_s()
    for _ in range(SETUP_PROBES):
        wall, digest = setup_probe(args.workload)
        cal_after = workloads.calibration_s()
        raw_setups.append(wall)
        setups.append(wall * workloads.CAL_REF_S / ((cal + cal_after) / 2))
        cal = cal_after
        digests.see(0, digest)
    digests.see(0, client.run(workload.make_job(WARMUP_SEED, 0)).digest)

    njobs = workloads.job_count(workload, args.seconds)
    jobs = [workload.make_job(args.seed, i) for i in range(1, njobs + 1)]
    outcomes, pass_wall, pass_cpu = run_pass(client, jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for job, out in zip(jobs, outcomes):
        digests.see(job.index, out.digest)
        checks.add("job_ran", out.error is None, True)
        if out.error is not None:
            errors.append(f"job {job.index}: {out.error.strip().splitlines()[-1]}")
            continue
        for name, ok, hard in workload.check(job, out):
            checks.add(name, ok, hard)

    walls = job_walls(outcomes)
    busy = sum(walls)
    job_tail, tail_pct = tail(walls)
    e2e = {
        "setup_s": statistics.median(setups),
        "work_per_s": sum(j.work for j in jobs) / busy,
        "job_p50_s": statistics.median(walls),
        "job_tail_s": job_tail,
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} jobs={njobs} "
          f"(+1 warm-up) closed loop, 1 client")
    print("# environment " + json.dumps(env, sort_keys=True))
    raw = [o.wall for o in outcomes]
    print(f"# setup probes (s): {', '.join(f'{s:.3f}' for s in setups)}; as "
          f"measured {', '.join(f'{s:.3f}' for s in raw_setups)}")
    print(f"# jobs as measured: p50 {statistics.median(raw):.4f} s, "
          f"{sum(j.work for j in jobs) / sum(raw):.6g} {workload.unit}/s; "
          f"calibration p50 {statistics.median(o.cal for o in outcomes):.5f} s "
          f"(reference {workloads.CAL_REF_S} s)")
    print(f"# work_per_s counts {workload.unit}; job_tail_s is p{tail_pct} "
          f"of {njobs} jobs")
    print_metrics("end-to-end (tracing off)",
                  {n: (v, END_TO_END[n][0]) for n, v in e2e.items()})

    layer = None
    if args.trace:
        layer = traced_passes(workload, client, jobs, outcomes, digests,
                              pass_wall, pass_cpu, errors)

    for idx, ok in sorted(digests.ok.items(), key=lambda kv: int(kv[0])):
        checks.add("digest_repeats", ok, True)
    digests.save()
    fail_frac = checks.failed_total / checks.attempted
    print(f"# checks: attempted={checks.attempted} failed={checks.failed_total} "
          f"fail_frac={fail_frac:.6g} hard_failed={checks.hard_failed}")
    for name, count in sorted(checks.failed.items()):
        print(f"#   failed {name}: {count}")
    for line in errors[:10]:
        print(f"#   error {line}")

    if layer is not None:
        layer["fail_frac"] = fail_frac
        print_metrics("per-layer (traced run)",
                      {n: (layer[n], unit) for n, (unit, _) in PER_LAYER.items()})
        metrics = {n: {"value": float(layer[n]), "unit": unit}
                   for n, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {n: {"value": float(v), "unit": END_TO_END[n][0]} for n, v in e2e.items()}
    correct = checks.hard_failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed_total, "metrics": metrics}))
    return 0


def traced_passes(workload, client, jobs, outcomes, digests, pass_wall,
                  pass_cpu, errors) -> dict:
    """Traced pass over the same jobs, then (trial workloads) a plain
    single-threaded pass over the first half of them; returns the
    per-layer metrics."""
    import spans
    from metrics import MODULES

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _, _ = run_pass(client, jobs, tracer)
    finally:
        tracer.uninstall()
    for job, out in zip(jobs, traced):
        digests.see(job.index, out.digest)

    untraced_busy = sum(job_walls(outcomes))
    traced_busy = sum(job_walls(traced))
    a = spans.analyse(tracer.spans, tracer.body_spans())
    layer = spans.layer_metrics(a)
    accounts = spans.job_accounts(a)

    serial_busy = pooled_busy = 0.0
    if workload.unit == "trials":
        half = jobs[: len(jobs) // 2]
        saved = os.environ.get("WAISTLAB_THREADS")
        os.environ["WAISTLAB_THREADS"] = "1"
        try:
            serial, _, _ = run_pass(client, half)
        finally:
            if saved is None:
                del os.environ["WAISTLAB_THREADS"]
            else:
                os.environ["WAISTLAB_THREADS"] = saved
        for job, out in zip(half, serial):
            digests.see(job.index, out.digest)
        serial_busy = sum(job_walls(serial))
        pooled_busy = sum(job_walls(outcomes[: len(half)]))
    layer["experiments.serial_pass_s"] = serial_busy
    layer["experiments.threads_speedup"] = serial_busy / pooled_busy if serial_busy else 0.0
    calls = sum(len(job.cli) for job in jobs)
    layer["cli.report_bytes"] = sum(o.report_bytes for o in outcomes) / calls
    layer["process.cpu_per_wall"] = pass_cpu / pass_wall
    layer["process.tracing_overhead"] = traced_busy / untraced_busy - 1.0

    wall = sum(acc["wall"] for acc in accounts.values())
    residual = max(abs(sum(acc[m] for m in MODULES) - acc["wall"])
                   for acc in accounts.values())
    if residual > 1e-6:
        errors.append(f"self times miss the job wall time by {residual:.3g} s")
    for mod in MODULES:
        layer[f"selftime.{mod}_s"] = sum(acc[mod] for acc in accounts.values())
    layer["selftime.wall_s"] = wall

    busy_self = Counter()
    for name, s in zip(a["names"], a["busy_self"]):
        busy_self[spans.module_of(name)] += float(s)
    busy_self["bodies"] += float(a["body_dur"].sum())
    print(f"# self time per module over {len(accounts)} traced jobs "
          f"(tracing overhead {layer['process.tracing_overhead']:+.1%}; "
          f"largest per-job residual {residual:.2e} s)")
    print(f"  {'module':12s} {'wall share s':>13s} {'% of wall':>9s} {'busy self s':>12s}")
    for mod in MODULES:
        share = layer[f"selftime.{mod}_s"]
        print(f"  {mod:12s} {share:13.4f} {100 * share / wall:9.2f} {busy_self[mod]:12.4f}")
    print(f"  {'total':12s} {wall:13.4f} {100.0:9.2f}")
    if serial_busy:
        print(f"# WAISTLAB_THREADS=1 pass over the first half of the jobs: "
              f"{serial_busy:.3f} s vs pooled {pooled_busy:.3f} s (threads speedup "
              f"{layer['experiments.threads_speedup']:.3f}; pool_speedup in the "
              f"traced pass {layer['experiments.pool_speedup']:.3f})")
    return layer


if __name__ == "__main__":
    sys.exit(main())
