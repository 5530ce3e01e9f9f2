"""Batch front door: measure calculator, bound evaluator, body inspector,
config-driven experiment runner, and the invariant verifier.

Exit codes: 0 success, 1 failed verification, 2 usage or schema error,
3 infeasible configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._util import canonical_dumps, write_csv
from .bodies import BodySpec, construct_body
from .errors import (ConfigError, DomainError, InfeasibleScheduleError,
                     SpecError, WaistlabError)
from .geometry import Subspace
from .measures import (BoundConstants, DEFAULT_CONSTANTS, SubsphereQuery,
                       cap_bounds, chisq_cdf, lip_bounds, sigma_exact, sigma_mc)
from .optimize import DEFAULT_OPT, OptimizerConfig

EXPERIMENT_NAMES = ("two-bodies", "sections", "core", "higher-sphere",
                    "projection", "global-vr")

_COMMON_OPTIONAL = {"experiment", "seed", "schedule", "optimizer"}

_SCHEMAS = {
    "two-bodies": ({"n", "k", "trials", "K", "L"},
                   {"a_frac", "c_ref", "mode", "dual_products",
                    "section_K", "section_L", "section_bound"}),
    "sections": ({"K", "k_exist", "k_query", "trials"},
                 {"thresholds", "threshold", "section"}),
    "core": ({"K", "L", "delta_K", "delta_L", "trials"},
             {"sigma_samples", "net_probes"}),
    "higher-sphere": ({"cap_spec", "n", "m", "theta", "samples"}, set()),
    "projection": ({"K", "k", "eps", "samples"}, {"lift_checks"}),
    "global-vr": ({"K", "L", "n", "k", "trials"},
                  {"a_frac", "vol_samples", "section_L", "section_diff"}),
}

_SCHEDULE_KEYS = ({"n", "k"}, {"a_frac", "C1_sched", "c2_sched"})
_OPTIMIZER_KEYS = (set(), {"restarts", "iters", "seed", "step0", "polish"})
_SUBSPACE_KEYS = (set(), {"k", "offset", "frame"})


def _require_keys(obj: dict, required: set, optional: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in sorted(required):
        if key not in obj:
            raise ConfigError(f"missing key {key!r} in {where}")


def load_config(path) -> dict:
    """Parse and schema-validate an experiment configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON "
                          f"(line {exc.lineno}, column {exc.colno}: {exc.msg})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    name = data.get("experiment")
    if name is None:
        raise ConfigError("missing key 'experiment' in config")
    if name not in _SCHEMAS:
        raise ConfigError(f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}")
    required, optional = _SCHEMAS[name]
    _require_keys(data, required, optional | _COMMON_OPTIONAL, "config")
    for key in ("K", "L"):
        if key in data:
            try:
                BodySpec.from_json_dict(data[key])
            except SpecError as exc:
                raise ConfigError(f"body {key!r}: {exc}") from exc
    if "cap_spec" in data:
        spec = data["cap_spec"]
        if not (isinstance(spec, dict) and spec.get("kind") in ("caps", "subsphere")):
            raise ConfigError("cap_spec must be an object with kind 'caps' or 'subsphere'")
    for key in ("section_K", "section_L", "section", "section_diff"):
        if key in data and data[key] is not None:
            _require_keys(data[key], *_SUBSPACE_KEYS, where=key)
    if "optimizer" in data:
        _require_keys(data["optimizer"], *_OPTIMIZER_KEYS, where="optimizer")
    if "schedule" in data:
        from .experiments import theorem_schedule

        _require_keys(data["schedule"], *_SCHEDULE_KEYS, where="schedule")
        sched = data["schedule"]
        consts = BoundConstants(
            a_frac=sched.get("a_frac", DEFAULT_CONSTANTS.a_frac),
            C1_sched=sched.get("C1_sched", DEFAULT_CONSTANTS.C1_sched),
            c2_sched=sched.get("c2_sched", DEFAULT_CONSTANTS.c2_sched))
        theorem_schedule(int(sched["n"]), int(sched["k"]), consts)
    return data


def _subspace_from(cfg, n) -> Subspace | None:
    if cfg is None:
        return None
    if "frame" in cfg:
        return Subspace.from_frame(cfg["frame"])
    return Subspace.canonical(n, int(cfg["k"]), int(cfg.get("offset", 0)))


def _optimizer_from(cfg) -> OptimizerConfig:
    if not cfg:
        return DEFAULT_OPT
    return OptimizerConfig(
        restarts=int(cfg.get("restarts", DEFAULT_OPT.restarts)),
        iters=int(cfg.get("iters", DEFAULT_OPT.iters)),
        seed=int(cfg.get("seed", DEFAULT_OPT.seed)),
        step0=float(cfg.get("step0", DEFAULT_OPT.step0)),
        polish=bool(cfg.get("polish", DEFAULT_OPT.polish)))


def run_experiment_config(config: dict, seed=None):
    """Dispatch a validated configuration to its harness."""
    from . import experiments as ex

    name = config["experiment"]
    if seed is None:
        seed = config.get("seed")
    opt = _optimizer_from(config.get("optimizer"))
    if name == "two-bodies":
        n = int(config["n"])
        return ex.run_two_bodies(
            construct_body(config["K"]), construct_body(config["L"]),
            n, int(config["k"]), trials=int(config["trials"]), seed=seed,
            a_frac=float(config.get("a_frac", 0.25)),
            c_ref=float(config.get("c_ref", 2.0)),
            section_K=_subspace_from(config.get("section_K"), n),
            section_L=_subspace_from(config.get("section_L"), n),
            mode=config.get("mode", "primal"),
            dual_products=bool(config.get("dual_products", False)),
            section_bound=float(config.get("section_bound", 1.0)),
            opt=opt)
    if name == "sections":
        K = construct_body(config["K"])
        return ex.run_sections(
            K, int(config["k_exist"]), int(config["k_query"]),
            int(config["trials"]), seed=seed,
            section=_subspace_from(config.get("section"), K.dim),
            thresholds=tuple(config.get("thresholds", (2.0, 4.0, 8.0))),
            threshold=config.get("threshold"),
            opt=opt)
    if name == "core":
        return ex.run_core_lemma(
            construct_body(config["K"]), construct_body(config["L"]),
            float(config["delta_K"]), float(config["delta_L"]),
            int(config["trials"]), seed=seed,
            sigma_samples=int(config.get("sigma_samples", 200_000)),
            net_probes=int(config.get("net_probes", 4096)),
            opt=opt)
    if name == "higher-sphere":
        return ex.run_higher_sphere(
            config["cap_spec"], int(config["n"]), int(config["m"]),
            float(config["theta"]), int(config["samples"]), seed=seed)
    if name == "projection":
        K = construct_body(config["K"])
        return ex.run_projection(
            K, Subspace.canonical(K.dim, int(config["k"])),
            float(config["eps"]), int(config["samples"]), seed=seed,
            lift_checks=int(config.get("lift_checks", 200)))
    if name == "global-vr":
        n = int(config["n"])
        return ex.run_global_vr(
            construct_body(config["K"]), construct_body(config["L"]),
            n, int(config["k"]), int(config["trials"]), seed=seed,
            a_frac=float(config.get("a_frac", 1.0 / 3.0)),
            vol_samples=int(config.get("vol_samples", 200_000)),
            section_L=_subspace_from(config.get("section_L"), n),
            section_diff=_subspace_from(config.get("section_diff"), n),
            opt=opt)
    raise ConfigError(f"unknown experiment {name!r}")


def emit_plot_data(report, path) -> None:
    """Per-trial plot table (trial, diameter, success, n, k) at `path`, and a
    quantile summary per (n, k) in a sibling *_summary.csv file."""
    reports = report if isinstance(report, (list, tuple)) else [report]
    rows = []
    for rep in reports:
        n = rep.config.get("n", "")
        k = rep.config.get("k", "")
        for trial in rep.trials:
            rows.append([trial.get("trial", ""), trial.get("diameter", ""),
                         trial.get("success", ""), n, k])
    path = Path(path)
    write_csv(path, ["trial", "diameter", "success", "n", "k"], rows)

    summary_rows = []
    for rep in reports:
        n, k = rep.config.get("n"), rep.config.get("k")
        diam = [t["diameter"] for t in rep.trials if "diameter" in t]
        if not diam or n is None or k is None:
            continue
        arr = np.asarray(diam, dtype=float)
        summary_rows.append([n, k, n / k] + [float(np.quantile(arr, q))
                                             for q in (0.05, 0.25, 0.5, 0.75, 0.95)])
    spath = path.with_name(path.stem + "_summary.csv")
    write_csv(spath, ["n", "k", "n_over_k", "q05", "q25", "q50", "q75", "q95"],
              summary_rows)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_sigma(args) -> int:
    q = SubsphereQuery(args.sphere_dim, args.subsphere_dim, args.theta)
    out = {"exact": sigma_exact(q)}
    if args.mc:
        est, se = sigma_mc(q, args.mc, seed=args.seed)
        out["mc"] = est
        out["se"] = se
    print(canonical_dumps(out))
    return 0


def _cmd_bounds(args) -> int:
    if args.which == "chisq":
        if args.x is None:
            raise ConfigError("chisq requires --x")
        print(canonical_dumps({"k": args.k, "x": args.x, "cdf": chisq_cdf(args.k, args.x)}))
        return 0
    if args.n is None or args.eps is None:
        raise ConfigError(f"{args.which} requires --n and --eps")
    consts = BoundConstants(c_small=args.c, C_big=args.C)
    if args.which == "cap":
        b = cap_bounds(args.n, args.k, args.eps, consts)
        print(canonical_dumps({"lower": b.lower, "upper": b.upper,
                               "lower_compl": b.lower_compl,
                               "upper_compl": b.upper_compl}))
    else:
        b = lip_bounds(args.n, args.k, args.eps, consts)
        print(canonical_dumps({"bound_i": b.bound_i, "bound_ii": b.bound_ii}))
    return 0


def _parse_vector(text):
    return np.array([float(v) for v in text.split(",")])


def _cmd_body(args) -> int:
    try:
        data = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load body spec {args.spec}: {exc}") from exc
    body = construct_body(BodySpec.from_json_dict(data))
    out = {"kind": body.kind, "dim": body.dim, "symmetric": body.symmetric,
           "inner_radius": body.inner_radius,
           "outer_radius": body.outer_radius if math.isfinite(body.outer_radius) else "inf"}
    if args.direction:
        u = _parse_vector(args.direction)
        out["direction"] = u.tolist()
        out["support"] = float(body.support(u))
    if args.point:
        x = _parse_vector(args.point)
        g = float(body.gauge(x))
        out["point"] = x.tolist()
        out["gauge"] = g if math.isfinite(g) else "inf"
        out["membership"] = bool(body.contains(x))
        try:
            out["distance"] = float(body.distance(x))
        except WaistlabError as exc:
            out["distance_error"] = f"{type(exc).__name__}: {exc}"
    print(canonical_dumps(out))
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if config.get("experiment") != args.name:
        if "experiment" in config and config["experiment"] != args.name:
            raise ConfigError(f"config is for experiment {config['experiment']!r}, "
                              f"but {args.name!r} was requested")
    report = run_experiment_config(config, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_json(out_dir / "report.json")
    report.write_trials_csv(out_dir / "trials.csv")
    if args.plot_data:
        emit_plot_data(report, out_dir / "plot.csv")
    print(canonical_dumps({"name": report.name, "seed": report.seed,
                           "trials": len(report.trials),
                           "summary": report.summary,
                           "out": str(out_dir)}))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(fast=args.fast)
    failed = 0
    for res in results:
        tag = "PASS" if res.ok else "FAIL"
        print(f"[{tag}] {res.name} ({res.seconds:.1f}s): {res.detail}")
        if not res.ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waistlab",
        description="Sphere-measure calculators and convex-body intersection experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="subsphere-neighborhood measure")
    p.add_argument("--sphere-dim", type=int, required=True)
    p.add_argument("--subsphere-dim", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--mc", type=int, default=0, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("bounds", help="closed-form bound tuples")
    p.add_argument("which", choices=("cap", "lip", "chisq"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--c", type=float, default=DEFAULT_CONSTANTS.c_small)
    p.add_argument("--C", type=float, default=DEFAULT_CONSTANTS.C_big)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("body", help="evaluate a declarative body")
    p.add_argument("--spec", required=True, help="JSON body spec file")
    p.add_argument("--direction", help="comma-separated direction for the support")
    p.add_argument("--point", help="comma-separated point for gauge/membership")
    p.set_defaults(func=_cmd_body)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--plot-data", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InfeasibleScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, SpecError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WaistlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
