"""Batch front door: measure calculator, bound evaluator, body inspector,
config-driven experiment runner, and the invariant verifier.

Exit codes: 0 success, 1 failed verification, 2 usage or schema error,
3 infeasible configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._util import QUANTILES, canonical_dumps, read_field, strict_bool, write_csv
from .bodies import BodySpec, construct_body
from .errors import (ConfigError, DomainError, InfeasibleScheduleError,
                     SpecError, WaistlabError)
from .geometry import Subspace
from .measures import (BoundConstants, DEFAULT_CONSTANTS, SubsphereQuery,
                       cap_bounds, chisq_cdf, lip_bounds, sigma_exact, sigma_mc)
from .optimize import DEFAULT_OPT, OptimizerConfig

# experiment name -> name of its harness in waistlab.experiments
_HARNESSES = {"two-bodies": "run_two_bodies", "sections": "run_sections",
              "core": "run_core_lemma", "higher-sphere": "run_higher_sphere",
              "projection": "run_projection", "global-vr": "run_global_vr"}
EXPERIMENT_NAMES = tuple(_HARNESSES)
_SECTIONS = ("section", "section_K", "section_L", "section_diff")

_COMMON_OPTIONAL = {"experiment", "seed", "schedule"}

_SCHEDULE_KEYS = ({"n", "k"}, {"a_frac", "C1_sched", "c2_sched"})
_OPTIMIZER_KEYS = (set(), {f.name for f in dataclasses.fields(OptimizerConfig)})
_SUBSPACE_KEYS = (set(), {"k", "offset", "frame"})


def _schema(name: str):
    """The (required, optional) config keys of an experiment, read from its
    harness signature: a parameter without a default is required, one with
    a default optional.  seed is common to every experiment, opt is the
    "optimizer" block, and projection's subspace P is set by the key k."""
    from . import experiments

    keys = (set(), set())
    for param in inspect.signature(getattr(experiments, _HARNESSES[name])).parameters.values():
        if param.name != "seed":
            keys[param.default is not param.empty].add(
                {"opt": "optimizer", "P": "k"}.get(param.name, param.name))
    return keys


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
    if name not in _HARNESSES:
        raise ConfigError(f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}")
    from . import experiments

    required, optional = _schema(name)
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
    for key in _SECTIONS:
        if data.get(key) is not None:
            _require_keys(data[key], *_SUBSPACE_KEYS, where=key)
    if "optimizer" in data:
        _require_keys(data["optimizer"], *_OPTIMIZER_KEYS, where="optimizer")
    if "schedule" in data:
        _require_keys(data["schedule"], *_SCHEDULE_KEYS, where="schedule")
        sched = data["schedule"]
        consts = BoundConstants(**{key: sched[key] for key in _SCHEDULE_KEYS[1]
                                   if key in sched})
        n, k = (read_field(int, sched[key], f"schedule.{key}", ConfigError) for key in "nk")
        experiments.theorem_schedule(n, k, consts)
    return data


def _subspace_from(cfg, n) -> Subspace:
    if "frame" in cfg:
        return Subspace.from_frame(cfg["frame"])
    return Subspace.canonical(n, int(cfg["k"]), int(cfg.get("offset", 0)))


# How each harness key of a config becomes a harness argument.  Section
# subspaces are cast after the bodies, in the dimension n of the config or
# else of K.  A key the config leaves out takes the harness's own default.
_CASTS = {
    **dict.fromkeys(("seed", "n", "k", "m", "trials", "k_exist", "k_query", "samples",
                     "sigma_samples", "net_probes", "lift_checks", "vol_samples"), int),
    **dict.fromkeys(("a_frac", "c_ref", "section_bound", "theta", "eps",
                     "delta_K", "delta_L", "threshold"), float),
    "dual_products": strict_bool, "thresholds": tuple,
    "mode": lambda value: value, "cap_spec": lambda value: value,
    "K": construct_body, "L": construct_body,
}


def run_experiment_config(config: dict, seed=None):
    """Dispatch a validated configuration to its harness.

    Only the keys the config sets are passed on, cast by _CASTS (a value
    that fails its cast raises ConfigError naming the key); every other
    parameter takes the default of the harness signature.  A projection
    config's k becomes the canonical subspace P, and an "optimizer" block
    becomes opt (load_config accepts one only for a harness with an opt
    parameter).  seed (the config's "seed" when None) is always passed;
    None draws fresh entropy, which the report records.
    """
    from . import experiments as ex

    name = config["experiment"]
    if name not in _HARNESSES:
        raise ConfigError(f"unknown experiment {name!r}")
    kwargs = {key: None if value is None else read_field(_CASTS[key], value, key, ConfigError)
              for key, value in config.items() if key in _CASTS}
    kwargs["seed"] = kwargs.get("seed") if seed is None else seed
    for key in _SECTIONS:
        if config.get(key) is not None:
            n = kwargs["n"] if "n" in kwargs else kwargs["K"].dim
            kwargs[key] = read_field(lambda c: _subspace_from(c, n), config[key], key, ConfigError)
    if name == "projection":
        kwargs["P"] = Subspace.canonical(kwargs["K"].dim, kwargs.pop("k"))
    if "optimizer" in config:
        # each value is cast to the type of its field's default
        kwargs["opt"] = dataclasses.replace(DEFAULT_OPT, **{
            key: read_field(type(getattr(DEFAULT_OPT, key)), value, f"optimizer.{key}", ConfigError)
            for key, value in config["optimizer"].items()})
    # looked up at each call, so that a wrapper installed on the module is used
    harness = getattr(ex, _HARNESSES[name])
    return harness(**kwargs)


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
        summary_rows.append([n, k, n / k]
                            + np.quantile(arr, list(QUANTILES.values())).tolist())
    spath = path.with_name(path.stem + "_summary.csv")
    write_csv(spath, ["n", "k", "n_over_k", *QUANTILES], summary_rows)


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
        u = read_field(_parse_vector, args.direction, "--direction", ConfigError)
        out["direction"] = u.tolist()
        out["support"] = float(body.support(u))
    if args.point:
        x = read_field(_parse_vector, args.point, "--point", ConfigError)
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
    if config["experiment"] != args.name:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: parsing leaves it as it is."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
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
