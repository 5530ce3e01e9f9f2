import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import waistlab
from waistlab._util import fmt_float
from waistlab.cli import build_parser, emit_plot_data, load_config, main, run_experiment_config
from waistlab.errors import ConfigError
from waistlab.measures import BoundConstants, lip_bounds


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BALL3 = {"kind": "ball", "dim": 3, "radius": 1.0}


def two_bodies_config(**extra):
    cfg = {"experiment": "two-bodies", "n": 3, "k": 2, "trials": 3,
           "K": dict(BALL3), "L": dict(BALL3), "section_bound": 2.0,
           "optimizer": {"restarts": 8, "iters": 30}}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# calculators
# ---------------------------------------------------------------------------


def test_sigma_exact_json(capsys):
    code, out, err = run_cli(capsys, "sigma", "--sphere-dim", "2",
                             "--subsphere-dim", "1", "--theta", str(math.pi / 6))
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == pytest.approx(0.5, abs=1e-12)


def test_sigma_with_mc(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--sphere-dim", "2", "--subsphere-dim", "1",
                           "--theta", "0.5", "--mc", "20000", "--seed", "1")
    data = json.loads(out)
    assert {"exact", "mc", "se"} <= set(data)
    assert abs(data["mc"] - data["exact"]) <= 4 * data["se"]


def test_sigma_domain_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "sigma", "--sphere-dim", "2",
                           "--subsphere-dim", "2", "--theta", "0.5")
    assert code == 2
    assert "subsphere_dim" in err


def test_bounds_cap(capsys):
    code, out, _ = run_cli(capsys, "bounds", "cap", "--n", "8", "--k", "2",
                           "--eps", "0.25", "--c", "0.1", "--C", "2.0")
    data = json.loads(out)
    assert data["lower"] == pytest.approx(3.90625e-7, rel=1e-9)
    assert data["upper"] == pytest.approx(0.5, rel=1e-12)


def test_bounds_chisq(capsys):
    code, out, _ = run_cli(capsys, "bounds", "chisq", "--k", "2", "--x", "2.0")
    assert json.loads(out)["cdf"] == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_bounds_lip_equals_lip_bounds(capsys):
    code, out, _ = run_cli(capsys, "bounds", "lip", "--n", "16", "--k", "4",
                           "--eps", "0.1", "--c", "0.05", "--C", "10.0")
    assert code == 0
    b = lip_bounds(16, 4, 0.1, BoundConstants(c_small=0.05, C_big=10.0))
    assert json.loads(out) == b._asdict()


def test_bounds_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "cap", "--k", "2")
    assert code == 2


def test_bounds_chisq_nan_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "bounds", "chisq", "--k", "2", "--x", "nan")
    assert code == 2 and out == ""
    assert err == "error: x must be nonnegative, got nan\n"


def test_sigma_negative_seed_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "sigma", "--sphere-dim", "2", "--subsphere-dim", "1",
                             "--theta", "0.5", "--mc", "10", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_body_subcommand(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "cube", "dim": 2, "half_width": 1.0}))
    code, out, _ = run_cli(capsys, "body", "--spec", str(spec),
                           "--direction", "1,0", "--point", "1,1")
    data = json.loads(out)
    assert data["support"] == 1.0
    assert data["gauge"] == 1.0
    assert data["membership"] is True


def test_body_reports_distance_failure(capsys, tmp_path, monkeypatch):
    from waistlab.bodies import Body
    from waistlab.errors import EvaluationError

    def fail(self, x):
        raise EvaluationError("projection did not converge")

    monkeypatch.setattr(Body, "distance", fail)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "cube", "dim": 2, "half_width": 1.0}))
    code, out, _ = run_cli(capsys, "body", "--spec", str(spec), "--point", "2,0")
    data = json.loads(out)
    assert code == 0
    assert "distance" not in data
    assert data["distance_error"] == "EvaluationError: projection did not converge"
    assert data["gauge"] == 2.0


@pytest.mark.parametrize("spec, options, key", [
    ({"kind": "ball", "dim": "three", "radius": 1.0}, (), "dim"),
    ({"kind": "cube", "dim": 3, "half_width": 1.0}, ("--direction", "1,,0"), "--direction"),
    ({"kind": "cube", "dim": 3, "half_width": 1.0}, ("--point", "1,0,abc"), "--point"),
    ({"kind": "ellipsoid", "semiaxes": ["a", 1]}, (), "semiaxes"),
    ({"kind": "truncated_cylinder", "core": {"kind": "ball", "dim": 2, "radius": 1.0},
      "dim": 4, "transverse_radius": "x"}, (), "transverse_radius"),
], ids=["body-field", "direction", "point", "array-field", "optional-field"])
def test_body_unreadable_value_is_a_usage_error(capsys, tmp_path, spec, options, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "body", "--spec", str(path), *options)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}: cannot read ") and err.count("\n") == 1


@pytest.mark.parametrize("spec, direction, key", [
    ({"kind": "ball", "dim": 3, "radius": math.inf}, "1,0,0", "radius"),
    ({"kind": "slab_intersection", "normals": [[1, 0], [0, 1]], "widths": [1.0, math.inf]},
     "0,1", "widths"),
], ids=["ball", "slab"])
def test_body_non_finite_parameter_is_a_usage_error(capsys, tmp_path, spec, direction, key):
    # json writes and reads inf as Infinity
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "body", "--spec", str(path), "--direction", direction)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}: must be finite, got ") and err.count("\n") == 1


def test_unknown_subcommand_exit_two(capsys):
    assert main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    cfg = two_bodies_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert load_config(path) == cfg


def test_load_config_unknown_key_named(tmp_path):
    cfg = two_bodies_config()
    cfg["dimm"] = 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="dimm"):
        load_config(path)


@pytest.mark.parametrize("cfg", [
    {"experiment": "higher-sphere", "n": 2, "m": 3, "theta": 0.5, "samples": 100,
     "cap_spec": {"kind": "caps", "centers": [[1.0, 0.0, 0.0]], "radii": [0.3]}},
    {"experiment": "projection", "K": dict(BALL3), "k": 2, "eps": 0.3, "samples": 100},
], ids=lambda cfg: cfg["experiment"])
def test_load_config_rejects_optimizer_where_no_harness_reads_it(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert load_config(path) == cfg
    path.write_text(json.dumps({**cfg, "optimizer": {"restarts": 8}}))
    with pytest.raises(ConfigError, match="'optimizer'"):
        load_config(path)


def test_load_config_body_spec_validated(tmp_path):
    cfg = two_bodies_config()
    cfg["K"] = {"kind": "ball", "dim": 3, "radius": 1.0, "color": "red"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="color"):
        load_config(path)


def test_load_config_parse_error_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "core",\n  "trials": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_config_schedule_infeasible_exit_three(capsys, tmp_path):
    cfg = {"experiment": "core", "K": dict(BALL3), "L": dict(BALL3),
           "delta_K": 0.3, "delta_L": 0.3, "trials": 0,
           "schedule": {"n": 100, "k": 10, "a_frac": 0.025}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "experiment", "core", "--config", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 3
    assert "a_frac" in err or "schedule" in err


@pytest.mark.parametrize("extra, key", [
    ({"trials": "many"}, "trials"),
    ({"seed": "x"}, "seed"),
    ({"optimizer": {"restarts": "x"}}, "optimizer.restarts"),
    ({"section_K": {"k": "x"}}, "section_K"),
    ({"schedule": {"n": "x", "k": 2}}, "schedule.n"),
    ({"schedule": {"n": 8, "k": 2, "a_frac": "x"}}, "schedule.a_frac"),
    ({"schedule": {"n": 8, "k": 2, "a_frac": None}}, "schedule.a_frac"),
    ({"dual_products": "false"}, "dual_products"),
], ids=["trials", "seed", "optimizer", "section", "schedule", "schedule-constant",
        "schedule-null", "boolean"])
def test_config_unreadable_value_is_a_usage_error(capsys, tmp_path, extra, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(two_bodies_config(**extra)))
    code, out, err = run_cli(capsys, "experiment", "two-bodies", "--config", str(path),
                             "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}: cannot read ") and err.count("\n") == 1


def test_dual_products_in_primal_mode_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(two_bodies_config(mode="primal", dual_products=True)))
    code, out, err = run_cli(capsys, "experiment", "two-bodies", "--config", str(path),
                             "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert "dual_products" in err and err.count("\n") == 1


HIGHER_CAPS = {"experiment": "higher-sphere", "n": 3, "m": 6, "theta": 0.7,
               "samples": 100_003,
               "cap_spec": {"kind": "caps", "centers": [[1, 0, 0, 0], [0, 0.6, 0.8, 0]],
                            "radii": [0.35, 0.5]}}
PROJECTION_CYLINDER = {"experiment": "projection", "k": 2, "eps": 0.3, "samples": 100_003,
                       "lift_checks": 8,
                       "K": {"kind": "product", "first": {"kind": "ball", "dim": 2, "radius": 1.0},
                             "second": {"kind": "ball", "dim": 3, "radius": 0.2}}}
FLAT_DISK3 = {"kind": "product", "first": {"kind": "ball", "dim": 2, "radius": 1.0},
              "second": {"kind": "ball", "dim": 1, "radius": 0.0}}
CORE_FLAT = {"experiment": "core", "K": FLAT_DISK3, "L": FLAT_DISK3, "delta_K": 0.5,
             "delta_L": 0.4, "trials": 1}
GLOBAL_BALL = {"experiment": "global-vr", "K": BALL3, "L": BALL3, "n": 3, "k": 2, "trials": 1}


@pytest.mark.parametrize("config, key, value", [
    (HIGHER_CAPS, "samples", 0),
    (HIGHER_CAPS, "samples", -5),
    (PROJECTION_CYLINDER, "samples", 0),
    (PROJECTION_CYLINDER, "lift_checks", -1),
    (CORE_FLAT, "sigma_samples", 0),
    (CORE_FLAT, "net_probes", -2),
    (GLOBAL_BALL, "vol_samples", 0),
], ids=["higher-zero", "higher-negative", "projection", "lift-checks", "sigma-samples",
        "net-probes", "vol-samples"])
def test_config_sample_count_below_its_floor_is_a_usage_error(capsys, tmp_path, config,
                                                               key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, key: value}))
    code, out, err = run_cli(capsys, "experiment", config["experiment"], "--config", str(path),
                             "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    floor = 0 if key == "lift_checks" else 1
    assert err == f"error: {key}: must be a count >= {floor}, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap_spec, key", [
    ({"kind": "caps", "centers": [["a", 0, 0, 0]], "radii": [0.35]}, "centers"),
    ({"kind": "subsphere", "dim": "two"}, "dim"),
    ({"kind": "caps", "centers": [[1, 0, 0, 0]]}, "radii"),
], ids=["centers", "dim", "no-radii"])
def test_config_malformed_cap_spec_field_is_a_usage_error(capsys, tmp_path, cap_spec, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**HIGHER_CAPS, "cap_spec": cap_spec}))
    code, out, err = run_cli(capsys, "experiment", "higher-sphere", "--config", str(path),
                             "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cap_spec.{key}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
def test_negative_seed_is_a_usage_error(capsys, tmp_path, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CORE_FLAT if flag else {**CORE_FLAT, "seed": -4}))
    seed = ["--seed", "-4"] if flag else []
    code, out, err = run_cli(capsys, "experiment", "core", "--config", str(path),
                             "--out", str(tmp_path / "out"), *seed)
    assert code == 2 and out == ""
    assert err == "error: seed must be a non-negative integer, got -4\n"
    assert not (tmp_path / "out").exists()


def test_config_zero_lift_checks_is_accepted(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PROJECTION_CYLINDER, "samples": 1000, "lift_checks": 0}))
    code, _, _ = run_cli(capsys, "experiment", "projection", "--config", str(path),
                         "--out", str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["lift"]["count"] == 0


def test_config_missing_experiment(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 3}))
    with pytest.raises(ConfigError, match="experiment"):
        load_config(path)


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_experiment_byte_identical_reruns(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(two_bodies_config()))
    code1, out1, _ = run_cli(capsys, "experiment", "two-bodies", "--config", str(path),
                             "--seed", "7", "--out", str(tmp_path / "a"))
    code2, out2, _ = run_cli(capsys, "experiment", "two-bodies", "--config", str(path),
                             "--seed", "7", "--out", str(tmp_path / "b"))
    assert code1 == code2 == 0
    csv1 = (tmp_path / "a" / "trials.csv").read_bytes()
    csv2 = (tmp_path / "b" / "trials.csv").read_bytes()
    assert csv1 == csv2
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["seed"] == 7
    assert len(report["trials"]) == 3


def test_frame_section_equals_its_canonical_section(capsys, tmp_path):
    tables = []
    for tag, section in (("canonical", {"k": 2, "offset": 1}),
                         ("frame", {"frame": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]})):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(two_bodies_config(
            K={"kind": "ellipsoid", "semiaxes": [1.0, 1.4, 0.8]}, section_bound=3.0,
            section_L=section)))
        code, _, _ = run_cli(capsys, "experiment", "two-bodies", "--config", str(path),
                             "--seed", "7", "--out", str(tmp_path / tag))
        assert code == 0
        tables.append((tmp_path / tag / "trials.csv").read_bytes())
    assert tables[0] == tables[1]


def test_a_rerun_over_stale_outputs_writes_a_fresh_runs_bytes(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(two_bodies_config()))
    names = ("report.json", "trials.csv", "plot.csv", "plot_summary.csv")
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    for name in names:  # longer than the outputs
        (rerun / name).write_text("stale\n" * 4096)
    for out in (tmp_path / "fresh", rerun):
        code, _, _ = run_cli(capsys, "experiment", "two-bodies", "--config", str(path),
                             "--seed", "7", "--out", str(out), "--plot-data")
        assert code == 0

    def report(out):
        data = json.loads((out / "report.json").read_text())
        del data["wall_time_s"]
        return data

    assert report(rerun) == report(tmp_path / "fresh")
    for name in names[1:]:
        assert (rerun / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


CYLINDER8 = {
    "experiment": "two-bodies", "n": 8, "k": 4, "trials": 3, "a_frac": 0.25,
    "K": {"kind": "truncated_cylinder", "core": {"kind": "ball", "dim": 4, "radius": 0.5},
          "dim": 8, "truncation_radius": 1e6},
    "L": {"kind": "product", "first": {"kind": "ball", "dim": 1, "radius": 1e6},
          "second": {"kind": "ball", "dim": 7, "radius": 0.5}},
    "section_L": {"k": 7, "offset": 1},
    "optimizer": {"restarts": 16, "iters": 60, "seed": 0},
}


def _outputs_under_blas_threads(tmp_path, experiment, config, seed):
    """(reports without wall_time_s, trials.csv bytes) of one config run
    through the CLI in subprocesses under one and two BLAS threads."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    src = str(Path(waistlab.__file__).resolve().parents[1])
    reports, tables = [], []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c",
                        "import sys; from waistlab.cli import main; sys.exit(main(sys.argv[1:]))",
                        "experiment", experiment, "--config", str(path), "--seed", str(seed),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        report = json.loads((out / "report.json").read_text())
        report.pop("wall_time_s")
        reports.append(report)
        tables.append((out / "trials.csv").read_bytes())
    return reports, tables


def test_experiment_outputs_do_not_depend_on_blas_threads(tmp_path):
    # every field of this config, the section diameters' included, is a max
    # of Euclidean norms that the optimizer's S-lemma stage answers exactly
    reports, tables = _outputs_under_blas_threads(tmp_path, "two-bodies", CYLINDER8, 11)
    assert tables[0] == tables[1]
    assert reports[0] == reports[1]


def test_core_outputs_do_not_depend_on_blas_threads(tmp_path):
    # every inclusion field of flat disks is a sum of two Euclidean norms
    # that the optimizer's Cauchy-Schwarz stage answers exactly
    flat = {"kind": "product", "first": {"kind": "ball", "dim": 3, "radius": 1.0},
            "second": {"kind": "ball", "dim": 1, "radius": 0.0}}
    config = {"experiment": "core", "K": flat, "L": flat, "delta_K": 0.4, "delta_L": 0.35,
              "trials": 3, "sigma_samples": 20_000, "net_probes": 512,
              "optimizer": {"restarts": 12, "iters": 50, "seed": 0}}
    reports, tables = _outputs_under_blas_threads(tmp_path, "core", config, 13)
    assert tables[0] == tables[1]
    assert reports[0] == reports[1]


def test_dual_products_do_not_depend_on_blas_threads(tmp_path):
    # an ellipsoid and a cube in R^5: the diameter field is a Euclidean norm
    # beside facet rows in +- pairs (the S-lemma stage), the incl_max field
    # is a norm beside an l1 piece (the piece floor at this seed), whose
    # radius gives the polar diameter, and incl_sum, a sum of a norm and an
    # l1 piece, is answered by the facet stage's cutting planes; all are
    # exact, so every column is the same bytes at one and two threads
    config = {"experiment": "two-bodies", "n": 5, "k": 2, "trials": 1,
              "K": {"kind": "ellipsoid", "semiaxes": [1.0, 1.4, 0.8, 1.2, 0.9]},
              "L": {"kind": "cube", "dim": 5, "half_width": 1.0},
              "mode": "both", "dual_products": True, "section_K": {"k": 1, "offset": 0},
              "section_L": {"k": 2, "offset": 3}, "section_bound": 3.0 * math.sqrt(5)}
    reports, tables = _outputs_under_blas_threads(tmp_path, "two-bodies", config, 179246715)
    assert tables[0] == tables[1]
    assert reports[0] == reports[1]


def test_dual_products_in_four_dimensions_do_not_depend_on_blas_threads(tmp_path):
    # an ellipsoid and a cube in R^4: the fields of the R^5 config above,
    # with incl_max answered by the hull stage's cutting planes, all exact,
    # so every column is the same bytes at one and two threads
    config = {"experiment": "two-bodies", "n": 4, "k": 2, "trials": 1,
              "K": {"kind": "ellipsoid", "semiaxes": [1.0, 1.4, 0.8, 1.2]},
              "L": {"kind": "cube", "dim": 4, "half_width": 1.0},
              "mode": "both", "dual_products": True, "section_K": {"k": 1, "offset": 0},
              "section_L": {"k": 2, "offset": 2}, "section_bound": 6.0}
    reports, tables = _outputs_under_blas_threads(tmp_path, "two-bodies", config, 3245052511)
    assert tables[0] == tables[1]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("experiment, config", [
    ("higher-sphere", HIGHER_CAPS), ("projection", PROJECTION_CYLINDER),
], ids=["higher-sphere", "projection"])
def test_sampled_outputs_do_not_depend_on_blas_threads(tmp_path, experiment, config):
    # the samplers draw and evaluate their points in chunks, whose cap
    # matmuls and distance evaluations run on chunk-sized shapes
    reports, tables = _outputs_under_blas_threads(tmp_path, experiment, config, 17)
    assert tables[0] == tables[1]
    assert reports[0] == reports[1]


def test_experiment_name_mismatch(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(two_bodies_config()))
    code, _, err = run_cli(capsys, "experiment", "core", "--config", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2


def test_experiment_records_drawn_seed(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(two_bodies_config(trials=2)))
    code, out, _ = run_cli(capsys, "experiment", "two-bodies", "--config", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert isinstance(report["seed"], int)


def test_schema_keys_are_harness_parameters():
    import inspect

    from waistlab import experiments
    from waistlab.cli import _CASTS, _HARNESSES, _SECTIONS, _schema

    assert _schema("projection") == ({"K", "k", "eps", "samples"}, {"lift_checks"})
    assert _schema("core") == ({"K", "L", "delta_K", "delta_L", "trials"},
                               {"sigma_samples", "net_probes", "optimizer"})
    for name in _HARNESSES:
        required, optional = _schema(name)
        params = inspect.signature(getattr(experiments, _HARNESSES[name])).parameters
        assert ("optimizer" in optional) == ("opt" in params), name
        for key in (required | optional) - {"optimizer"}:
            assert key in _CASTS or key in _SECTIONS, (name, key)
            if (name, key) != ("projection", "k"):  # k becomes the subspace P
                assert key in params, (name, key)


def test_written_out_defaults_match_omitted_ones(capsys, tmp_path):
    import inspect

    from waistlab.cli import _schema
    from waistlab.experiments import run_two_bodies

    cfg = two_bodies_config(trials=2)
    params = inspect.signature(run_two_bodies).parameters
    full = {key: params[key].default for key in _schema("two-bodies")[1] - {"optimizer"}
            if params[key].default is not None}
    # the default sections: coordinates 0..k-1, and the last n - ceil(a k)
    full.update(section_K={"k": 2, "offset": 0}, section_L={"k": 2, "offset": 1})
    full.update(cfg)  # the config's own section_bound stays
    outputs = []
    for tag, config in (("omitted", cfg), ("written", full)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(config))
        code, _, _ = run_cli(capsys, "experiment", "two-bodies", "--config", str(path),
                             "--seed", "5", "--out", str(tmp_path / tag))
        assert code == 0
        report = (tmp_path / tag / "report.json").read_text()
        outputs.append((re.sub(r', "wall_time_s": [^,}]+', "", report),
                        (tmp_path / tag / "trials.csv").read_bytes()))
    assert len(full) == len(cfg) + 6
    assert outputs[0] == outputs[1]


def test_cube_cross_dual_product_is_two():
    # the polar diameter times the hull inradius is exactly 2; on this
    # default-optimizer trial a polish blind to the polytopes' facet creases
    # ends 0.6% short of it
    n = 3
    cfg = {"experiment": "two-bodies", "n": n, "k": 2, "trials": 1,
           "K": {"kind": "cube", "dim": n, "half_width": 1.0},
           "L": {"kind": "cross_polytope", "dim": n, "radius": 1.5},
           "mode": "both", "dual_products": True,
           "section_K": {"k": 1, "offset": 0}, "section_L": {"k": 2, "offset": 1},
           "section_bound": 3.0 * math.sqrt(n)}
    report = run_experiment_config(cfg, seed=3952471224)
    dp = report.trials[0]["dual_product"]
    assert abs(dp - 2.0) / 2.0 <= 1e-4


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def _report_from(cfg, seed):
    return run_experiment_config(cfg, seed=seed)


def test_emit_plot_data_rows(tmp_path):
    rep = _report_from(two_bodies_config(trials=5), seed=3)
    out = tmp_path / "plot.csv"
    emit_plot_data(rep, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "trial,diameter,success,n,k"
    assert len(lines) == 6
    summary = (tmp_path / "plot_summary.csv").read_text().strip().split("\n")
    assert len(summary) == 2  # header + one (n, k) row


def test_emit_plot_data_empty_report(tmp_path):
    cfg = {"experiment": "core", "K": dict(BALL3), "L": dict(BALL3),
           "delta_K": 0.3, "delta_L": 0.3, "trials": 0}
    rep = _report_from(cfg, seed=1)
    out = tmp_path / "plot.csv"
    emit_plot_data(rep, out)
    assert out.read_text() == "trial,diameter,success,n,k\n"


def test_emit_plot_data_sweep(tmp_path):
    # a sweep writes one table per report, each summarized at its own (n, k)
    for n in (3, 4):
        rep = _report_from(two_bodies_config(n=n, k=2, trials=3,
                                             K={"kind": "ball", "dim": n, "radius": 1.0},
                                             L={"kind": "ball", "dim": n, "radius": 1.0}), seed=5)
        emit_plot_data(rep, tmp_path / f"sweep{n}.csv")
        summary = (tmp_path / f"sweep{n}_summary.csv").read_text().strip().split("\n")
        assert len(summary) == 2  # header + the report's (n, k)
        assert summary[1].split(",")[:3] == [str(n), "2", fmt_float(n / 2)]


def test_parser_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("sigma", "bounds", "body", "experiment", "verify"):
        assert name in text


def test_main_builds_its_parser_once(monkeypatch, capsys):
    import waistlab.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        argv = ["bounds", "cap", "--n", "8", "--k", "2", "--eps", "0.3"]
        codes = [main(argv), main(["bounds"]), main(argv)]
        out = capsys.readouterr()
    finally:
        cli._parser.cache_clear()
    assert built == [1] and codes == [0, 2, 0]
    first, second = out.out.strip().split("\n")
    assert first == second and "required" in out.err


def test_verify_battery_fast(capsys):
    code, out, _ = run_cli(capsys, "verify", "--fast")
    lines = out.strip().split("\n")
    checks = [line for line in lines if line.startswith(("[PASS]", "[FAIL]"))]
    failed = [line for line in checks if line.startswith("[FAIL]")]
    assert code == 0 and not failed, "; ".join(failed)
    assert len(checks) >= 20 and lines[-1] == f"{len(checks)}/{len(checks)} checks passed"


def test_worker_count_env(monkeypatch):
    from waistlab._util import worker_count

    monkeypatch.setenv("WAISTLAB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("WAISTLAB_THREADS", "not-a-number")
    assert worker_count() >= 1


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported where minimize and nnls are called, since
    # importing it takes longer than most commands run; the exact stages
    # import nothing from it, those that do not take a field decline it
    # before any import, and building a polyhedral body, evaluating a slab's
    # support or certifying a slab's hypothesis imports nothing from it
    src = str(Path(waistlab.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    polytopes = """
from waistlab.bodies import cross_polytope, cube
from waistlab.optimize import minimize_on_sphere
from waistlab.pieces import sum_pieces
K, L = cube(3, 1.0), cross_polytope(3, 1.2)
methods = [minimize_on_sphere(K.gauge_pieces + L.gauge_pieces, 3).method,
           minimize_on_sphere(sum_pieces((K.support_pieces, L.support_pieces)), 3).method]
assert methods == ["convex hull", "Minkowski facets"], methods
"""
    norms = """
import waistlab.optimize as optimize
from waistlab.bodies import ball, product_body, truncated_cylinder
from waistlab.estimators import diameter_of_intersection, section_diameter
from waistlab.geometry import canonical_frame, haar_rotation
answers, s_lemma = [], optimize._s_lemma
optimize._s_lemma = lambda pieces, n: answers.append(s_lemma(pieces, n)) or answers[-1]
K = truncated_cylinder(ball(4, 0.5), 8)
L = product_body(ball(1, 1e6), ball(7, 0.5))
diameter_of_intersection(K, L, haar_rotation(8, 1))
section_diameter(L, canonical_frame(8, 7, offset=1))
assert [(r.stage, r.method) for r in answers] == [("exact", "S-lemma dual")] * 2, answers
"""
    polyhedra = """
import numpy as np
from waistlab.bodies import (cube, intersect, linear_image, slab_body, unit_ball_check,
                             vertex_polytope)
rng = np.random.default_rng(0)
bodies = [slab_body(rng.normal(size=(5, 3)), np.ones(5)),
          linear_image(vertex_polytope(rng.normal(size=(12, 3))), -np.eye(3)),
          intersect(cube(3, 1.0), slab_body(rng.normal(size=(2, 3)), [0.5, 0.5]))]
N = np.random.default_rng(5).normal(size=(5, 3))
five = slab_body(N, 1.05 * np.linalg.norm(N, axis=1))
for K in (bodies[0], five, slab_body(rng.normal(size=(2, 3)), [0.5, 0.5])):
    K.support(rng.normal(size=(20, 3)))
assert unit_ball_check(five, np.eye(3))[0] == "certified"
"""
    for script in ("import waistlab.cli", polytopes, norms, polyhedra):
        out = subprocess.run([sys.executable, "-c",
                              script + "\nimport sys; print('scipy.optimize' in sys.modules)"],
                             env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "False"
