"""Self-tests of the benchmark's own arithmetic and catalogue.

    python3 -m pytest perfbench -q
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from metrics import END_TO_END, PER_LAYER, tail, tail_rank  # noqa: E402

# the benchmark contract's patterns for metric names and units
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(i, name, start, end, parent=-1, job=0):
    return [i, name, start, end, parent, 0, job, None]


def _body(parent, start, end, job=0, kind=0, rows=1):
    return [kind, rows, start, end, parent, job]


# -- span self-time arithmetic -----------------------------------------------


def test_union_lengths_merges_overlaps_per_group():
    group = [0, 0, 0, 1, 1, 2]
    start = [0.0, 1.0, 5.0, 0.0, 0.5, 3.0]
    end = [2.0, 3.0, 6.0, 1.0, 0.7, 3.0]
    got = spans.union_lengths(group, start, end, 4)
    assert got == pytest.approx([4.0, 1.0, 0.0, 0.0])


def test_self_time_is_duration_minus_union_of_children():
    recs = [_span(0, "job", 0.0, 10.0),
            _span(1, "cli.main", 1.0, 9.0, parent=0),
            _span(2, "optimize.minimize_on_sphere", 2.0, 6.0, parent=1)]
    body = np.array([_body(2, 2.5, 3.0), _body(2, 4.0, 5.0), _body(1, 7.0, 7.5)])
    a = spans.analyse(recs, body)
    assert a["busy_self"] == pytest.approx([2.0, 3.5, 2.5])
    assert a["wall_self"] == pytest.approx(a["busy_self"])
    acc = spans.job_accounts(a)[0]
    assert acc["wall"] == 10.0
    assert acc["job"] == pytest.approx(2.0)
    assert acc["bodies"] == pytest.approx(2.0)
    assert sum(acc[m] for m in spans.MODULES) == pytest.approx(10.0)


def test_parallel_trials_split_overlapping_wall_time():
    # two trials overlap on [2, 4]; the pool span covers [1, 7]
    recs = [_span(0, "job", 0.0, 8.0),
            _span(1, spans.PARALLEL_MAP, 1.0, 7.0, parent=0),
            _span(2, spans.TRIAL, 1.0, 4.0, parent=1),
            _span(3, spans.TRIAL, 2.0, 6.0, parent=1),
            _span(4, "optimize.minimize_on_sphere", 2.0, 5.0, parent=3)]
    a = spans.analyse(recs, np.zeros((0, 6)))
    # busy self: plain duration minus union of children
    assert a["busy_self"] == pytest.approx([2.0, 1.0, 3.0, 1.0, 3.0])
    # trial subtrees are scaled by union 5 / sum 7
    f = 5.0 / 7.0
    assert a["wall_self"] == pytest.approx([2.0, 1.0, 3.0 * f, 1.0 * f, 3.0 * f])
    acc = spans.job_accounts(a)[0]
    assert sum(acc[m] for m in spans.MODULES) == pytest.approx(acc["wall"])


def test_tracer_records_cross_thread_parent():
    import threading

    tracer = spans.Tracer()
    job = tracer.open("job", job=7)
    pm = tracer.open(spans.PARALLEL_MAP)
    seen = []

    def worker():
        trial = tracer.open(spans.TRIAL, parent=pm)
        inner = tracer.open("optimize.minimize_on_sphere")
        seen.append((trial[4], inner[4], inner[6]))
        tracer.close(inner)
        tracer.close(trial)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close(pm)
    tracer.close(job)
    assert seen == [(pm[0], seen[0][1], 7)]
    assert seen[0][1] != pm[0]


def test_install_wraps_every_reference_and_uninstall_restores():
    sys.path.insert(0, str(HERE.parent / "src"))
    import waistlab.bodies
    import waistlab.estimators
    import waistlab.experiments
    import waistlab.optimize

    original = waistlab.optimize.minimize_on_sphere
    gauge = waistlab.bodies.Body.gauge
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert waistlab.estimators.minimize_on_sphere is not original
        assert waistlab.experiments.minimize_on_sphere is not original
        assert waistlab.bodies.Body.gauge is not gauge
        job = tracer.open("job", job=1)
        waistlab.ball(3, 1.0).gauge(np.eye(3))
        tracer.close(job)
    finally:
        tracer.uninstall()
    assert waistlab.estimators.minimize_on_sphere is original
    assert waistlab.experiments.minimize_on_sphere is original
    assert waistlab.bodies.Body.gauge is gauge
    body = tracer.body_spans()
    assert body.shape == (1, 6) and body[0, 1] == 3 and body[0, 4] == job[0]


# -- tail percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n", [11, 20, 21, 24, 33, 100, 104, 1000])
def test_tail_rank_leaves_at_least_ten_beyond(n):
    p, rank = tail_rank(n)
    assert n - rank >= 10
    # the next whole percentile would leave fewer than ten
    if p < 99:
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_values():
    assert tail_rank(100) == (90, 90)
    assert tail_rank(24) == (58, 14)
    assert tail(list(range(100, 0, -1))) == (90, 90)
    with pytest.raises(ValueError):
        tail_rank(10)


# -- metric names and BENCHMARK.json --------------------------------------------


def test_metric_names_and_units_match_the_pattern():
    for name, (unit, better, bound) in END_TO_END.items():
        assert NAME_RE.fullmatch(name), name
        assert UNIT_RE.fullmatch(unit), unit
        assert better in ("lower", "higher") and 0 < bound <= 0.25
    for name, (unit, better) in PER_LAYER.items():
        assert NAME_RE.fullmatch(name), name
        assert UNIT_RE.fullmatch(unit), unit
        assert better in ("lower", "higher")
    assert not NAME_RE.fullmatch("bad name")
    assert not NAME_RE.fullmatch(".leading-dot")
    assert not NAME_RE.fullmatch("x" * 65)


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    import run

    assert tuple(names) == run.WORKLOAD_NAMES
    assert END_TO_END["setup_s"][2] == max(b for _, _, b in END_TO_END.values())
