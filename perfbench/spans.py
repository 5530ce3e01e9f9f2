"""Span tracing around the public functions at waistlab's module boundaries.

The tracer wraps functions from the outside, at run time, and only in the
traced run; the program itself carries no instrumentation.  A span is
(id, name, start, end, parent, thread, job, extra).  Body evaluator calls
are far more numerous than anything else, so they are kept in a compact
per-thread float buffer with the same fields, and only the outermost
evaluator call on each thread is recorded.  Everything stays in memory
until the run ends.

Self time is a span's duration minus the union of its children.  Trials
run on pool threads under the `parallel_map` span that launched them, so
their subtrees overlap in time; for the per-job accounting each trial
subtree's self times are scaled by (union of trial intervals) / (sum of
trial durations), which splits overlapped wall time between the trials
and makes the self times of a job add up to its wall time exactly.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

from metrics import MODULES, tail

BODY_KINDS = ("gauge", "support", "distance", "contains")
PARALLEL_MAP = "experiments.parallel_map"
TRIAL = "experiments.trial"
HARNESSES = ("run_two_bodies", "run_core_lemma", "run_higher_sphere",
             "run_projection")

_FUNCTIONS = {
    "optimize": ("minimize_on_sphere",),
    "estimators": ("diameter_of_intersection", "inclusion_radius",
                   "section_diameter", "mc_sigma_body"),
    "experiments": HARNESSES + ("cover_ball_with_body",),
    "measures": ("sigma_exact", "sigma_mc"),
    "geometry": ("lift_waist", "spherical_projection"),
    "cli": ("main", "load_config"),
}

_ID, _NAME, _START, _END, _PARENT, _THREAD, _JOB, _EXTRA = range(8)
_BODY_FIELDS = 6  # kind, rows, start, end, parent, job


def _sigma_mc_samples(args, kwargs, out):
    return int(kwargs["samples"] if "samples" in kwargs else args[1])


_EXTRAS = {
    "optimize.minimize_on_sphere": lambda args, kwargs, out: int(out.nfev),
    "measures.sigma_mc": _sigma_mc_samples,
}


class Tracer:
    """Records spans; `install` wraps waistlab's functions, `uninstall`
    restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._body_buffers: list[array] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent=None, job: int = -1) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if parent is not None:
            job = parent[_JOB]
        span = [next(self._ids), name, time.perf_counter(), None,
                parent[_ID] if parent is not None else -1,
                threading.get_ident(), job, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list, extra=None) -> None:
        span[_END] = time.perf_counter()
        span[_EXTRA] = extra
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _body_buffer(self) -> array:
        buf = getattr(self._local, "body", None)
        if buf is None:
            buf = self._local.body = array("d")
            self._body_buffers.append(buf)
        return buf

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        extra_of = _EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            out, extra = None, None
            try:
                out = fn(*args, **kwargs)
                if extra_of is not None:
                    extra = extra_of(args, kwargs, out)
                return out
            finally:
                self.close(span, extra)

        return wrapper

    def _wrap_parallel_map(self, fn):
        @functools.wraps(fn)
        def wrapper(func, items):
            pm = self.open(PARALLEL_MAP)

            def trial(item):
                span = self.open(TRIAL, parent=pm)
                try:
                    return func(item)
                finally:
                    self.close(span)

            try:
                return fn(trial, items)
            finally:
                self.close(pm)

        return wrapper

    def _wrap_body(self, code: int, meth):
        local = self._local
        perf = time.perf_counter

        @functools.wraps(meth)
        def wrapper(body, x):
            if getattr(local, "in_body", False):
                return meth(body, x)
            local.in_body = True
            t0 = perf()
            try:
                return meth(body, x)
            finally:
                t1 = perf()
                local.in_body = False
                stack = getattr(local, "stack", None)
                parent = stack[-1] if stack else None
                rows = len(x) if np.ndim(x) == 2 else 1
                self._body_buffer().extend((
                    code, rows, t0, t1,
                    parent[_ID] if parent is not None else -1,
                    parent[_JOB] if parent is not None else -1))

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "waistlab" and not modname.startswith("waistlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_attr(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        for module, names in _FUNCTIONS.items():
            mod = importlib.import_module(f"waistlab.{module}")
            for fn_name in names:
                original = getattr(mod, fn_name)
                self._replace_everywhere(original,
                                         self._wrap(f"{module}.{fn_name}", original))
        util = importlib.import_module("waistlab._util")
        self._replace_everywhere(util.parallel_map,
                                 self._wrap_parallel_map(util.parallel_map))
        body_cls = importlib.import_module("waistlab.bodies").Body
        for code, kind in enumerate(BODY_KINDS):
            self._replace_attr(body_cls, kind,
                               self._wrap_body(code, getattr(body_cls, kind)))
        report_cls = importlib.import_module("waistlab.experiments").ExperimentReport
        for meth in ("write_json", "write_trials_csv"):
            self._replace_attr(report_cls, meth,
                               self._wrap("cli.write", getattr(report_cls, meth)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def body_spans(self) -> np.ndarray:
        """All body evaluator spans as an (m, 6) array."""
        parts = [np.frombuffer(b, dtype=float).reshape(-1, _BODY_FIELDS)
                 for b in self._body_buffers if len(b)]
        if not parts:
            return np.zeros((0, _BODY_FIELDS))
        return np.vstack(parts)


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def union_lengths(group, start, end, ngroups: int) -> np.ndarray:
    """Length of the union of the intervals [start, end) within each group."""
    group = np.asarray(group, dtype=np.int64)
    out = np.zeros(ngroups)
    if group.size == 0:
        return out
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    order = np.lexsort((start, group))
    g, s, e = group[order], start[order], end[order]
    # cumulative maximum of end that restarts at each group boundary: shift
    # every group above all earlier ones, accumulate, shift back
    base = float(s.min())
    width = float(e.max()) - base + 1.0
    shift = g * width
    reach = np.maximum.accumulate(e - base + shift) - shift + base
    before = np.empty_like(reach)
    before[0] = -np.inf
    before[1:] = np.where(g[1:] == g[:-1], reach[:-1], -np.inf)
    covered = np.maximum(0.0, e - np.maximum(s, before))
    np.add.at(out, g, covered)
    return out


def analyse(spans: list, body: np.ndarray) -> dict:
    """Self times of every span.

    Returns arrays over the non-body spans (index = span id order) and the
    body spans: duration, busy self time (duration minus the union of
    children) and wall share (self time scaled inside parallel trials).
    """
    spans = sorted(spans, key=lambda sp: sp[_ID])
    index = {sp[_ID]: i for i, sp in enumerate(spans)}
    m = len(spans)
    start = np.array([sp[_START] for sp in spans], dtype=float)
    end = np.array([sp[_END] for sp in spans], dtype=float)
    parent = np.array([index.get(sp[_PARENT], -1) for sp in spans], dtype=np.int64)
    names = [sp[_NAME] for sp in spans]
    dur = end - start

    b_parent = np.array([index.get(int(p), -1) for p in body[:, 4]], dtype=np.int64)
    b_dur = body[:, 3] - body[:, 2]

    has_parent = parent >= 0
    b_has = b_parent >= 0
    child_union = union_lengths(
        np.concatenate([parent[has_parent], b_parent[b_has]]),
        np.concatenate([start[has_parent], body[b_has, 2]]),
        np.concatenate([end[has_parent], body[b_has, 3]]), m)
    busy_self = dur - child_union

    # per parallel_map: union of its trials over the sum of their durations
    is_trial = np.array([n == TRIAL for n in names], dtype=bool)
    trial_parent = parent[is_trial]
    factor = np.ones(m)
    if trial_parent.size:
        tsum = np.bincount(trial_parent, weights=dur[is_trial], minlength=m)
        tunion = union_lengths(trial_parent, start[is_trial], end[is_trial], m)
        ok = tsum > 0
        factor[ok] = tunion[ok] / tsum[ok]
    scale = np.ones(m)
    for i in range(m):  # parents precede children in id order
        p = parent[i]
        if p >= 0:
            scale[i] = scale[p] * (factor[p] if is_trial[i] else 1.0)
    b_scale = np.where(b_has, scale[np.maximum(b_parent, 0)], 1.0)
    return {"names": names, "dur": dur, "busy_self": busy_self,
            "wall_self": busy_self * scale,
            "job": np.array([sp[_JOB] for sp in spans], dtype=np.int64),
            "extra": [sp[_EXTRA] for sp in spans],
            "body_kind": body[:, 0].astype(np.int64), "body_rows": body[:, 1],
            "body_dur": b_dur, "body_wall": b_dur * b_scale,
            "body_job": body[:, 5].astype(np.int64)}


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def job_accounts(a: dict) -> dict:
    """Per job: wall time and the wall-share self time of each module."""
    jobs = {}
    for i, name in enumerate(a["names"]):
        j = int(a["job"][i])
        if j < 0:
            continue
        acc = jobs.setdefault(j, {"wall": 0.0, **{mod: 0.0 for mod in MODULES}})
        if name == "job":
            acc["wall"] += float(a["dur"][i])
        acc[module_of(name)] += float(a["wall_self"][i])
    for j, w in zip(a["body_job"], a["body_wall"]):
        if j >= 0:
            jobs[int(j)]["bodies"] += float(w)
    return jobs


def layer_metrics(a: dict) -> dict:
    """Per-layer totals over all traced jobs (busy time, not wall share)."""
    dur, busy, extra = a["dur"], a["busy_self"], a["extra"]
    by_name = defaultdict(list)
    for i, name in enumerate(a["names"]):
        by_name[name].append(i)

    def calls(name):
        return len(by_name[name])

    def secs(*names):
        return float(sum(dur[by_name[n]].sum() for n in names))

    def self_s(*names):
        return float(sum(busy[by_name[n]].sum() for n in names))

    def extra_sum(name):  # a call that raised has no extra
        return sum(extra[i] or 0 for i in by_name[name])

    out = {}
    opt = "optimize.minimize_on_sphere"
    out["optimize.calls"] = calls(opt)
    out["optimize.s"] = secs(opt)
    out["optimize.self_s"] = self_s(opt)
    out["optimize.nfev"] = extra_sum(opt)
    out["optimize.nfev_per_call"] = extra_sum(opt) / calls(opt) if calls(opt) else 0.0

    for code, kind in enumerate(BODY_KINDS):
        sel = a["body_kind"] == code
        out[f"bodies.{kind}.calls"] = int(sel.sum())
        out[f"bodies.{kind}.rows"] = int(a["body_rows"][sel].sum())
        out[f"bodies.{kind}.s"] = float(a["body_dur"][sel].sum())
    out["bodies.s"] = float(a["body_dur"].sum())
    n_body = len(a["body_kind"])
    out["bodies.rows_per_call"] = float(a["body_rows"].sum()) / n_body if n_body else 0.0

    estimators = [f"estimators.{fn}" for fn in _FUNCTIONS["estimators"]]
    for name in estimators:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
    out["estimators.self_s"] = self_s(*estimators)

    out["experiments.job_s"] = secs(*(f"experiments.{h}" for h in HARNESSES))
    out["experiments.trials_s"] = secs(PARALLEL_MAP)
    out["experiments.pretrial_s"] = out["experiments.job_s"] - out["experiments.trials_s"]
    trials = sorted(float(d) for d in dur[by_name[TRIAL]])
    if len(trials) > 10:
        out["experiments.trial_p50_s"] = float(np.median(trials))
        out["experiments.trial_tail_s"] = tail(trials)[0]
        out["experiments.pool_speedup"] = sum(trials) / out["experiments.trials_s"]
    else:  # no trial pool on this workload
        out["experiments.trial_p50_s"] = 0.0
        out["experiments.trial_tail_s"] = 0.0
        out["experiments.pool_speedup"] = 0.0
    cover = "experiments.cover_ball_with_body"
    out[f"{cover}.calls"] = calls(cover)
    out[f"{cover}.s"] = secs(cover)

    for fn in ("sigma_exact", "sigma_mc"):
        out[f"measures.{fn}.calls"] = calls(f"measures.{fn}")
        out[f"measures.{fn}.s"] = secs(f"measures.{fn}")
    mc_s = out["measures.sigma_mc.s"]
    out["measures.sigma_mc.samples_per_s"] = (
        extra_sum("measures.sigma_mc") / mc_s if mc_s > 0 else 0.0)

    out["geometry.lift_waist.calls"] = calls("geometry.lift_waist")
    out["geometry.lift_waist.s"] = secs("geometry.lift_waist")
    out["geometry.spherical_projection.s"] = secs("geometry.spherical_projection")
    out["cli.load_config.s"] = secs("cli.load_config")
    out["cli.write.s"] = secs("cli.write")
    return out
