"""Spans and counts at affsurf's public entry points, measured from outside.

`Tracer.install()` replaces each traced function in every affsurf module
namespace that holds it, which is where its callers look it up (a module
that did `from .expr import diff` calls its own global `diff`).  Nothing is
installed in an untraced run.

A span is (name, start, end, parent, record).  Recursive functions (`diff`,
`evaluate`) open a span for the outermost call only.  A span's self time is
its duration minus the durations of its direct children; spans nest
strictly, because the workload is single-threaded.

Span times are read from the clock the tracer is given: the worker passes
its calibration sampler's program_time, which leaves out the calibration
chunks the sampler runs inside spans.

The right-hand side handed to `integrate` is wrapped in a call counter.  Its
cost per call is measured afterwards, off the clock, by replaying the same
callable on every REPLAY_STRIDE-th state the trajectory stored.
"""

from __future__ import annotations

import gzip
import itertools
import time

from affsurf import (catalog, cli, connection, expr, geodesic, integrate, killing,
                     projective, qe)
from common import percentile, tail_level

#: every module namespace a traced function may be looked up in
MODULES = (expr, connection, catalog, qe, killing, projective, geodesic, integrate, cli)

#: (name, original function, recursive, index of a grid argument whose
#: length counts as points)
TRACED = (
    ("killing.probe", killing.killing_completeness_probe, False, None),
    ("geodesic.probe", geodesic.geodesic_completeness_probe, False, None),
    ("killing.residual", killing.max_killing_residual, False, 2),
    ("qe.residual", qe.max_residual, False, 2),
    ("connection.curvature", connection.curvature_at, False, None),
    ("projective.pullback", projective.pullback_connection, False, None),
    ("projective.flatten", projective.flatten_report, False, None),
    ("expr.compile", expr.compile_scalar, False, None),
    ("expr.diff", expr.diff, True, None),
    ("expr.evaluate", expr.evaluate, True, None),
)

REPLAY_STRIDE = 16

STATUS_KEYS = {"ReachedHorizon": "reached_horizon", "Blowup": "blowup",
               "LeftDomain": "left_domain", "StepCollapse": "step_collapse",
               "Unbounded": "unbounded"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent, record, self)
        self.stack: list[list] = []  # [span index, start, child time]
        self.record = -1
        self.points: dict[str, int] = {}
        self.trajs: list[tuple] = []  # (span index, steps, rhs calls, status key)
        self.replay: list[tuple] = []  # (rhs, sampled states)

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append([idx, self.clock(), 0.0])
        return idx

    def _close(self, name_id: int) -> int:
        end = self.clock()
        idx, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1][0] if self.stack else -1
        if self.stack:
            self.stack[-1][2] += dur
        self.spans[idx] = (name_id, start, end, parent, self.record, dur - child)
        return idx

    def wrap(self, name, fn, recursive=False, points_arg=None):
        name_id = self._name_id(name)
        active = [False]  # inside an outermost call of a recursive function

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = recursive
            if points_arg is not None:
                self.points[name] = self.points.get(name, 0) + len(args[points_arg])
            self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name_id)
                active[0] = False
        return traced

    def wrap_integrate(self, fn):
        name_id = self._name_id("integrate.integrate")

        def traced(rhs, *args, **kwargs):
            tick = itertools.count()
            step = tick.__next__

            def counted(y):
                step()
                return rhs(y)
            self._open()
            try:
                tr = fn(counted, *args, **kwargs)
            finally:
                idx = self._close(name_id)
            calls = next(tick)
            status = STATUS_KEYS.get(type(tr.status).__name__, "other")
            self.trajs.append((idx, len(tr.times) - 1, calls, status))
            sample = [tuple(float(v) for v in s) for s in tr.states[::REPLAY_STRIDE]]
            self.replay.append((rhs, sample))
            return tr
        return traced

    def install(self):
        """Swap every traced function for its wrapper wherever it is bound."""
        swaps = {id(fn): self.wrap(name, fn, rec, pts) for name, fn, rec, pts in TRACED}
        swaps[id(integrate.integrate)] = self.wrap_integrate(integrate.integrate)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps:
                    setattr(mod, attr, swaps[id(value)])

    # -- results -------------------------------------------------------

    def replay_rhs(self) -> tuple[int, float]:
        """(calls, seconds) for the right-hand sides replayed on stored
        states.  States where the right-hand side raises are dropped in an
        untimed first pass, which also warms the callables."""
        calls, busy = 0, 0.0
        for rhs, states in self.replay:
            good = []
            for y in states:
                try:
                    rhs(y)
                except (ArithmeticError, ValueError):
                    continue
                good.append(y)
            t0 = self.clock()
            for y in good:
                rhs(y)
            busy += self.clock() - t0
            calls += len(good)
        return calls, busy

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds)"""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for name_id, start, end, _, _, self_t in self.spans:
            row = out[self.names[name_id]]
            row[0] += 1
            row[1] += end - start
            row[2] += self_t
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,record\n")
            for name_id, start, end, parent, record, _ in self.spans:
                fh.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent},{record}\n")


def layer_metrics(tr: Tracer, *, instantiate_s: float, records: int,
                  compile_misses: int) -> dict[str, list]:
    """Every per-layer metric of one traced pass: name -> [value, unit]."""
    tot = tr.totals()

    def get(name):
        return tot.get(name, (0, 0.0, 0.0))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m: dict[str, list] = {}
    calls, busy, _ = get("integrate.integrate")
    steps = sum(t[1] for t in tr.trajs)
    rhs_calls = sum(t[2] for t in tr.trajs)
    replayed, replay_s = tr.replay_rhs()
    rhs_us = per(replay_s, replayed, 1e6)
    traj_ms = [1e3 * (tr.spans[t[0]][2] - tr.spans[t[0]][1]) for t in tr.trajs]
    m["integrate.calls"] = [calls, "count"]
    m["integrate.busy_s"] = [busy, "s"]
    m["integrate.steps"] = [steps, "count"]
    m["integrate.us_per_step"] = [per(busy, steps, 1e6), "us"]
    m["integrate.rhs_calls"] = [rhs_calls, "count"]
    m["integrate.rhs_calls_per_step"] = [per(rhs_calls, steps), "calls/step"]
    m["integrate.rhs_us_per_call"] = [rhs_us, "us"]
    m["integrate.self_s"] = [busy - rhs_calls * rhs_us * 1e-6, "s"]
    m["integrate.traj_ms_p50"] = [percentile(traj_ms, 50), "ms"]
    m["integrate.traj_ms_tail"] = [percentile(traj_ms, tail_level(len(traj_ms))), "ms"]
    for key in STATUS_KEYS.values():
        m[f"integrate.status.{key}"] = [sum(1 for t in tr.trajs if t[3] == key), "count"]

    for mod in ("killing", "geodesic"):
        calls, busy, self_t = get(f"{mod}.probe")
        m[f"{mod}.probe_calls"] = [calls, "count"]
        m[f"{mod}.probe_busy_s"] = [busy, "s"]
        m[f"{mod}.probe_self_s"] = [self_t, "s"]
    for mod in ("killing", "qe"):
        calls, busy, _ = get(f"{mod}.residual")
        m[f"{mod}.residual_calls"] = [calls, "count"]
        m[f"{mod}.residual_busy_s"] = [busy, "s"]
        m[f"{mod}.residual_us_per_point"] = [
            per(busy, tr.points.get(f"{mod}.residual", 0), 1e6), "us"]

    calls, busy, _ = get("expr.compile")
    m["expr.compile_calls"] = [calls, "count"]
    m["expr.compile_misses"] = [compile_misses, "count"]
    m["expr.compile_busy_s"] = [busy, "s"]
    for fn in ("diff", "evaluate"):
        calls, busy, _ = get(f"expr.{fn}")
        m[f"expr.{fn}_calls"] = [calls, "count"]
        m[f"expr.{fn}_busy_s"] = [busy, "s"]

    calls, busy, _ = get("connection.curvature")
    m["connection.curvature_calls"] = [calls, "count"]
    m["connection.curvature_busy_s"] = [busy, "s"]

    m["projective.flatten_busy_s"] = [get("projective.flatten")[1], "s"]
    calls, busy, _ = get("projective.pullback")
    m["projective.pullback_calls"] = [calls, "count"]
    m["projective.pullback_us_per_call"] = [per(busy, calls, 1e6), "us"]

    m["catalog.instantiate_s"] = [instantiate_s, "s"]
    m["catalog.records"] = [records, "count"]
    return m
