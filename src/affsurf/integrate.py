"""Adaptive ODE integration with escape diagnostics.

A Dormand-Prince 5(4) embedded Runge-Kutta pair drives every flow and
geodesic in this package (relative tolerance 1e-10, absolute 1e-12, cubic
Hermite dense output).  On top of plain propagation the stepper watches for
the ways a trajectory can fail to reach its horizon:

* Blowup(t_lo, t_hi): the state norm ran through an escalating threshold
  ladder whose crossing intervals shrink geometrically, the signature of a
  finite-time singularity.  The bracket encloses the blowup time t* and is
  far narrower than the 1e-3 contract.
* Unbounded(t): the state grew beyond the numeric cap (or x1 underflowed
  to zero above the edge) without a finite-time signature: exponential and
  doubly exponential flows do this while existing for all time.  The run is
  cut off at t and no escape is claimed.
* LeftDomain(t): the first state component x1 fell to the run's edge (the
  half-plane boundary x1 = 0, or a margin above it).  The crossing time is
  located by bisection on the dense output.
* StepCollapse(t): the adaptive step fell under 1e-13 without ladder
  evidence, which happens when the right-hand side itself becomes singular
  while the state stays moderate (log-type escapes).

Distinguishing Blowup/LeftDomain/StepCollapse from Unbounded matters:
complete flows routinely overflow doubles long before the horizon, and only
the ladder convergence test separates them from finite-time escapes.

The half-plane is one number: a run given an `edge` keeps x1 = y[0] above
it, and a run without one is on the plane.

State dimensions here are 2 (flows) and 4 (geodesics), so the stepper core
and the dense output that locates a crossing work on plain floats, and so
does the ladder's classification; numpy enters only for storage.
The loop over accepted and rejected steps is a kernel generated from the
tableau with every stage and component written out, the state held in
local floats, and it alone commits accepted steps.  It hands control back
to integrate() only for the events that need it: the horizon cutting a
step short, a stall (the step under H_MIN), an accepted step that reaches
the edge or crosses the next ladder rung (after it is committed, like
every accepted step; integrate() then takes the edge step's row back and
writes the crossing's row in its place), and the step limit.  A
right-hand side given as a Field (its source text) is inlined at every
stage of a loop of its own, compiled on first use and cached on its
shape, not on its constants' values (see Field); a stage binds only the
state names the field reads.  Any other callable runs as a Field that
calls it, so one loop serves every plain callable of a state dimension.
The arithmetic is that of the generic tableau loop, operation for
operation, so trajectories are bit-identical to it.

A run is its own checkpoint: its Trajectory keeps the loop's state (t,
y, f, h, ladder, steps used) at the first step the horizon cut short,
where the step size would have been clamped to land on it, and the
number of history rows then.  Every step before that one is the same at
any longer horizon, so integrate() resumes there and returns what a fresh
run to the longer horizon returns, bit for bit; a run whose status was
settled before any cut is returned as it is, the same object.  The
extension must keep the run's direction and its edge, compared by value.
The probes confirm a complete verdict this way, extending each horizon-T
run instead of integrating again from t = 0.  The history is one flat
buffer of doubles, a row (sgn t, y) per step (8 bytes per value), which
the Trajectory's times and states read in place.  A run stores neither a
derivative nor its right-hand side: where integrate() needs a row's f,
for the previous row of a step that reached the edge or a rung and for
the rows a step collapse is classified by, it recomputes rhs(y) from the
stored y, bit for bit the value the step computed.

The tolerances, the minimum step, the state cap and the limit of 400,000
steps (counted from t = 0, over every extension of a run) are fixed module
constants, not parameters: every flow and geodesic runs at the same
settings.  Exceeding the step limit raises RuntimeError.
"""

from __future__ import annotations

import ast
import math
from functools import cached_property, lru_cache, partial
from struct import Struct
from typing import Callable, Union

import numpy as np

from .expr import _RHS_ERRORS, Data, DomainError, _compile, _indent

RTOL = 1e-10
ATOL = 1e-12
H_MIN = 1e-13
STATE_CAP = 1e15
MAX_STEPS = 400_000
LADDER = (1e7, 1e9, 1e11, 1e13, 1e15)
CONVERGENCE_RATIO = 0.5
# x1 values at or below this are float-underflow artifacts: the
# trajectory approached the edge asymptotically and ran out of dynamic
# range, which is evidence of completeness, not of finite-time exit.
UNDERFLOW_X1 = 1e-280


class ReachedHorizon(Data):
    __slots__ = ("t",)

    def __init__(self, t: float):
        self.t = t

    def to_json(self):
        return {"status": "reached-horizon", "t": self.t}


class Blowup(Data):
    __slots__ = ("t_lo", "t_hi")

    def __init__(self, t_lo: float, t_hi: float):
        self.t_lo, self.t_hi = t_lo, t_hi

    def to_json(self):
        return {"status": "blowup", "t_star_bracket": [self.t_lo, self.t_hi]}


class LeftDomain(Data):
    __slots__ = ("t",)

    def __init__(self, t: float):
        self.t = t

    def to_json(self):
        return {"status": "left-domain", "t_star": self.t}


class StepCollapse(Data):
    __slots__ = ("t", "rhs_grew")

    def __init__(self, t: float, rhs_grew: bool):
        self.t, self.rhs_grew = t, rhs_grew

    def to_json(self):
        return {"status": "step-collapse", "t_star": self.t, "rhs_grew": self.rhs_grew}


class Unbounded(Data):
    __slots__ = ("t",)

    def __init__(self, t: float):
        self.t = t

    def to_json(self):
        return {"status": "unbounded-growth", "t_reached": self.t}


Status = Union[ReachedHorizon, Blowup, LeftDomain, StepCollapse, Unbounded]

#: statuses that witness failure of the flow to extend to the horizon
ESCAPE_STATUSES = (Blowup, LeftDomain, StepCollapse)


class Trajectory:
    """A run: time-stamped samples of a flow or geodesic, a termination
    status, and where integrate() extends the run.

    times are strictly monotone in the integration direction; states hold
    the sampled points (dimension 2 for flows, 4 for geodesics).  The two
    arrays read the run's flat history buffer rows, a row (sgn t, y) per
    step, in place; a run keeps neither a derivative nor its right-hand
    side.  The run was made in `direction` to the horizon `span` with the
    x1 `edge` (a float, or None for no edge); loop is the loop's state
    (steps used, t, y, f, h, ladder times) at the first step the horizon
    cut short, and n the number of rows then.  loop is None when the run
    ended before any cut; its status then stands at every longer horizon.
    An extension must pass an edge equal in value to this one."""

    __slots__ = ("times", "states", "status", "direction", "span", "edge", "rows", "n", "loop")

    def __init__(self, rows, dim, status, direction, span, edge, n, loop):
        a = np.frombuffer(rows).reshape(-1, 1 + dim)
        self.times, self.states = a[:, 0], a[:, 1:]
        self.status, self.direction, self.span, self.edge = status, direction, span, edge
        self.rows, self.n, self.loop = rows, n, loop

    @property
    def escaped(self) -> bool:
        return isinstance(self.status, ESCAPE_STATUSES)


# Dormand-Prince 5(4) tableau (propagates the 5th order solution).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def integrate(rhs: Callable,
              y0,
              t_end: float,
              *,
              edge: float | None = None) -> Trajectory:
    """Integrate the autonomous system y' = rhs(y) from t = 0 to t_end
    (t_end may be negative).  rhs maps a float tuple to a float sequence
    of the same length (TypeError otherwise).
    edge, when given, is a value that y[0] must stay above along the
    trajectory: the half-plane runs pass 0.0 or a margin above it.
    y0 may instead be an earlier run (a Trajectory) of the same rhs in the
    same direction with an equal edge, to a horizon no longer than |t_end|
    (ValueError otherwise): the run is extended from where the horizon
    first cut it short, and the result is that of a fresh run to t_end."""
    from array import array  # on the first integration, not at import

    direction = "forward" if t_end >= 0 else "backward"
    sgn = 1.0 if t_end >= 0 else -1.0
    span = abs(t_end)
    if isinstance(y0, Trajectory):
        run = y0
        if run.direction != direction or not span >= run.span or run.edge != edge:
            raise ValueError(f"cannot extend a {run.direction} run to {run.span} with "
                             f"another edge, a shorter horizon or the other direction")
        if run.loop is None:
            return run
        dim = run.states.shape[1]
        rows = run.rows[:run.n * (1 + dim)]
        used, t, y, f, h, ladder_times = run.loop
        ladder_times = list(ladder_times)
    else:
        y = tuple(float(v) for v in y0)
        dim = len(y)
        if edge is not None and y[0] <= edge:
            raise DomainError("initial point outside the domain")
        try:
            f = _call_rhs(rhs, y)
        except _RHS_ERRORS as err:
            raise DomainError(f"right-hand side undefined at the initial point: {err}") from err
        if len(f) != dim:
            raise TypeError(f"right-hand side has {len(f)} components for a state of dimension {dim}")
        rows = array("d", (0.0, *y))
        ladder_times = []
        while len(ladder_times) < len(LADDER) and _norm_inf(y) >= LADDER[len(ladder_times)]:
            ladder_times.append(0.0)
        h = _initial_step(y, f)
        t = 0.0
        used = 0
    w = 1 + dim  # doubles per history row
    loop = (rhs if isinstance(rhs, Field) else _calling_field(rhs, dim)).kernel
    floor = -math.inf if edge is None else edge  # accepted steps are finite, so never <= -inf
    cut = None

    def finish(status: Status) -> Trajectory:
        n, state = (len(rows) // w, None) if cut is None else cut
        return Trajectory(rows, dim, status, direction, span, edge, n, state)

    def f_at(i):  # f of row i: an accepted state or row 0, so rhs is defined there
        return _call_rhs(rhs, tuple(rows[i * w + 1:(i + 1) * w]))

    while True:
        rung = LADDER[len(ladder_times)] if len(ladder_times) < len(LADDER) else STATE_CAP
        event, used, t, y, f, h = loop(sgn, span, floor, rung, MAX_STEPS, used, t, y, f, h, rows)
        if event == "horizon":  # the horizon cuts this step short, or was reached
            if cut is None:
                cut = (len(rows) // w, (used, t, y, f, h, tuple(ladder_times)))
            if t >= span:
                return finish(ReachedHorizon(sgn * span))
            h = span - t
            continue
        if event == "limit":
            raise RuntimeError(f"integrator exceeded max_steps ({MAX_STEPS})")
        if event == "stall":  # h fell under H_MIN
            blow = _classify_ladder(ladder_times, t, sgn)
            if blow is not None:
                return finish(blow)
            if edge is not None:
                if y[0] <= UNDERFLOW_X1:
                    return finish(Unbounded(sgn * t))
                if y[0] <= max(1e-8, edge * 4):
                    return finish(LeftDomain(sgn * t))
            n = len(rows) // w  # f is the last row's
            grew = _rhs_grew(n, lambda i: _norm_inf(f if i == n - 1 else f_at(i)))
            return finish(StepCollapse(sgn * t, grew))

        # "edge" or "rung": the step committed from the previous row reached the
        # edge or crossed ladder thresholds
        prev = rows[-2 * w:-w]
        t_prev = abs(prev[0])  # exact: internal time is >= 0
        f_prev = f_at(len(rows) // w - 2)
        seg = _segment(t_prev, prev[1:], f_prev, t, y, f, sgn)
        if event == "edge":  # the step's row goes; the crossing's row replaces it
            del rows[-w:]
            if prev[1] <= UNDERFLOW_X1:
                return finish(Unbounded(sgn * t_prev))  # not prev[0]: row 0 holds t = +0.0
            t_cross = _bisect_crossing(lambda tt: seg(tt)[0] - edge, t_prev, t)
            rows.extend((sgn * t_cross, *seg(t_cross)))
            return finish(LeftDomain(sgn * t_cross))
        n_new = _norm_inf(y)
        while len(ladder_times) < len(LADDER) and n_new >= LADDER[len(ladder_times)]:
            rung = LADDER[len(ladder_times)]
            ladder_times.append(_bisect_crossing(lambda tt: _norm_inf(seg(tt)) - rung, t_prev, t))
        if n_new >= STATE_CAP:
            blow = _classify_ladder(ladder_times, t, sgn)
            return finish(blow if blow is not None else Unbounded(sgn * t))
        used += 1


def _step_lines(names, prelude, comps, failed: list[str]) -> list[str]:
    """Source, unindented, of one Dormand-Prince step of the field source
    (names, prelude, comps) (see Field) from the state `_y{c}`, its
    derivative `_k0_{c}`, the step size `_h` and the signed step `_sh`: the
    stages in a try block whose `except _RHS_ERRORS` clause runs the lines
    `failed` (the right-hand side is undefined at a stage point), then
    y_new `_n{c}`, f_new `_k6_{c}`, |y_new| `_b{c}` and the error norm
    `_enorm`.  Stage s binds the stage point to the names that the prelude
    or the components read (the other stage points feed nothing, and a
    float + or * never raises, so leaving them out changes no value and no
    exception), runs the prelude and sets `_k{s}_{c}` to comps[c].  Every
    stage and component is a local float and every tableau coefficient a
    literal, in the order of the generic tableau loop: each sum runs left
    to right from 0.0 (the same addition
    as sum()'s int start 0, so -0.0 still becomes 0.0), zero coefficients
    included (0.0 * inf stays NaN), and the error, scaled by h, is normed
    component by component as RMS over ATOL + RTOL * max(|y|, |y_new|),
    inf from the first component of y_new that is not finite.  |y|, |y_new|
    and their max are selected by comparisons, which pick the values abs()
    and max() pick except that a zero may come out as -0.0; ATOL + absorbs
    that sign.  Every name the step binds but the field's begins with _."""
    dim = len(names)

    def combo(coeffs, c):
        return " + ".join(["0.0"] + [f"{a!r} * _k{s}_{c}" for s, a in enumerate(coeffs)])

    read = _read_names(prelude + comps)

    def stage(s, point):
        return ([f"{n} = {p}" for n, p in zip(names, point) if n in read] + list(prelude)
                + [f"_k{s}_{c} = {src}" for c, src in enumerate(comps)])

    body = []
    for s, row in enumerate(_A[1:], start=1):
        body += stage(s, [f"_y{c} + _sh * ({combo(row, c)})" for c in range(dim)])
    body += [f"_n{c} = _y{c} + _sh * ({combo(_B, c)})" for c in range(dim)]
    body += stage(len(_A), [f"_n{c}" for c in range(dim)])
    body += [f"_e{c} = _h * ({combo(_E, c)})" for c in range(dim)]
    norm = [f"_enorm = {' + '.join(['0.0'] + [f'_q{c}' for c in range(dim)])}",
            "if _isfinite(_enorm):",
            f"    _enorm = _sqrt(_enorm / {float(dim)!r})"]
    for c in reversed(range(dim)):
        norm = [f"if _isfinite(_n{c}):",
                f"    _a = _y{c} if _y{c} >= 0.0 else -_y{c}",
                f"    _b{c} = _n{c} if _n{c} >= 0.0 else -_n{c}",
                f"    _q{c} = (_e{c} / ({ATOL!r} + {RTOL!r} * (_b{c} if _b{c} > _a else _a))) ** 2",
                *_indent(norm)]
    return ["try:", *_indent(body), "except _RHS_ERRORS:", *_indent(failed), "_enorm = _inf", *norm]


def _loop_lines(names, prelude, comps) -> list[str]:
    """Source of the step loop `_loop(_sgn, _span, _edge, _rung,
    _max_steps, _used, _t, _y, _f, _h, _rows)` of the field source
    (names, prelude, comps), which runs integrate()'s passes `_used`,
    `_used` + 1, ... (below `_max_steps`) from the state (t, y, f, h), each
    step as _step_lines writes it.
    A step is rejected unless its error norm is <= 1 (NaN included) and
    scales h by 0.25 when the error norm is not finite or a stage failed,
    else by max(0.2, 0.9 enorm^-0.2); an accepted step packs the row
    (sgn t, y) onto the flat history rows and scales h by min(5,
    max(0.2, 0.9 (enorm + 1e-300)^-0.2)).  The loop returns
    `(event, used, t, y, f, h)` at the pass where integrate() has work to
    do: 'horizon' before a step when h > span - t, 'stall' when a
    rejection takes h under H_MIN, 'edge' after an accepted step with
    y[0] <= edge has been committed, else 'rung' after one with a component
    of |y| >= rung has been, and 'limit' after the last pass."""
    cs = range(len(names))
    y, f = _tup(f"_y{c}" for c in cs), _tup(f"_k0_{c}" for c in cs)
    state = f"_used, _t, {y}, {f}, _h"
    stall = [f"if _h < {H_MIN!r}:", f"    return 'stall', {state}", "continue"]
    reached = " or ".join(f"_b{c} >= _rung" for c in cs)
    step = [*_step_lines(names, prelude, comps, ["_h *= 0.25", *stall]),
            "if not _enorm <= 1.0:",
            "    if _isfinite(_enorm):",
            "        _x = 0.9 * _enorm ** -0.2",
            "        _h *= _x if _x > 0.2 else 0.2",
            "    else:",
            "        _h *= 0.25",
            *_indent(stall),
            "_t = _t + _h",
            f"{y} = {_tup(f'_n{c}' for c in cs)}",
            f"{f} = {_tup(f'_k{len(_A)}_{c}' for c in cs)}",
            f"_put(_pack(_sgn * _t, {', '.join(f'_y{c}' for c in cs)}))",
            "_x = 0.9 * (_enorm + 1e-300) ** -0.2",
            "_x = _x if _x > 0.2 else 0.2",
            "_h *= _x if _x < 5.0 else 5.0",
            "if _y0 <= _edge:",
            f"    return 'edge', {state}",
            f"if {reached}:",
            f"    return 'rung', {state}"]
    return ["def _loop(_sgn, _span, _edge, _rung, _max_steps, _used, _t, _y, _f, _h, _rows):",
            f"    {y} = _y",
            f"    {f} = _f",
            "    _put, _pack = _rows.frombytes, _pack_row",
            "    for _used in range(_used, _max_steps):",
            "        if _h > _span - _t:",
            f"            return 'horizon', {state}",
            "        _sh = _sgn * _h",
            *_indent(step, 2),
            f"    return 'limit', {state}"]


def _tup(names) -> str:
    return f"({', '.join(names)},)"


class Field:
    """A right-hand side given by its source text: the state components are
    bound to `names`, the `prelude` statements run (they may raise
    DomainError), and component c of the value is the expression
    `comps[c]`, which may read the names, the prelude's locals, the
    constants `consts` ((name, value) pairs) and the namespace of generated
    code (`_exp`, `_log`, `_powf`, ..., `inf`, `nan`).  Names that
    begin with an underscore belong to the kernel and to the shared names
    `_s0`, `_s1`, ... that `expr._emit_shared` binds in the components, so
    the names, the constants and the prelude's locals may not begin with
    one (ValueError).

    integrate() runs a Field through its own step loop, the source inlined
    at every stage; calling the Field runs the same text as a plain
    right-hand side.  Both are compiled on first use, cached on the field's
    shape (its names, prelude, components and constant names), and take the
    constants' values as closure values, so Fields that differ only in
    those values share one kernel: the Killing fields name their finite
    constants for this (killing._field_rhs).  A Field compares and hashes by
    identity (it is not an `expr.Data`): Fields share kernels through that
    cache on their shape, never by comparing equal."""

    def __init__(self, names: tuple[str, ...], prelude: tuple[str, ...],
                 comps: tuple[str, ...], consts: tuple[tuple[str, float], ...] = ()):
        bound = names + tuple(name for name, _ in consts) + _prelude_locals(prelude)
        if len(comps) != len(names) or any(n.startswith("_") for n in bound):
            raise ValueError(f"malformed field: names {names}, {len(comps)} components, "
                             f"constants and prelude locals {bound[len(names):]}")
        self.names, self.prelude, self.comps, self.consts = names, prelude, comps, consts

    @cached_property
    def _code(self):
        make = _field_code(self.names, self.prelude, self.comps,
                           tuple(name for name, _ in self.consts))
        return make(*(value for _, value in self.consts))

    @property
    def kernel(self) -> Callable:
        """The step loop with this field inlined (see _loop_lines)."""
        return self._code[0]

    def __call__(self, y) -> tuple[float, ...]:
        return self._code[1](y)


@lru_cache(maxsize=None)
def _prelude_locals(prelude: tuple[str, ...]) -> tuple[str, ...]:
    """The names the prelude statements bind."""
    return tuple(node.id for node in ast.walk(ast.parse("\n".join(prelude)))
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))


def _read_names(lines: tuple[str, ...]) -> frozenset[str]:
    """The names the statements or expressions `lines` read: loaded, or
    updated by an augmented assignment."""
    tree = ast.parse("\n".join(lines))
    updated = {id(node.target) for node in ast.walk(tree) if isinstance(node, ast.AugAssign)}
    return frozenset(node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                     and (not isinstance(node.ctx, ast.Store) or id(node) in updated))


@lru_cache(maxsize=None)
def _field_code(names, prelude, comps, const_names) -> Callable:
    """`make(*constants) -> (loop, rhs)` for one field shape: the generated
    `_make` with the row packer of the shape's dimension as its first
    argument, which the loop reads as `_pack_row`."""
    call = (["def _call(_p):"]
            + [f"    {n} = _float(_p[{c}])" for c, n in enumerate(names)]
            + _indent(prelude)
            + [f"    return {_tup(comps)}"])
    body = _loop_lines(names, prelude, comps) + call + ["return _loop, _call"]
    make = _compile([f"def _make({', '.join(('_pack_row',) + const_names)}):", *_indent(body)],
                    "_make")
    return partial(make, Struct(f"{1 + len(names)}d").pack)


def _calling_field(rhs: Callable, dim: int) -> Field:
    """A plain callable rhs on states of dimension dim as a Field that calls
    it at each stage and converts its outputs with float(); a stage output
    of another length fails the stage (ValueError).  rhs is a constant, so
    all of them at one dimension share one kernel."""
    ys, ks = tuple(f"y{c}" for c in range(dim)), tuple(f"k{c}" for c in range(dim))
    return Field(ys, (f"{_tup(ks)} = rhs({_tup(ys)})",), tuple(f"_float({k})" for k in ks),
                 (("rhs", rhs),))


def _segment(t0, y0, f0, t1, y1, f1, sgn):
    """Cubic Hermite interpolant over one internal step, in plain floats:
    component by component, ((h00 y0 + (h10 dt) d0) + h01 y1) + (h11 dt) d1
    with d = sgn f, the operations of that expression on numpy arrays."""
    dt = t1 - t0
    rows = tuple(zip(y0, (sgn * v for v in f0), y1, (sgn * v for v in f1)))

    def at(tt):
        if dt == 0:
            return tuple(y0)
        s = (tt - t0) / dt
        s2, s3 = s * s, s * s * s
        h00, h10 = 2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * dt
        h01, h11 = -2 * s3 + 3 * s2, (s3 - s2) * dt
        return tuple(h00 * a + h10 * b + h01 * c + h11 * d for a, b, c, d in rows)
    return at


def _call_rhs(rhs, y) -> tuple[float, ...]:
    return tuple(float(v) for v in rhs(y))


def _initial_step(y, f):
    d0 = max(abs(v) / (ATOL + RTOL * abs(v)) for v in y)
    d1 = max(abs(fv) / (ATOL + RTOL * abs(yv)) for fv, yv in zip(f, y))
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return max(min(h, 0.1), 1e-10)


def _norm_inf(v) -> float:
    return max(map(abs, v))


def _median(xs) -> float:
    """np.median of a non-empty list of floats, in float arithmetic (numpy's
    first median call imports numpy.ma): NaN when any value is NaN, else the
    middle sorted value, or the mean (a + b) / 2 of the two middle ones."""
    if any(v != v for v in xs):
        return math.nan
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


def _rhs_grew(n, norm) -> bool:
    """Whether |f| grew over a run of n rows, norm(i) being |f| at row i:
    the last row's exceeds 1e3 times the median over the first half (at
    least 4 rows); True under 4 rows.  Only the rows read are asked for."""
    if n < 4:
        return True
    ref = _median([norm(i) for i in range(max(4, n // 2))])
    return norm(n - 1) > 1e3 * max(ref, 1e-12)


def _bisect_crossing(g, t_lo, t_hi) -> float:
    """Bisection for the first sign change of g on [t_lo, t_hi], at most 80
    halvings; assumes g(t_lo) > 0 >= g(t_hi)."""
    lo, hi = t_lo, t_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def _classify_ladder(ladder_times, t_last, sgn):
    """Blowup when at least three ladder rungs were crossed and every ratio
    of successive gaps is under CONVERGENCE_RATIO (a spiral's alternating
    gaps are no blowup).  The median ratio sizes the bracket, reported in
    real time, ordered ascending, padded by an allowance for the integration
    drift that accumulates while resolving the singularity (observed around
    1e-11 at these tolerances; 2e-4 is generous and keeps the bracket far
    inside the 1e-3 contract)."""
    if len(ladder_times) < 3:
        return None
    gaps = [g for g in (b - a for a, b in zip(ladder_times, ladder_times[1:])) if g > 0]
    if len(gaps) < 2:
        return None
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    # the largest ratio as np.max reads it: NaN, never >= anything, when one is NaN
    if max(ratios) >= CONVERGENCE_RATIO and not any(q != q for q in ratios):
        return None
    r = _median(ratios)
    tail = gaps[-1] * r / (1.0 - r)
    drift = 2e-4
    lo = t_last - drift
    hi = t_last + 3.0 * tail + drift
    a, b = sgn * lo, sgn * hi
    return Blowup(t_lo=min(a, b), t_hi=max(a, b))
