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
works on plain float tuples; numpy enters only for storage and dense output.
The step is a kernel generated from the tableau with every stage and
component written out.  A right-hand side given as a Field (its source
text) is inlined at every stage of a kernel of its own, compiled on first
use and cached on the source; any other callable is called at each stage
by one kernel per state dimension.  Either way the arithmetic is that of
the generic tableau loop, operation for operation, so trajectories are
bit-identical to it.

A run can be extended to a longer horizon.  Its Trajectory carries a
Checkpoint: the loop's state (t, y, f, h, ladder, history, steps used) at
the first step the horizon cut short, where the step size would have been
clamped to land on it.  Every step before that one is the same at any
longer horizon, so integrate() resumes there and returns what a fresh run
to the longer horizon returns, bit for bit; a run whose status was settled
before any cut is returned as it is.  The extension must keep the run's
direction and its edge, compared by value.  The probes confirm a complete verdict
this way, extending each horizon-T run instead of integrating again from
t = 0.  The history is kept in flat buffers of doubles (8 bytes per
component), from which the Trajectory's arrays are read without a copy.

The tolerances, the minimum step, the state cap and the limit of 400,000
steps (counted from t = 0, over every extension of a run) are fixed module
constants, not parameters: every flow and geodesic runs at the same
settings.  Exceeding the step limit raises RuntimeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

from .expr import _NAMESPACE, DomainError

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


@dataclass(frozen=True)
class ReachedHorizon:
    t: float

    def to_json(self):
        return {"status": "reached-horizon", "t": self.t}


@dataclass(frozen=True)
class Blowup:
    t_lo: float
    t_hi: float

    @property
    def width(self) -> float:
        return abs(self.t_hi - self.t_lo)

    def to_json(self):
        return {"status": "blowup", "t_star_bracket": [self.t_lo, self.t_hi]}


@dataclass(frozen=True)
class LeftDomain:
    t: float

    def to_json(self):
        return {"status": "left-domain", "t_star": self.t}


@dataclass(frozen=True)
class StepCollapse:
    t: float
    rhs_grew: bool

    def to_json(self):
        return {"status": "step-collapse", "t_star": self.t, "rhs_grew": self.rhs_grew}


@dataclass(frozen=True)
class Unbounded:
    t: float

    def to_json(self):
        return {"status": "unbounded-growth", "t_reached": self.t}


Status = Union[ReachedHorizon, Blowup, LeftDomain, StepCollapse, Unbounded]

#: statuses that witness failure of the flow to extend to the horizon
ESCAPE_STATUSES = (Blowup, LeftDomain, StepCollapse)


@dataclass
class Trajectory:
    """Time-stamped samples of a flow or geodesic plus a termination status.

    times are strictly monotone in the integration direction; states hold
    the sampled points (dimension 2 for flows, 4 for geodesics).  The nodal
    derivatives are kept so samples can be interpolated by cubic Hermite.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    status: Status
    checkpoint: Checkpoint  # where integrate() resumes to extend the run

    @property
    def escaped(self) -> bool:
        return isinstance(self.status, ESCAPE_STATUSES)

    def eval(self, t: float) -> np.ndarray:
        """Dense output by cubic Hermite interpolation between nodes."""
        ts = self.times
        lo, hi = (ts[0], ts[-1]) if ts[0] <= ts[-1] else (ts[-1], ts[0])
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise ValueError(f"t={t} outside trajectory range [{lo}, {hi}]")
        if ts[0] <= ts[-1]:
            i = int(np.searchsorted(ts, t, side="right")) - 1
        else:
            i = int(np.searchsorted(-ts, -t, side="right")) - 1
        i = max(0, min(i, len(ts) - 2))
        return _hermite(ts[i], self.states[i], self.derivs[i],
                        ts[i + 1], self.states[i + 1], self.derivs[i + 1], t)


class Checkpoint:
    """Where integrate() extends a run, made in `direction` to the horizon
    `span` with the x1 `edge` (a float, or None for no edge): the loop's
    state (steps used, t, y, f, h, ladder index, ladder times) at the first
    step the horizon cut short, and the first n rows (of dim components) of
    the run's flat history buffers ts, ys and fs.  loop is None when the run
    ended before any cut; its status then stands at every longer horizon.
    An extension must pass an edge equal in value to this one."""

    __slots__ = ("direction", "span", "edge", "dim", "ts", "ys", "fs", "n", "loop", "status")

    def __init__(self, direction, span, edge, dim, ts, ys, fs, n, loop, status):
        self.direction, self.span, self.edge, self.dim = direction, span, edge, dim
        self.ts, self.ys, self.fs, self.n = ts, ys, fs, n
        self.loop, self.status = loop, status


def _hermite(t0, y0, f0, t1, y1, f1, t):
    dt = t1 - t0
    if dt == 0:
        return np.array(y0)
    s = (t - t0) / dt
    s2, s3 = s * s, s * s * s
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return h00 * y0 + h10 * dt * f0 + h01 * y1 + h11 * dt * f1


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

_RHS_ERRORS = (DomainError, OverflowError, ZeroDivisionError, ValueError)


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
    y0 may instead be the Checkpoint of an earlier run of the same rhs in
    the same direction with an equal edge, to a horizon no longer than
    |t_end| (ValueError otherwise): the run is extended from there, and the
    result is that of a fresh run to t_end."""
    from array import array  # on the first integration, not at import

    direction = "forward" if t_end >= 0 else "backward"
    sgn = 1.0 if t_end >= 0 else -1.0
    span = abs(t_end)
    if isinstance(y0, Checkpoint):
        cp = y0
        if cp.direction != direction or not span >= cp.span or cp.edge != edge:
            raise ValueError(f"cannot extend a {cp.direction} run to {cp.span} with "
                             f"another edge, a shorter horizon or the other direction")
        dim, n = cp.dim, cp.n
        if cp.loop is None:
            return _trajectory(cp.ts, cp.ys, cp.fs, dim, cp.status, cp)
        ts, ys, fs = cp.ts[:n], cp.ys[:n * dim], cp.fs[:n * dim]
        used, t, y, f, h, ladder_idx, ladder_times = cp.loop
        ladder_times = list(ladder_times)
    else:
        y = tuple(float(v) for v in y0)
        dim = len(y)
        if edge is not None and y[0] <= edge:
            raise DomainError("initial point outside the domain")
        try:
            f = tuple(float(v) for v in rhs(y))
        except _RHS_ERRORS as err:
            raise DomainError(f"right-hand side undefined at the initial point: {err}") from err
        if len(f) != dim:
            raise TypeError(f"right-hand side has {len(f)} components for a state of dimension {dim}")
        ts, ys, fs = array("d", (0.0,)), array("d", y), array("d", f)
        ladder_times = []
        ladder_idx = 0
        while ladder_idx < len(LADDER) and _norm_inf(y) >= LADDER[ladder_idx]:
            ladder_times.append(0.0)
            ladder_idx += 1
        h = _initial_step(y, f)
        t = 0.0
        used = 0
    step = rhs.kernel if isinstance(rhs, Field) else _step_kernel(dim)
    cut = None

    def finish(status: Status) -> Trajectory:
        n, loop = (len(ts), None) if cut is None else cut
        cp = Checkpoint(direction, span, edge, dim, ts, ys, fs, n, loop, status)
        return _trajectory(ts, ys, fs, dim, status, cp)

    def stalled_status():
        blow = _classify_ladder(ladder_times, t, sgn)
        if blow is not None:
            return blow
        if edge is not None:
            if y[0] <= UNDERFLOW_X1:
                return Unbounded(sgn * t)
            if y[0] <= max(1e-8, edge * 4):
                return LeftDomain(sgn * t)
        return StepCollapse(sgn * t, _rhs_grew([_norm_inf(fs[i:i + dim])
                                                for i in range(0, len(fs), dim)]))

    for used in range(used, MAX_STEPS):
        if h > span - t:  # the horizon cuts this step short, or was reached
            if cut is None:
                cut = (len(ts), (used, t, y, f, h, ladder_idx, tuple(ladder_times)))
            if t >= span:
                return finish(ReachedHorizon(sgn * span))
            h = span - t

        stepped = step(rhs, sgn, y, f, h)
        if stepped is None:  # right-hand side failed inside the step
            h *= 0.25
            if h < H_MIN:
                return finish(stalled_status())
            continue
        y_new, f_new, enorm = stepped
        if enorm > 1.0:
            factor = 0.25 if not math.isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
            h *= factor
            if h < H_MIN:
                return finish(stalled_status())
            continue

        t_new = t + h
        # edge crossing within the accepted step
        if edge is not None and y_new[0] <= edge:
            if y[0] <= UNDERFLOW_X1:
                return finish(Unbounded(sgn * t))
            seg = _segment(t, y, f, t_new, y_new, f_new, sgn)
            t_cross = _bisect_crossing(lambda tt: seg(tt)[0] - edge, t, t_new)
            y_cross = tuple(float(v) for v in seg(t_cross))
            ts.append(sgn * t_cross)
            ys.extend(y_cross)
            fs.extend(_safe_rhs(rhs, y_cross, f_new))
            return finish(LeftDomain(sgn * t_cross))

        # threshold ladder crossings (for blowup/unbounded classification)
        n_new = _norm_inf(y_new)
        while ladder_idx < len(LADDER) and n_new >= LADDER[ladder_idx]:
            rung = LADDER[ladder_idx]
            seg = _segment(t, y, f, t_new, y_new, f_new, sgn)
            t_cross = _bisect_crossing(lambda tt: _norm_inf(seg(tt)) - rung, t, t_new)
            ladder_times.append(t_cross)
            ladder_idx += 1

        t, y, f = t_new, y_new, f_new
        ts.append(sgn * t)
        ys.extend(y)
        fs.extend(f)

        if n_new >= STATE_CAP:
            blow = _classify_ladder(ladder_times, t, sgn)
            return finish(blow if blow is not None else Unbounded(sgn * t))

        h *= min(5.0, max(0.2, 0.9 * (enorm + 1e-300) ** -0.2))
    raise RuntimeError(f"integrator exceeded max_steps ({MAX_STEPS})")


def _trajectory(ts, ys, fs, dim, status, checkpoint) -> Trajectory:
    """A Trajectory whose arrays read the history buffers in place."""
    n = len(ts)
    return Trajectory(np.frombuffer(ts), np.frombuffer(ys).reshape(n, dim),
                      np.frombuffer(fs).reshape(n, dim), status, checkpoint)


_KERNEL_NAMESPACE = {**_NAMESPACE, "DomainError": DomainError, "_RHS_ERRORS": _RHS_ERRORS,
                     "_isfinite": math.isfinite, "_sqrt": math.sqrt, "_inf": math.inf,
                     "_max": max, "_abs": abs, "_float": float}


def _step_lines(dim: int, stage: Callable) -> list[str]:
    """Source of one Dormand-Prince step `_step(_rhs, _sgn, _y, _f, _h) ->
    (y_new, f_new, enorm)`, or None when the right-hand side is undefined
    at a stage point.  stage(s, point) gives the lines, indented for the
    body of the try block, that set `_k{s}_0, _k{s}_1, ...` from the stage
    point, a list of one source expression per component.  Every stage and
    component is a local float and every tableau coefficient a literal, in
    the order of the generic tableau loop: each sum runs left to right from
    0.0 (the same addition as sum()'s int start 0, so -0.0 still becomes
    0.0), zero coefficients included (0.0 * inf stays NaN), and the error,
    scaled by h, is normed component by component as RMS over
    ATOL + RTOL * max(|y|, |y_new|), inf when y_new is not finite.  Every
    name the step binds begins with an underscore."""
    comps = range(dim)

    def combo(coeffs, c):
        return " + ".join(["0.0"] + [f"{a!r} * _k{s}_{c}" for s, a in enumerate(coeffs)])

    lines = ["def _step(_rhs, _sgn, _y, _f, _h):",
             f"    {_tup(f'_y{c}' for c in comps)} = _y",
             f"    {_tup(f'_k0_{c}' for c in comps)} = _f",
             "    _sh = _sgn * _h",
             "    try:"]
    for s, row in enumerate(_A[1:], start=1):
        lines += stage(s, [f"_y{c} + _sh * ({combo(row, c)})" for c in comps])
    lines += [f"        _n{c} = _y{c} + _sh * ({combo(_B, c)})" for c in comps]
    lines += stage(len(_A), [f"_n{c}" for c in comps])
    lines += [f"        _e{c} = _h * ({combo(_E, c)})" for c in comps]
    lines += ["    except _RHS_ERRORS:",
              "        return None",
              f"    _y_new = {_tup(f'_n{c}' for c in comps)}",
              f"    _f_new = {_tup(f'_k{len(_A)}_{c}' for c in comps)}"]
    for c in comps:
        lines += [f"    if not _isfinite(_n{c}):",
                  "        return _y_new, _f_new, _inf",
                  f"    _t{c} = (_e{c} / ({ATOL!r} + {RTOL!r} * _max(_abs(_y{c}), _abs(_n{c})))) ** 2"]
    lines += [f"    _enorm = {' + '.join(['0.0'] + [f'_t{c}' for c in comps])}",
              f"    return _y_new, _f_new, _sqrt(_enorm / {dim}) if _isfinite(_enorm) else _enorm"]
    return lines


def _tup(names) -> str:
    return f"({', '.join(names)},)"


def _exec(lines: list[str], name: str):
    namespace = dict(_KERNEL_NAMESPACE)
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from the tableau and our own sources
    return namespace[name]


@lru_cache(maxsize=None)
def _step_kernel(dim: int) -> Callable:
    """The step for a plain callable right-hand side on states of dimension
    dim (the call form): each stage calls `rhs` on the stage point and
    converts its outputs with float()."""
    def call(s, point):
        ks = [f"_k{s}_{c}" for c in range(dim)]
        return [f"        {_tup(ks)} = _rhs({_tup(point)})",
                f"        {_tup(ks)} = {_tup(f'_float({k})' for k in ks)}"]
    return _exec(_step_lines(dim, call), "_step")


class Field:
    """A right-hand side given by its source text: the state components are
    bound to `names`, the `prelude` statements run (they may raise
    DomainError), and component c of the value is the expression
    `comps[c]`, which may read the names, the prelude's locals, the
    constants `consts` ((name, value) pairs) and the compiled-expression
    namespace (`_exp`, `_log`, `_powf`, ..., `inf`, `nan`).  Names that
    begin with an underscore belong to the kernel.

    integrate() steps a Field with its own Dormand-Prince kernel, the
    source inlined at every stage (the source form); calling the Field runs
    the same text as a plain right-hand side.  Both are compiled on first
    use, cached on the source, and take the constants as closure values,
    so Fields that differ only in their constants share one kernel.  A
    Field hashes by identity (a plain class, because a dataclass costs
    about 1 ms at import)."""

    def __init__(self, names: tuple[str, ...], prelude: tuple[str, ...],
                 comps: tuple[str, ...], consts: tuple[tuple[str, float], ...] = ()):
        bound = names + tuple(name for name, _ in consts)
        if len(comps) != len(names) or any(n.startswith("_") for n in bound):
            raise ValueError(f"malformed field: names {names}, {len(comps)} components, "
                             f"constants {[n for n, _ in consts]}")
        self.names, self.prelude, self.comps, self.consts = names, prelude, comps, consts

    @cached_property
    def _code(self):
        make = _field_code(self.names, self.prelude, self.comps,
                           tuple(name for name, _ in self.consts))
        return make(*(value for _, value in self.consts))

    @property
    def kernel(self) -> Callable:
        """`step(rhs, sgn, y, f, h)` with this field inlined (rhs is unused)."""
        return self._code[0]

    def __call__(self, y) -> tuple[float, ...]:
        return self._code[1](y)


@lru_cache(maxsize=None)
def _field_code(names, prelude, comps, const_names) -> Callable:
    """`make(*constants) -> (step, rhs)` for one field source."""
    def source(s, point):
        return ([f"        {n} = {p}" for n, p in zip(names, point)]
                + [f"        {line}" for line in prelude]
                + [f"        _k{s}_{c} = {src}" for c, src in enumerate(comps)])
    call = (["def _call(_p):"]
            + [f"    {n} = _float(_p[{c}])" for c, n in enumerate(names)]
            + [f"    {line}" for line in prelude]
            + [f"    return {_tup(comps)}"])
    body = _step_lines(len(names), source) + call + ["return _step, _call"]
    return _exec([f"def _make({', '.join(const_names)}):"] + [f"    {line}" for line in body],
                 "_make")


def _segment(t0, y0, f0, t1, y1, f1, sgn):
    """Cubic Hermite interpolant over one internal step."""
    a0, a1 = np.array(y0), np.array(y1)
    d0, d1 = sgn * np.array(f0), sgn * np.array(f1)

    def at(tt):
        return _hermite(t0, a0, d0, t1, a1, d1, tt)
    return at


def _safe_rhs(rhs, y, fallback):
    try:
        return tuple(float(v) for v in rhs(y))
    except _RHS_ERRORS:
        return tuple(fallback)


def _initial_step(y, f):
    d0 = max(abs(v) / (ATOL + RTOL * abs(v)) for v in y)
    d1 = max(abs(fv) / (ATOL + RTOL * abs(yv)) for fv, yv in zip(f, y))
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return max(min(h, 0.1), 1e-10)


def _norm_inf(v) -> float:
    return max(map(abs, v))


def _rhs_grew(hist) -> bool:
    if len(hist) < 4:
        return True
    ref = float(np.median(hist[: max(4, len(hist) // 2)]))
    return hist[-1] > 1e3 * max(ref, 1e-12)


def _bisect_crossing(g, t_lo, t_hi, iters: int = 80) -> float:
    """Bisection for the first sign change of g on [t_lo, t_hi]; assumes
    g(t_lo) > 0 >= g(t_hi)."""
    lo, hi = t_lo, t_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi


def _classify_ladder(ladder_times, t_last, sgn):
    """Blowup when at least three ladder rungs were crossed with gaps that
    shrink geometrically.  The bracket is reported in real time, ordered
    ascending, padded by an allowance for the integration drift that
    accumulates while resolving the singularity (observed around 1e-11 at
    these tolerances; 2e-4 is generous and keeps the bracket far inside
    the 1e-3 contract)."""
    if len(ladder_times) < 3:
        return None
    gaps = np.diff(ladder_times)
    gaps = gaps[gaps > 0]
    if len(gaps) < 2:
        return None
    ratios = gaps[1:] / gaps[:-1]
    r = float(np.median(ratios))
    if r >= CONVERGENCE_RATIO:
        return None
    tail = float(gaps[-1]) * r / (1.0 - r)
    drift = 2e-4
    lo = t_last - drift
    hi = t_last + 3.0 * tail + drift
    a, b = sgn * lo, sgn * hi
    return Blowup(t_lo=min(a, b), t_hi=max(a, b))
