"""Stepper calibration: accuracy, dense output, escape classification.

The escape detectors are calibrated on textbook ODEs with known behavior
before any geometry touches them.
"""

import ast
import builtins
import dis
import functools
import hashlib
import inspect
import itertools
import math
import sys
import types
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsurf import catalog, cli, geodesic, killing, qe
from affsurf import expr as ex
from affsurf import integrate as integrate_module
from affsurf.connection import ChristoffelSpec
from affsurf.expr import (Const, DomainError, VectorFieldExpr, _emit_shared, const, log, power,
                          x1, x2)
from affsurf.integrate import (_A, _B, _E, _RHS_ERRORS, ATOL, RTOL, Blowup, Field,
                               LeftDomain, ReachedHorizon, StepCollapse, Unbounded, _segment,
                               integrate)
from test_expr import OUTSIDE, outcome, parse_expr


def lsum(terms):
    """Left-to-right sum from int 0, as Python 3.11's sum() adds floats
    (3.12 and later compensate)."""
    acc = 0
    for t in terms:
        acc = acc + t
    return acc


def reference_step(rhs, sgn, y, f, h):
    """One Dormand-Prince step as a generic loop over the tableau, with the
    scaled RMS error norm: the arithmetic every generated step kernel must
    reproduce.  None when the right-hand side fails at a stage point."""
    rng = range(len(y))
    sh = sgn * h
    k = [f]
    try:
        for row in _A[1:]:
            yi = tuple(y[c] + sh * lsum(aij * k[s][c] for s, aij in enumerate(row)) for c in rng)
            k.append(tuple(float(v) for v in rhs(yi)))
        y_new = tuple(y[c] + sh * lsum(bi * k[s][c] for s, bi in enumerate(_B)) for c in rng)
        f_new = tuple(float(v) for v in rhs(y_new))
        k.append(f_new)
        err = tuple(h * lsum(ei * k[s][c] for s, ei in enumerate(_E)) for c in rng)
    except _RHS_ERRORS:
        return None
    enorm = 0.0
    for c in rng:
        nc = y_new[c]
        if not math.isfinite(nc):
            enorm = math.inf
            break
        sc = ATOL + RTOL * max(abs(y[c]), abs(nc))
        enorm += (err[c] / sc) ** 2
    if math.isfinite(enorm):
        enorm = math.sqrt(enorm / len(y))
    return y_new, f_new, enorm


def reference_integrate(rhs, y0, t_end, *, edge=None, passes=None):
    """integrate() as a plain Python loop over reference_step: the loop
    that every generated step loop must reproduce, bit for bit.  passes,
    when given, receives the outcome of each loop pass: 'cut' when the
    horizon shortened its step, then 'failed', 'rejected' or 'accepted'."""
    im = integrate_module
    direction = "forward" if t_end >= 0 else "backward"
    sgn = 1.0 if t_end >= 0 else -1.0
    span = abs(t_end)
    if isinstance(y0, im.Trajectory):
        run = y0
        if run.direction != direction or not span >= run.span or run.edge != edge:
            raise ValueError("cannot extend")
        if run.loop is None:
            return run
        dim = run.states.shape[1]
        rows = run.rows[:run.n * (1 + dim)]
        used, t, y, f, h, ladder_times = run.loop
        ladder_times = list(ladder_times)
        ladder_idx = len(ladder_times)
    else:
        y = tuple(float(v) for v in y0)
        dim = len(y)
        if edge is not None and y[0] <= edge:
            raise DomainError("initial point outside the domain")
        f = tuple(float(v) for v in rhs(y))
        rows = array("d", (0.0, *y))
        ladder_times = []
        ladder_idx = 0
        while ladder_idx < len(im.LADDER) and im._norm_inf(y) >= im.LADDER[ladder_idx]:
            ladder_times.append(0.0)
            ladder_idx += 1
        h = im._initial_step(y, f)
        t = 0.0
        used = 0
    w = 1 + dim  # a history row is (sgn t, y)
    cut = None
    log = passes if passes is not None else []

    def finish(status):
        n, loop = (len(rows) // w, None) if cut is None else cut
        return im.Trajectory(rows, dim, status, direction, span, edge, n, loop)

    def f_of(i):
        """f of row i, recomputed from its stored state."""
        return tuple(float(v) for v in rhs(tuple(rows[i * w + 1:(i + 1) * w])))

    def stalled_status():
        blow = im._classify_ladder(ladder_times, t, sgn)
        if blow is not None:
            return blow
        if edge is not None:
            if y[0] <= im.UNDERFLOW_X1:
                return Unbounded(sgn * t)
            if y[0] <= max(1e-8, edge * 4):
                return LeftDomain(sgn * t)
        n = len(rows) // w
        return StepCollapse(sgn * t, im._rhs_grew(
            n, lambda i: im._norm_inf(f if i == n - 1 else f_of(i))))

    for used in range(used, im.MAX_STEPS):
        if h > span - t:
            if cut is None:
                cut = (len(rows) // w, (used, t, y, f, h, tuple(ladder_times)))
            if t >= span:
                return finish(ReachedHorizon(sgn * span))
            h = span - t
            log.append("cut")

        stepped = reference_step(rhs, sgn, y, f, h)
        if stepped is None:
            log.append("failed")
            h *= 0.25
            if h < im.H_MIN:
                return finish(stalled_status())
            continue
        y_new, f_new, enorm = stepped
        if not enorm <= 1.0:
            log.append("rejected")
            factor = 0.25 if not math.isfinite(enorm) else max(0.2, 0.9 * enorm ** -0.2)
            h *= factor
            if h < im.H_MIN:
                return finish(stalled_status())
            continue
        log.append("accepted")

        t_new = t + h
        n_new = im._norm_inf(y_new)
        rung = im.LADDER[ladder_idx] if ladder_idx < len(im.LADDER) else im.STATE_CAP
        if edge is not None and y_new[0] <= edge or n_new >= rung:
            # integrate() recomputes the current row's f for the crossing segment
            f_row = f_of(len(rows) // w - 1)
        if edge is not None and y_new[0] <= edge:
            if y[0] <= im.UNDERFLOW_X1:
                return finish(Unbounded(sgn * t))
            seg = im._segment(t, y, f_row, t_new, y_new, f_new, sgn)
            t_cross = im._bisect_crossing(lambda tt: seg(tt)[0] - edge, t, t_new)
            y_cross = tuple(float(v) for v in seg(t_cross))
            rows.extend((sgn * t_cross, *y_cross))
            return finish(LeftDomain(sgn * t_cross))

        while ladder_idx < len(im.LADDER) and n_new >= im.LADDER[ladder_idx]:
            rung = im.LADDER[ladder_idx]
            seg = im._segment(t, y, f_row, t_new, y_new, f_new, sgn)
            t_cross = im._bisect_crossing(lambda tt: im._norm_inf(seg(tt)) - rung, t, t_new)
            ladder_times.append(t_cross)
            ladder_idx += 1

        t, y, f = t_new, y_new, f_new
        rows.extend((sgn * t, *y))

        if n_new >= im.STATE_CAP:
            blow = im._classify_ladder(ladder_times, t, sgn)
            return finish(blow if blow is not None else Unbounded(sgn * t))

        h *= min(5.0, max(0.2, 0.9 * (enorm + 1e-300) ** -0.2))
    raise RuntimeError(f"integrator exceeded max_steps ({im.MAX_STEPS})")


@functools.lru_cache(maxsize=None)
def step_code(names, prelude, comps):
    """The compiled definition of `_step(_rhs, _sgn, _y, _f, _h) -> (y_new,
    f_new, enorm)`, or None when the right-hand side fails at a stage
    point: the step body that the step loop of integrate() inlines for the
    field source (names, prelude, comps), built from the same generator
    (_rhs is unused)."""
    tup, dim = integrate_module._tup, len(names)
    y, f = tup(f"_y{c}" for c in range(dim)), tup(f"_k0_{c}" for c in range(dim))
    lines = (["def _step(_rhs, _sgn, _y, _f, _h):", f"    {y} = _y", f"    {f} = _f",
              "    _sh = _sgn * _h"]
             + integrate_module._indent(integrate_module._step_lines(names, prelude, comps,
                                                                     ["return None"]))
             + [f"    return {tup(f'_n{c}' for c in range(dim))}, "
                f"{tup(f'_k6_{c}' for c in range(dim))}, _enorm"])
    return compile("\n".join(lines), "<step>", "exec")


def field_step(field):
    """field's step (its rhs argument is unused), with field's constants as
    globals."""
    namespace = {**ex._NAMESPACE, **dict(field.consts)}
    exec(step_code(field.names, field.prelude, field.comps), namespace)  # noqa: S102
    return namespace["_step"]


def call_step(dim):
    """The step of a plain callable rhs on states of dimension dim: the step
    of the Field that integrate() runs it as."""
    def step(rhs, sgn, y, f, h):
        return field_step(integrate_module._calling_field(rhs, dim))(None, sgn, y, f, h)
    return step


def traced_step(stepper, rhs, sgn, y, f, h):
    """stepper's result and every stage point it called rhs at, each float
    as float.hex, for exact comparison."""
    points = []

    def logged(v):
        points.append([c.hex() for c in v])
        return rhs(v)
    return hexed(stepper(logged, sgn, y, f, h)), points


def hexed(step):
    """A step result with every float as float.hex (None stays None)."""
    if step is None:
        return None
    y_new, f_new, enorm = step
    return [v.hex() for v in y_new], [v.hex() for v in f_new], enorm.hex()


def same_step(make_rhs, sgn, y, f, h):
    """Assert that the generated step of a plain callable and reference_step
    agree bit for bit on the step and on every stage point, each stepping
    with a fresh make_rhs(); return the generated step's trace."""
    got = traced_step(call_step(len(y)), make_rhs(), sgn, y, f, h)
    assert got == traced_step(reference_step, make_rhs(), sgn, y, f, h)
    return got


def coupled_rhs(y):
    dim = len(y)
    return tuple(0.5 * y[(c + 1) % dim] * y[c] - 0.3 * c + y[c] * y[c] / 7.0
                 for c in range(dim))


def failing_at(call, exc=None, value=None, base=coupled_rhs):
    """A maker of copies of base whose call-th call raises exc or returns
    value in every component."""
    def make():
        calls = [0]

        def rhs(y):
            calls[0] += 1
            if calls[0] == call:
                if exc is not None:
                    raise exc
                return (value,) * len(y)
            return base(y)
        return rhs
    return make


def hermite(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite interpolation on numpy arrays between the nodes (t0,
    y0, f0) and (t1, y1, f1)."""
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


def deriv(tr, rhs, i: int) -> tuple[float, ...]:
    """A run's nodal derivative at row i: rhs, the right-hand side the run
    integrated (a stateful one must be the same object), at the row's
    state, recomputed; NaN at a LeftDomain crossing row where rhs raises."""
    y = tuple(tr.states[i].tolist())
    try:
        return tuple(float(v) for v in rhs(y))
    except _RHS_ERRORS:
        if i < len(tr.times) - 1 or not isinstance(tr.status, LeftDomain):
            raise
        return (math.nan,) * len(y)


def derivs(tr, rhs) -> np.ndarray:
    """A run's nodal derivatives, row by row (see deriv)."""
    return np.array([deriv(tr, rhs, i) for i in range(len(tr.times))])


def dense_eval(tr, rhs, t: float) -> np.ndarray:
    """A trajectory's dense output at t, by cubic Hermite interpolation
    between its nodes, whose derivatives are rhs's (see deriv)."""
    ts = tr.times
    lo, hi = (ts[0], ts[-1]) if ts[0] <= ts[-1] else (ts[-1], ts[0])
    if not (lo - 1e-12 <= t <= hi + 1e-12):
        raise ValueError(f"t={t} outside trajectory range [{lo}, {hi}]")
    if ts[0] <= ts[-1]:
        i = int(np.searchsorted(ts, t, side="right")) - 1
    else:
        i = int(np.searchsorted(-ts, -t, side="right")) - 1
    i = max(0, min(i, len(ts) - 2))
    return hermite(ts[i], tr.states[i], np.array(deriv(tr, rhs, i)),
                   ts[i + 1], tr.states[i + 1], np.array(deriv(tr, rhs, i + 1)), t)


def random_entries(rng, n):
    """n floats spread over many magnitudes, with signed zeros, infinities
    and NaN among them."""
    special = (0.0, -0.0, math.inf, -math.inf, math.nan)
    return tuple(special[int(rng.integers(len(special)))] if rng.random() < 0.15
                 else float(rng.normal() * 10.0 ** rng.uniform(-3, 3)) for _ in range(n))


class TestSegment:
    """integrate's plain-float _segment against hermite on numpy arrays,
    bit for bit: the crossing times it locates are those of the arrays."""

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_random_segments(self, dim, sgn):
        rng = np.random.default_rng([11, dim, int(sgn > 0)])
        for k in range(300):
            t0 = float(rng.uniform(0, 10))
            t1 = t0 if k % 10 == 0 else t0 + float(10.0 ** rng.uniform(-8, 0))
            y0, f0, y1, f1 = (random_entries(rng, dim) for _ in range(4))
            seg = _segment(t0, y0, f0, t1, y1, f1, sgn)
            d0, d1 = sgn * np.array(f0), sgn * np.array(f1)
            for t in (t0, t1, float(rng.uniform(t0, t1)), t1 + 1e-3, -0.0):
                with np.errstate(all="ignore"):
                    want = hermite(t0, np.array(y0), d0, t1, np.array(y1), d1, t)
                got = seg(t)
                assert isinstance(got, tuple) and all(type(v) is float for v in got)
                assert [v.hex() for v in got] == [float(v).hex() for v in want], (t0, t1, t)


class TestAccuracy:
    def test_harmonic_oscillator(self):
        tr = integrate(lambda y: (y[1], -y[0]), (1.0, 0.0), 20.0)
        assert isinstance(tr.status, ReachedHorizon)
        assert abs(tr.states[-1][0] - math.cos(20.0)) < 1e-8
        assert abs(tr.states[-1][1] + math.sin(20.0)) < 1e-8

    def test_dense_output(self):
        rhs = lambda y: (y[1], -y[0])  # noqa: E731
        tr = integrate(rhs, (1.0, 0.0), 10.0)
        for t in (0.123, 1.5, 7.77):
            assert abs(dense_eval(tr, rhs, t)[0] - math.cos(t)) < 1e-8

    def test_backward_run(self):
        tr = integrate(lambda y: (y[0],), (1.0,), -3.0)
        assert isinstance(tr.status, ReachedHorizon)
        assert abs(tr.states[-1][0] - math.exp(-3.0)) < 1e-9
        assert tr.times[0] == 0.0 and tr.times[-1] == -3.0

    def test_monotone_times(self):
        tr = integrate(lambda y: (y[1], -y[0]), (1.0, 0.0), 5.0)
        assert np.all(np.diff(tr.times) > 0)


class TestBlowup:
    def test_riccati_forward(self):
        tr = integrate(lambda y: (y[0] ** 2,), (1.0,), 5.0)
        st = tr.status
        assert isinstance(st, Blowup)
        assert st.t_lo <= 1.0 <= st.t_hi
        assert abs(st.t_hi - st.t_lo) <= 1e-3

    def test_riccati_backward(self):
        tr = integrate(lambda y: (y[0] ** 2,), (-1.0,), -5.0)
        st = tr.status
        assert isinstance(st, Blowup)
        assert st.t_lo <= -1.0 <= st.t_hi

    def test_quadratic_pole(self):
        # y = (1 - t/2)^{-2} solves y' = y^{5/2}... use y' = y^{3/2}: pole at 2
        tr = integrate(lambda y: (y[0] ** 1.5,), (1.0,), 10.0)
        st = tr.status
        assert isinstance(st, Blowup) and st.t_lo <= 2.0 <= st.t_hi

    def test_log_type_escape_is_step_collapse(self):
        # x' = e^x: x = -log(1 - t); the state stays small while the
        # right-hand side explodes
        tr = integrate(lambda y: (math.exp(y[0]),), (0.0,), 5.0)
        assert isinstance(tr.status, (StepCollapse, Blowup))
        if isinstance(tr.status, StepCollapse):
            assert abs(tr.status.t - 1.0) < 1e-3 and tr.status.rhs_grew


class TestGrowthIsNotEscape:
    def test_exponential(self):
        tr = integrate(lambda y: (y[0],), (1.0,), 50.0)
        assert isinstance(tr.status, Unbounded)

    def test_doubly_exponential(self):
        tr = integrate(lambda y: (y[0] * math.log(y[0]),), (math.e,), 50.0)
        assert isinstance(tr.status, Unbounded)

    def test_linear_growth_reaches_horizon(self):
        tr = integrate(lambda y: (1.0, 0.0), (0.0, 2.0), 10.0)
        assert isinstance(tr.status, ReachedHorizon)

    def test_spiral_is_not_blowup(self):
        # A.M46 is flat and a Killing flow is affine in its flat chart, so
        # entire; the seed-4 combo[0] spirals out and crosses the ladder's
        # rungs at gaps of 10.58, 2.91, 10.16 and 3.45, whose median ratio
        # (0.34) once read as a blowup
        basis = catalog.instantiate("A.M46").killing_basis
        v = np.random.default_rng(4).normal(size=len(basis))
        X = killing.combination(basis, tuple(float(x) for x in v / np.linalg.norm(v)))
        assert isinstance(killing.flow_integrate(X, (0.3, -0.7), 60.0).status, Unbounded)


class TestClassifyLadder:
    """A Blowup needs every ratio of successive rung gaps under
    CONVERGENCE_RATIO; the median ratio sizes its bracket."""

    def test_alternating_gaps(self):
        # the rung times of A.M46's seed-4 spiral (gaps 10.58, 2.91, 10.16, 3.45)
        times = [26.32, 36.90, 39.81, 49.97, 53.42]
        assert integrate_module._classify_ladder(times, times[-1], 1.0) is None

    def test_geometric_gaps(self):
        # gaps 1, 1/4, 1/16, 1/64 converge to t* = 4/3
        times = [0.0, 1.0, 1.25, 1.3125, 1.328125]
        st = integrate_module._classify_ladder(times, times[-1], 1.0)
        assert isinstance(st, Blowup) and st.t_lo <= 4 / 3 <= st.t_hi

    def test_median_ratio_sizes_the_bracket(self):
        # ratios 0.1, 0.2 and 0.4: the tail is that of the median 0.2
        times = [0.0, 1.0, 1.1, 1.12, 1.128]
        st = integrate_module._classify_ladder(times, times[-1], -1.0)
        assert st.t_hi == -(1.128 - 2e-4)
        assert st.t_lo == pytest.approx(-(1.128 + 3.0 * 0.008 * 0.2 / 0.8 + 2e-4), abs=1e-12)


def numpy_rhs_grew(hist) -> bool:
    """`_rhs_grew` as numpy's median writes it: the oracle of the float one."""
    if len(hist) < 4:
        return True
    with np.errstate(all="ignore"):
        ref = float(np.median(hist[: max(4, len(hist) // 2)]))
    return hist[-1] > 1e3 * max(ref, 1e-12)


def numpy_classify_ladder(ladder_times, t_last, sgn):
    """`_classify_ladder` by numpy's diff, max and median, as (t_lo, t_hi)
    in float.hex, or None: the oracle of the float one."""
    if len(ladder_times) < 3:
        return None
    with np.errstate(all="ignore"):
        gaps = np.diff(ladder_times)
        gaps = gaps[gaps > 0]
        if len(gaps) < 2:
            return None
        ratios = gaps[1:] / gaps[:-1]
        if float(np.max(ratios)) >= integrate_module.CONVERGENCE_RATIO:
            return None
        r = float(np.median(ratios))
    tail = float(gaps[-1]) * r / (1.0 - r)
    a, b = sgn * (t_last - 2e-4), sgn * (t_last + 3.0 * tail + 2e-4)
    return min(a, b).hex(), max(a, b).hex()


#: floats with ties, signed zeros, subnormals, both infinities and NaN
LADDER_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 5e-324, 1e308,
                                           math.inf, -math.inf, math.nan]),
                          st.floats(allow_nan=True, allow_infinity=True))


class TestFloatMedian:
    """`_rhs_grew` and `_classify_ladder` classify in float arithmetic
    exactly as the numpy formulas they replace, NaN rule included."""

    @given(st.lists(LADDER_FLOATS, min_size=1, max_size=12))
    @settings(max_examples=400, deadline=None)
    @example([1.0, 2.0, 3.0, 4.0, 5e3])
    @example([1.0, 2.0, 3.0, math.nan, 5e3])
    @example([math.inf, -math.inf, 1.0, 2.0, 1e300])
    def test_rhs_grew(self, hist):
        assert integrate_module._rhs_grew(len(hist), hist.__getitem__) == numpy_rhs_grew(hist)

    @given(st.lists(LADDER_FLOATS, max_size=9), LADDER_FLOATS, st.sampled_from([1.0, -1.0]))
    @settings(max_examples=400, deadline=None)
    @example([0.0, 1.0, 1.25, 1.3125, 1.328125], 1.328125, 1.0)
    @example([0.0, 1.0, 1.1, 1.12, 1.128], 1.128, -1.0)
    @example([0.0, 1.0, 1.1, 1.11, math.inf], 1.11, 1.0)
    @example([0.0, 1.0, 1.25, 1.3125, 1.328125, 1.33203125], 1.33203125, 1.0)
    @example([0.0, 1.0, 1.25, math.nan, 1.3125, 1.328125], 1.328125, 1.0)
    def test_classify_ladder(self, times, t_last, sgn):
        want = numpy_classify_ladder(times, t_last, sgn)
        got = integrate_module._classify_ladder(times, t_last, sgn)
        assert (got if got is None else (got.t_lo.hex(), got.t_hi.hex())) == want

    def test_median_nan_rule(self):
        median = integrate_module._median
        assert median([3.0, 1.0, 2.0]) == 2.0 and median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert math.isnan(median([1.0, math.nan, 2.0])) and math.isnan(median([-math.inf, math.inf]))


class TestDomainMonitor:
    def test_transversal_crossing(self):
        tr = integrate(lambda y: (-1.0,), (1.0,), 10.0, edge=0.0)
        assert isinstance(tr.status, LeftDomain)
        assert abs(tr.status.t - 1.0) < 1e-9

    def test_asymptotic_decay_not_an_exit(self):
        tr = integrate(lambda y: (-y[0],), (1.0,), 60.0, edge=0.0)
        assert isinstance(tr.status, ReachedHorizon)

    def test_underflow_is_not_an_exit(self):
        # doubly exponential decay underflows doubles in finite time
        def rhs(y):
            u = y[0]
            if u <= 0:
                raise ZeroDivisionError
            return (-u * (1.0 - math.log(u)),)
        tr = integrate(rhs, (0.5,), 60.0, edge=0.0)
        assert isinstance(tr.status, (ReachedHorizon, Unbounded))

    def test_singular_rhs_near_edge(self):
        def rhs(y):
            if y[0] <= 0:
                raise ZeroDivisionError
            return (-1.0 / y[0],)
        tr = integrate(rhs, (1.0,), 10.0, edge=0.0)
        assert isinstance(tr.status, (LeftDomain, StepCollapse))
        t_star = tr.status.t
        assert abs(t_star - 0.5) < 1e-3

    def test_initial_point_outside(self):
        with pytest.raises(DomainError):
            integrate(lambda y: (1.0,), (-1.0,), 1.0, edge=0.0)


class TestFlowGroupLaw:
    """Phi_s o Phi_t = Phi_{s+t} for translation and scaling fields."""

    @pytest.mark.parametrize("rhs,y0", [
        (lambda y: (0.0, 1.0), (0.4, -0.2)),
        (lambda y: (y[0], y[1]), (1.0, 0.5)),
    ])
    def test_composition(self, rhs, y0):
        for s in (0.1, 0.7):
            for t in (0.1, 0.7):
                once = integrate(rhs, y0, t).states[-1]
                twice = integrate(rhs, tuple(once), s).states[-1]
                direct = integrate(rhs, y0, s + t).states[-1]
                assert np.allclose(twice, direct, atol=1e-9)


class TestStepKernel:
    """The generated step of a plain callable, run as a Field that calls it,
    against the generic tableau loop, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_matches_reference_on_random_states(self, dim, sgn):
        rng = np.random.default_rng([dim, int(sgn > 0)])
        enorms = []
        for _ in range(200):
            y = tuple(float(v) for v in rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 1))
            h = float(10.0 ** rng.uniform(-7, 0))
            (_, _, enorm), _ = same_step(lambda: coupled_rhs, sgn, y, coupled_rhs(y), h)
            enorms.append(float.fromhex(enorm))
        assert min(enorms) <= 1.0 < max(enorms)  # accepted and rejected steps

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_domain_error_at_a_middle_stage(self, dim):
        y = (0.5,) * dim
        step, points = same_step(failing_at(3, exc=DomainError("edge")),
                                 1.0, y, coupled_rhs(y), 0.1)
        assert step is None and len(points) == 3

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("call", [4, 6])
    def test_infinite_stage_value(self, dim, call):
        # at the 4th call inf reaches y_new; at the 6th (f_new) only the error
        y = (0.5,) * dim
        (_, _, enorm), _ = same_step(failing_at(call, value=math.inf),
                                     -1.0, y, coupled_rhs(y), 0.1)
        assert float.fromhex(enorm) == math.inf

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_zero_weight_stage_still_counts(self, dim):
        # _B[1] = _E[1] = 0.0, yet an infinite k1 makes y_new NaN (0.0 * inf)
        y = (0.5,) * dim
        (y_new, _, enorm), _ = same_step(
            failing_at(1, value=math.inf, base=lambda v: (1.0,) * len(v)), 1.0, y, y, 0.1)
        assert y_new == ["nan"] * dim and float.fromhex(enorm) == math.inf

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_sums_start_from_zero(self, dim):
        # sum() starts from 0, so a sum of -0.0 terms is +0.0
        y = (-0.0,) * dim
        _, points = same_step(lambda: lambda v: v, 1.0, y, y, 0.1)
        assert points[0] == [(0.0).hex()] * dim

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_stage_values_become_floats(self, dim):
        def rhs(v):
            return tuple(np.float32(c) for c in coupled_rhs(v))
        y = tuple(0.1 * (c + 1) for c in range(dim))
        f = tuple(float(c) for c in rhs(y))
        same_step(lambda: rhs, 1.0, y, f, 0.01)
        y_new, f_new, _ = call_step(dim)(rhs, 1.0, y, f, 0.01)
        assert all(type(v) is float for v in y_new + f_new)


class TestRhsShape:
    @pytest.mark.parametrize("rhs", [lambda y: (y[1],), lambda y: (y[1], -y[0], 0.0)],
                             ids=["too-short", "too-long"])
    def test_wrong_length_is_a_type_error(self, rhs):
        with pytest.raises(TypeError):
            integrate(rhs, (1.0, 0.0), 1.0)

    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_length_at_a_stage_fails_the_stage(self, length):
        # unpacking a stage output of the wrong length raises ValueError,
        # which fails the step as a right-hand side raising would
        rhs = lambda y: (1.0,) * length  # noqa: E731
        assert call_step(2)(rhs, 1.0, (0.5, 0.5), (1.0, 1.0), 0.1) is None


class TestPlainCallable:
    """integrate() runs a plain callable as a Field whose prelude calls it
    (integrate._calling_field)."""

    def test_plain_callables_share_one_loop_per_dimension(self):
        fields = [integrate_module._calling_field(rhs, 2)
                  for rhs in (lambda y: (y[1], -y[0]), lambda y: (y[0], y[0] * y[1]))]
        assert fields[0].kernel.__code__ is fields[1].kernel.__code__
        assert fields[0].kernel is not fields[1].kernel
        integrate(lambda y: (y[1], -y[0]), (1.0, 0.0), 1.0)
        misses = integrate_module._field_code.cache_info().misses
        integrate(lambda y: (-y[1], y[0]), (1.0, 0.0), 1.0)
        assert integrate_module._field_code.cache_info().misses == misses

    def test_runtime_callers_pass_fields(self, monkeypatch, capsys):
        """Every integrate() call of the program passes a Field, whose
        source its kernel inlines, so none of them needs _calling_field."""
        def refuse(rhs, dim):
            raise AssertionError(f"integrate() was passed a plain callable {rhs!r}")
        monkeypatch.setattr(integrate_module, "_calling_field", refuse)
        assert cli.main(["flow", "B.N13p", "--init", "1,-1", "--T", "1"]) == 0
        assert cli.main(["geodesic", "A.M26", "--init", "0,0,1,1", "--T", "1"]) == 0
        assert capsys.readouterr().out
        killing.killing_completeness_probe(catalog.instantiate("B.N06"), T=1.0)
        geodesic.geodesic_completeness_probe(catalog.instantiate("A.M16"), T=1.0)


class TestScipyOracle:
    def test_m46_benchmark_flow_matches_rk45(self):
        """The A.M46 benchmark flow (combination combo[2] of the probe's
        default seed, from (0.3, -0.7) to t = 60) against scipy's RK45 at
        the same tolerances: the same accepted steps, the same end state."""
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        basis = catalog.instantiate("A.M46").killing_basis
        rng = np.random.default_rng(killing.COMBO_SEED)
        for _ in range(3):
            v = rng.normal(size=len(basis))
        coeffs = tuple(float(x) for x in v / np.linalg.norm(v))
        rhs = killing._field_rhs(killing.combination(basis, coeffs))
        tr = integrate(rhs, (0.3, -0.7), 60.0)
        sol = solve_ivp(lambda t, y: rhs(y), (0.0, 60.0), [0.3, -0.7],
                        method="RK45", rtol=1e-10, atol=1e-12)
        assert isinstance(tr.status, ReachedHorizon) and sol.success
        assert len(tr.times) - 1 == len(sol.t) - 1 == 43_684
        ours, theirs = tr.states[-1], sol.y[:, -1]
        assert np.all(np.abs(ours - theirs) <= 1e-8 * np.abs(theirs))


def same_fused_step(field, sgn, y, f, h):
    """Assert that field's step, its source inlined, and reference_step
    calling the field agree bit for bit on the step and on every stage
    point; return the traced step.  The inlined step's stage points are
    logged by a copy of the field whose prelude first hands them to a
    bound constant."""
    points = []
    spy = Field(field.names, (f"trace(({', '.join(field.names)},))",) + field.prelude,
                field.comps, field.consts + (("trace", lambda p: points.append([c.hex() for c in p])),))
    got = hexed(field_step(spy)(None, sgn, y, f, h)), points
    assert got == traced_step(reference_step, field, sgn, y, f, h)
    assert hexed(field_step(field)(None, sgn, y, f, h)) == got[0]
    return got


def fused_steps_on_random_states(field, rng, sgn, states):
    """same_fused_step from each state at a random step size; the error
    norms of the steps that were defined."""
    enorms = []
    for y in states:
        try:
            f = field(y)
        except _RHS_ERRORS:
            continue
        step, _ = same_fused_step(field, sgn, y, f, float(10.0 ** rng.uniform(-6, 0)))
        if step is not None:
            enorms.append(float.fromhex(step[2]))
    return enorms


GEODESIC_SPECS = [catalog.instantiate("A.M16").spec,
                  catalog.instantiate("B.N14", kappa=2.0).spec,
                  catalog.instantiate("A.M54t", c=1.5).spec]


class TestFusedKernel:
    """Each Field's generated step, its source inlined, against
    reference_step calling the Field, bit for bit."""

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_killing_fields_of_every_record(self, sgn):
        rng = np.random.default_rng([6, int(sgn > 0)])
        enorms = []
        for rec in catalog.all_records():
            grid = catalog.sample_grid(rec, 3)
            coeffs = rng.normal(size=len(rec.killing_basis))
            fields = list(rec.killing_basis) + [killing.combination(rec.killing_basis, coeffs)]
            for X in fields:
                states = [tuple(float(c) for c in grid[i]) for i in rng.choice(len(grid), 3)]
                enorms += fused_steps_on_random_states(killing._field_rhs(X), rng, sgn, states)
        assert min(enorms) <= 1.0 < max(enorms)  # accepted and rejected steps

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    @pytest.mark.parametrize("spec", GEODESIC_SPECS, ids=lambda spec: spec.kind)
    def test_geodesic_field_of_each_kind(self, spec, sgn):
        rng = np.random.default_rng([7, int(sgn > 0), len(spec.kind)])
        states = [(float(rng.uniform(0.05, 2)), *(float(v) for v in rng.normal(size=3) * 3))
                  for _ in range(200)]
        enorms = fused_steps_on_random_states(geodesic._make_rhs(spec), rng, sgn, states)
        assert min(enorms) <= 1.0 < max(enorms)

    @pytest.mark.parametrize("X,y,h", [
        (VectorFieldExpr(log(x1), const(1.0)), (0.001, 0.0), 0.01),
        (VectorFieldExpr(const(-1.0), power(x1, Fraction(1, 2))), (0.05, 0.0), 0.1),
    ], ids=["log", "powf"])
    def test_domain_error_at_a_stage(self, X, y, h):
        field = killing._field_rhs(X)
        step, points = same_fused_step(field, 1.0, y, field(y), h)
        assert step is None and points

    def test_half_plane_geodesic_leaving_at_a_stage(self):
        field = geodesic._make_rhs(GEODESIC_SPECS[1])
        y = (0.01, 0.0, -1.0, 0.5)
        step, points = same_fused_step(field, 1.0, y, field(y), 0.1)
        assert step is None and float.fromhex(points[-1][0]) <= 0.0

    def test_infinite_value_reaches_y_new(self):
        field = Field(("x1", "x2"), (), ("x1 * x1 * x1", "x2"))
        y = (1e100, 1.0)
        (y_new, _, enorm), _ = same_fused_step(field, 1.0, y, field(y), 0.01)
        assert not math.isfinite(float.fromhex(y_new[0])) and float.fromhex(enorm) == math.inf

    def test_zero_weight_stage_still_counts(self):
        # the first stage point is about 1e-157, where 1/x1^2 overflows to
        # inf; _B[1] = 0.0 weights that stage, and 0.0 * inf makes y_new NaN
        field = Field(("x1", "x2"), (), ("-1.0", "1.0 / (x1 * x1)"))
        y = (1e-150, 0.0)
        (y_new, _, _), points = same_fused_step(field, 1.0, y, field(y), (1e-150 - 1e-157) / 0.2)
        assert points[1][1] == "inf" and y_new[1] == "nan"

    def test_sums_start_from_zero(self):
        # a stage sum of -0.0 terms is +0.0, as in reference_step
        field = Field(("x1", "x2"), (), ("x1", "x2"))
        _, points = same_fused_step(field, 1.0, (-0.0, -0.0), (-0.0, -0.0), 0.1)
        assert points[0] == [(0.0).hex()] * 2

    def test_negative_zero_constants(self):
        spec = ChristoffelSpec((0.0, -0.0, 0.0, -0.0, 0.0, -0.0))
        for field in (geodesic._make_rhs(spec), Field(("x1", "x2"), (), ("-0.0 * x1", "x2 * -0.0"))):
            y = (0.5,) + (1.0,) * (len(field.names) - 1)
            (_, f_new, _), _ = same_fused_step(field, 1.0, y, field(y), 0.1)
            assert "-0x0.0p+0" in f_new

    def test_non_finite_constant_in_the_source(self):
        X = VectorFieldExpr(parse_expr("c*c*x1 + x2", {"c": 1e200}), parse_expr("x1"))
        field = killing._field_rhs(X)
        assert "inf" in field.comps[0]
        for y in ((1.0, -2.0), (0.0, 1.0)):
            same_fused_step(field, -1.0, y, field(y), 0.01)

    def test_integrate_steps_a_field_with_its_kernel(self):
        """integrate inlines a Field's source: stage points reach the spy's
        prelude, and the trajectory equals a plain callable's."""
        points = []
        field = killing._field_rhs(VectorFieldExpr(x2, -x1))
        spy = Field(field.names, ("trace(x1)",), field.comps,
                    field.consts + (("trace", points.append),))
        fused = integrate(spy, (1.0, 0.0), 5.0)
        called = integrate(lambda y: field(y), (1.0, 0.0), 5.0)
        assert len(points) >= 6 * (len(fused.times) - 1)
        for a, b in ((fused.times, called.times), (fused.states, called.states),
                     (derivs(fused, field), derivs(called, field))):
            assert a.tobytes() == b.tobytes()

    def test_malformed_field(self):
        with pytest.raises(ValueError):
            Field(("x1", "x2"), (), ("x1",))
        with pytest.raises(ValueError):
            Field(("_y0",), (), ("1.0",))

    @pytest.mark.parametrize("names,prelude,consts", [
        (("_s0",), (), ()),
        (("x1",), (), (("_s0", 1.0),)),
        (("x1",), ("_s0 = x1 * x1",), ()),
        (("x1",), ("if x1 > 0.0:", "    q, _s1 = x1, 2.0"), ()),
    ], ids=["name", "constant", "prelude-local", "nested-prelude-local"])
    def test_shared_names_are_reserved(self, names, prelude, consts):
        # the components' shared names _s0, _s1, ... cannot be bound otherwise
        with pytest.raises(ValueError):
            Field(names, prelude, ("(_s0 := x1 * x1) + _s0",), consts)
        Field(("x1",), ("q = x1 * x1",), ("(_s0 := q + 1.0) * _s0",), (("c", 1.0),))


def trajectory_digest(tr, rhs) -> str:
    """SHA-256 of a run's times, states and derivs (rhs's, see deriv)."""
    h = hashlib.sha256()
    for a in (tr.times, tr.states, derivs(tr, rhs)):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def m46_benchmark_combination():
    """combo[2] of the Killing probe's default seed on A.M46."""
    basis = catalog.instantiate("A.M46").killing_basis
    rng = np.random.default_rng(killing.COMBO_SEED)
    for _ in range(3):
        v = rng.normal(size=len(basis))
    return killing.combination(basis, tuple(float(x) for x in v / np.linalg.norm(v)))


class TestGoldenTrajectories:
    """SHA-256 of times, states and derivs, pinned from the generic-loop
    stepper.  The right-hand sides use only +, -, *, / and integer powers
    (no exp, log or trigonometric function), so the digests do not depend
    on the platform's libm; any change to the kernels that moves one bit
    fails here."""

    def test_m46_benchmark_flow(self):
        X = m46_benchmark_combination()
        tr = killing.flow_integrate(X, (0.3, -0.7), 60.0)
        assert tr.status == ReachedHorizon(60.0) and len(tr.times) - 1 == 43_684
        assert trajectory_digest(tr, killing._field_rhs(X)) == \
            "4fb2d23e2fe76d4ec39fe643c5e0a5b80b3cc4a26ed32ffa16358486a72d0166"

    @pytest.mark.parametrize("family,v0,t_end,digest", [
        ("A.M46", (1.0, 1.0), 50.0,
         "387f69bbf9c1ce43f2fe979825f94621c8468a3b92d8ba7ce2359bd0905c7ad0"),
        ("A.M46", (1.0, 1.0), -50.0,
         "5cec0c2d2fa01cef54859ea6ff170f1c1c34f2dad1a847a87def825414f62523"),
        ("A.M16", (1.0, 0.0), -50.0,
         "72985cb991bdbdd18f51fc6eb368399eebeb18128cc3878bca671a22a53d90d9"),
    ])
    def test_geodesics(self, family, v0, t_end, digest):
        rec = catalog.instantiate(family)
        tr = geodesic.geodesic_integrate(rec.spec, rec.base_point, v0, t_end)
        assert trajectory_digest(tr, geodesic._make_rhs(rec.spec)) == digest

    @pytest.mark.parametrize("family,params,t_end,status,digest", [
        # inverse-x1: the field reads u, v1 and v2
        ("B.N43", {}, 50.0, LeftDomain(20.897489013360072),
         "b89a091e027531b289b539d0b78ac1509f20b0d6d9b7238179970bad16b8a3eb"),
        # linear-x1: the field reads u, v1 and v2, u only in one component
        ("A.M54t", {"c": 1.5}, -50.0, Blowup(-0.33353333332894736, -0.3331333333288459),
         "04ee299d1e64d0ae38affd887389debf56e6d866638707b8b5f71872334529ac"),
    ], ids=["inverse-x1", "linear-x1"])
    def test_geodesics_of_the_scaled_kinds(self, family, params, t_end, status, digest):
        rec = catalog.instantiate(family, **params)
        tr = geodesic.geodesic_integrate(rec.spec, rec.base_point, (1.0, 1.0), t_end)
        assert tr.status == status
        assert trajectory_digest(tr, geodesic._make_rhs(rec.spec)) == digest


def same_run(a, b, rhs) -> bool:
    """Equal statuses and, byte for byte, equal times, states and derivs
    (rhs's, see deriv)."""
    return a.status == b.status and trajectory_digest(a, rhs) == trajectory_digest(b, rhs)


def counting(rhs):
    """A plain callable that calls rhs, and its call counter."""
    calls = [0]

    def counted(y):
        calls[0] += 1
        return rhs(y)
    return counted, calls


def assert_extends(rhs, y0, T, factor, **opts):
    """The horizon-T run extended to factor*T equals a fresh run there;
    return the short run."""
    short = integrate(rhs, y0, T, **opts)
    longer = integrate(rhs, short, factor * T, **opts)
    assert same_run(longer, integrate(rhs, y0, factor * T, **opts), rhs)
    return short


class TestExtendedRun:
    """A shorter run extended to a longer horizon is the fresh run there,
    bit for bit."""

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_killing_basis_fields_of_every_record(self, sgn):
        for rec in catalog.all_records():
            edge = killing.flow_edge(rec)
            for X in rec.killing_basis:
                assert_extends(killing._field_rhs(X), killing.default_flow_inits(rec)[0],
                               sgn * 2.0, 3.0, edge=edge)

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_geodesics_of_every_plane_record(self, sgn):
        for rec in catalog.all_records():
            if rec.mtype != "A":
                continue
            rhs = geodesic._make_rhs(rec.spec)
            for k in range(4):
                v0 = (math.cos(math.pi * k / 4), math.sin(math.pi * k / 4))
                assert_extends(rhs, (*rec.base_point, *v0), sgn * 0.5, 4.0)

    @pytest.mark.parametrize("plain", [False, True], ids=["field", "callable"])
    def test_leaving_the_half_plane_after_the_horizon(self, plain):
        # B.N06's field d/dx1 reaches the edge x1 = 0 at t = -1 from x1 = 1
        field = killing._field_rhs(catalog.instantiate("B.N06").killing_basis[0])
        rhs = (lambda y: field(y)) if plain else field
        short = assert_extends(rhs, (1.0, 0.5), -0.5, 3.0, edge=0.0)
        assert isinstance(short.status, ReachedHorizon)
        longer = integrate(rhs, short, -1.5, edge=0.0)
        assert isinstance(longer.status, LeftDomain) and abs(longer.status.t + 1.0) < 1e-9

    def test_helper_runs_extend_with_the_edge_passed_again(self):
        """Runs of geodesic_integrate and flow_integrate extend with their
        edge given again as a value of its own: the edge is compared by
        value."""
        rec = catalog.instantiate("B.N43")
        rhs = geodesic._make_rhs(rec.spec)
        edge = 0.5e-12 * 2.0  # equal to B_DOMAIN_EDGE, another float object
        assert edge == geodesic.B_DOMAIN_EDGE
        for sgn in (1.0, -1.0):
            for k in range(4):
                v0 = (math.cos(math.pi * k / 4), math.sin(math.pi * k / 4))
                short = geodesic.geodesic_integrate(rec.spec, rec.base_point, v0, sgn * 0.5)
                assert isinstance(short.status, ReachedHorizon)
                longer = integrate(rhs, short, sgn * 2.0, edge=edge)
                fresh = geodesic.geodesic_integrate(rec.spec, rec.base_point, v0, sgn * 2.0)
                assert same_run(longer, fresh, rhs)
        # B.N06's field d/dx1 reaches the edge x1 = 0 at t = -1 from x1 = 1
        X = catalog.instantiate("B.N06").killing_basis[0]
        short = killing.flow_integrate(X, (1.0, 0.5), -0.5, edge=0.0)
        assert isinstance(short.status, ReachedHorizon)
        field = killing._field_rhs(X)
        longer = integrate(field, short, -1.5, edge=-0.0)
        assert same_run(longer, killing.flow_integrate(X, (1.0, 0.5), -1.5, edge=0.0), field)
        assert isinstance(longer.status, LeftDomain)

    def test_unbounded_before_the_horizon_stands(self):
        rhs = lambda y: (y[0],)  # noqa: E731
        short = assert_extends(rhs, (1.0,), 50.0, 3.0)
        assert isinstance(short.status, Unbounded) and short.status.t < 50.0
        again = integrate(rhs, short, 500.0)
        assert same_run(again, short, rhs)

    def test_settled_run_is_returned_as_it_is(self):
        # e^|t| runs past the state cap, and x1 = 1 - |t| reaches the edge,
        # before the horizon
        for T in (50.0, -50.0):
            for rhs, y0, edge in ((lambda y, s=T / 50.0: (s * y[0],), (1.0,), None),
                                  (lambda y, s=T / 50.0: (-s, y[0]), (1.0, 0.0), 0.0)):
                run = integrate(rhs, y0, T, edge=edge)
                assert run.loop is None and not isinstance(run.status, ReachedHorizon)
                assert integrate(rhs, run, 2 * T, edge=edge) is run

    def test_horizon_on_a_node_time(self):
        """Horizons at node times of a longer run: where the step lands on
        the horizon with no clamp, the cut is at the horizon itself."""
        rhs = lambda y: (y[1], -y[0])  # noqa: E731
        nodes = integrate(rhs, (1.0, 0.0), 10.0).times
        landed = 0
        for T in nodes[5:45]:
            short = assert_extends(rhs, (1.0, 0.0), float(T), 3.0)
            landed += short.loop[1] == T
        assert landed > 0

    @pytest.mark.parametrize("plain", [False, True], ids=["field", "callable"])
    def test_two_extensions_in_a_row(self, plain):
        field = killing._field_rhs(m46_benchmark_combination())
        rhs = (lambda y: field(y)) if plain else field
        first = integrate(rhs, (0.3, -0.7), -2.0)
        second = integrate(rhs, first, -4.0)
        third = integrate(rhs, second, -6.0)
        assert same_run(third, integrate(rhs, (0.3, -0.7), -6.0), rhs)
        assert same_run(integrate(rhs, first, -6.0), third, rhs)

    def test_step_limit_counts_from_zero(self, monkeypatch):
        """With MAX_STEPS set to the exact number of loop passes a fresh run
        needs, the fresh and the extended run both fail one pass short."""
        rhs = lambda y: (y[1], -y[0])  # noqa: E731
        short = integrate(rhs, (1.0, 0.0), 3.0)

        def fails(y0, limit):
            monkeypatch.setattr(integrate_module, "MAX_STEPS", limit)
            try:
                integrate(rhs, y0, 9.0)
            except RuntimeError:
                return True
            return False
        lo, hi = 1, 10_000  # fails(lo), not fails(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fails((1.0, 0.0), mid) else (lo, mid)
        assert short.loop[0] < lo
        assert fails(short, lo) and not fails(short, hi)

    def test_shorter_horizon_other_direction_or_domain_raises(self):
        rhs = lambda y: (y[1], -y[0])  # noqa: E731
        run = integrate(rhs, (1.0, 0.0), 3.0)
        for t_end, opts in ((2.0, {}), (-6.0, {}), (6.0, {"edge": 0.0}),
                            (float("nan"), {})):
            with pytest.raises(ValueError):
                integrate(rhs, run, t_end, **opts)
        assert same_run(integrate(rhs, run, 3.0), integrate(rhs, (1.0, 0.0), 3.0), rhs)
        edged = integrate(rhs, (1.0, 0.0), 3.0, edge=-2.0)
        for opts in ({"edge": -1.0}, {}):
            with pytest.raises(ValueError):
                integrate(rhs, edged, 6.0, **opts)

    def test_extension_skips_the_prefix(self):
        """Regression guard without timing: extending A.M46's benchmark
        combination from 20 to 60 saves the right-hand-side calls of every
        step before the cut (six per step)."""
        field = killing._field_rhs(m46_benchmark_combination())
        fresh_rhs, fresh_calls = counting(field)
        fresh = integrate(fresh_rhs, (0.3, -0.7), 60.0)
        short = integrate(field, (0.3, -0.7), 20.0)
        extended_rhs, extended_calls = counting(field)
        extended = integrate(extended_rhs, short, 60.0)
        assert same_run(extended, fresh, field)
        prefix_steps = short.n - 1
        assert prefix_steps > 0
        assert fresh_calls[0] - extended_calls[0] >= 6 * prefix_steps


def hexed_loop(loop):
    """A run's loop tuple with every float as float.hex."""
    if loop is None:
        return None
    used, t, y, f, h, ladder_times = loop
    return (used, t.hex(), [v.hex() for v in y], [v.hex() for v in f], h.hex(),
            [v.hex() for v in ladder_times])


def assert_same_run(got, want, rhs):
    """Bit for bit: times, states, derivs (rhs's), status, and the run's
    history length and loop tuple."""
    assert same_run(got, want, rhs)
    assert got.n == want.n
    assert hexed_loop(got.loop) == hexed_loop(want.loop)


def source_and_call_forms(field):
    return field, lambda y: field(y)


def assert_matches_reference(field, y0, t_end, edge=None):
    """integrate() on field and on a plain callable of it each give
    reference_integrate's run on field; return that run and the outcome of
    each of its passes."""
    passes = []
    want = reference_integrate(field, y0, t_end, edge=edge, passes=passes)
    for rhs in source_and_call_forms(field):
        assert_same_run(integrate(rhs, y0, t_end, edge=edge), want, field)
    return want, passes


def field_of(*comps, prelude=()):
    """A Field over x1, x2, ... with the given components."""
    return Field(tuple(f"x{c + 1}" for c in range(len(comps))), prelude, comps)


class TestStepLoop:
    """integrate()'s step loops against the Python loop over
    reference_step, bit for bit, on each way a run can go."""

    def test_horizon_cut_then_extension(self):
        field = field_of("x2", "-x1")
        short, passes = assert_matches_reference(field, (1.0, 0.0), 5.0)
        assert isinstance(short.status, ReachedHorizon) and "cut" in passes
        want = reference_integrate(field, short, 15.0)
        for rhs in source_and_call_forms(field):
            got = integrate(rhs, integrate(rhs, (1.0, 0.0), 5.0), 15.0)
            assert_same_run(got, want, field)

    def test_rejected_steps(self):
        # van der Pol at mu = 5
        tr, passes = assert_matches_reference(
            field_of("x2", "5.0 * (1.0 - x1 * x1) * x2 - x1"), (2.0, 0.0), 3.0)
        assert isinstance(tr.status, ReachedHorizon) and "rejected" in passes

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_half_plane_geodesics(self, sgn):
        # B.N14 (kappa = 2) on four-component states: each start blows up
        # one way and reaches the horizon the other
        rhs = geodesic._make_rhs(GEODESIC_SPECS[1])
        statuses = set()
        for y0 in ((1.0, 0.5, -1.0, 0.3), (0.5, 0.0, -0.3, 1.0)):
            tr, _ = assert_matches_reference(rhs, y0, sgn * 3.0, geodesic.B_DOMAIN_EDGE)
            statuses.add(type(tr.status))
        assert statuses == ({Blowup} if sgn > 0 else {ReachedHorizon})

    def test_nan_error_norm_rejects_the_step(self):
        # the 7th call is the first step's last stage: it alone returns NaN,
        # so y_new is finite and the error norm is NaN; the step is rejected
        # (h * 0.25) like an infinite norm, not committed with a NaN row
        def nan_on_7th_call():
            calls = itertools.count(1)
            return lambda y: (math.nan,) if next(calls) == 7 else (1.0,)
        passes = []
        want = reference_integrate(nan_on_7th_call(), (0.0,), 1.0, passes=passes)
        rhs = nan_on_7th_call()
        got = integrate(rhs, (0.0,), 1.0)
        assert_same_run(got, want, rhs)
        assert passes[0] == "rejected" and got.status == ReachedHorizon(1.0)
        assert not np.isnan(derivs(got, rhs)).any()

    def test_domain_error_at_a_stage(self):
        tr, passes = assert_matches_reference(field_of("-1.0", "_log(x1)"), (1.0, 0.0), 5.0, 0.0)
        assert isinstance(tr.status, LeftDomain) and "failed" in passes

    @pytest.mark.parametrize("field,grew", [
        (field_of("_exp(x1)"), True),
        (field_of("1.0", prelude=("if x1 > 1.0:", "    raise DomainError('x1 > 1')")), False),
    ], ids=["rhs-grew", "rhs-steady"])
    def test_step_collapse(self, field, grew):
        tr, _ = assert_matches_reference(field, (0.0,), 5.0)
        assert tr.status == StepCollapse(tr.status.t, grew) and abs(tr.status.t - 1.0) < 1e-9

    def test_left_domain_by_a_stall(self):
        # stage points under 1e-9 fail: the steps stall above the edge
        field = field_of("-1.0", prelude=("if x1 < 1e-9:", "    raise DomainError('x1 < 1e-9')"))
        tr, passes = assert_matches_reference(field, (1.0,), 5.0, 0.0)
        assert isinstance(tr.status, LeftDomain) and passes[-1] == "failed"

    def test_edge_crossing(self):
        tr, passes = assert_matches_reference(field_of("-1.0", "x1"), (1.0, 0.0), 5.0, 0.0)
        assert isinstance(tr.status, LeftDomain) and passes[-1] == "accepted"
        assert tr.times[-1] == tr.status.t and abs(tr.status.t - 1.0) < 1e-9

    def test_x1_underflow_is_unbounded(self):
        # x1 = 1e-284 - 1e-285 t stays under UNDERFLOW_X1 until it crosses 0
        tr, passes = assert_matches_reference(field_of("-1e-285", "x1"), (1e-284, 1.0), 60.0, 0.0)
        assert isinstance(tr.status, Unbounded) and passes[-1] == "accepted"

    def test_x1_underflow_on_the_first_backward_step(self):
        # the first step crosses the edge from x1 = 1e-292: the status time
        # is sgn * 0.0 = -0.0, though row 0 stores t = +0.0
        field = field_of("1e-285", "x1")
        want, passes = assert_matches_reference(field, (1e-292, 1.0), -60.0, 0.0)
        assert passes == ["accepted"] and len(want.times) == 1
        for rhs in source_and_call_forms(field):
            status = integrate(rhs, (1e-292, 1.0), -60.0, edge=0.0).status
            assert status == Unbounded(0.0) and math.copysign(1.0, status.t) < 0.0

    @pytest.mark.parametrize("t_end", [5.0, -5.0])
    def test_rows_keep_signed_zeros_and_subnormals(self, t_end):
        # f = (-0.0, 1e-310) on every row, and x2 is subnormal after t = 0
        field = field_of("-0.0", "x1 * 1e-310")
        want, _ = assert_matches_reference(field, (1.0, 0.0), t_end)
        hexes = [[v.hex() for v in a.ravel().tolist()]
                 for a in (want.times, want.states, derivs(want, field))]
        for rhs in source_and_call_forms(field):
            got = integrate(rhs, (1.0, 0.0), t_end)
            assert [[v.hex() for v in a.ravel().tolist()]
                    for a in (got.times, got.states, derivs(got, rhs))] == hexes
        assert all(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in derivs(want, field)[:, 0])
        assert all(0.0 < abs(v) < sys.float_info.min for v in want.states[1:, 1])

    @pytest.mark.parametrize("rung", range(len(integrate_module.LADDER)))
    def test_each_ladder_rung(self, rung):
        # e^t crosses rung k at log(LADDER[k]); the last rung is STATE_CAP
        t_end = math.log(integrate_module.LADDER[rung]) + 0.5
        tr, _ = assert_matches_reference(field_of("x1"), (1.0,), t_end)
        if rung < len(integrate_module.LADDER) - 1:
            assert isinstance(tr.status, ReachedHorizon) and len(tr.loop[5]) == rung + 1
        else:
            assert isinstance(tr.status, Unbounded)

    def test_starting_above_rungs(self):
        tr, _ = assert_matches_reference(field_of("x1"), (1e10,), 3.0)
        assert len(tr.loop[5]) == 3

    @pytest.mark.parametrize("comp,status", [("x1 * x1", Blowup), ("x1", Unbounded)])
    def test_state_cap(self, comp, status):
        tr, _ = assert_matches_reference(field_of(comp), (1.0,), 50.0)
        assert isinstance(tr.status, status)

    def test_monkeypatched_step_limit(self, monkeypatch):
        field = field_of("x2", "-x1")
        _, passes = assert_matches_reference(field, (1.0, 0.0), 5.0)
        needed = len(passes) - passes.count("cut") + 1  # the last pass reaches the horizon
        monkeypatch.setattr(integrate_module, "MAX_STEPS", needed)
        assert_matches_reference(field, (1.0, 0.0), 5.0)
        monkeypatch.setattr(integrate_module, "MAX_STEPS", needed - 1)
        runs = [lambda: reference_integrate(field, (1.0, 0.0), 5.0)]
        runs += [lambda rhs=rhs: integrate(rhs, (1.0, 0.0), 5.0) for rhs in source_and_call_forms(field)]
        for run in runs:
            with pytest.raises(RuntimeError, match=f"max_steps \\({needed - 1}\\)"):
                run()


def float_hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestHistoryRows:
    """A history row is (sgn t, y): a run's nodal derivatives are its
    right-hand side at the stored states, bit for bit the derivatives its
    steps computed, and a LeftDomain crossing makes no right-hand-side call
    at the crossing point."""

    def test_killing_flow_rows(self):
        X = m46_benchmark_combination()
        tr = killing.flow_integrate(X, (0.3, -0.7), 20.0)
        rhs = killing._field_rhs(X)
        assert tr.status == ReachedHorizon(20.0) and len(tr.times) > 100
        assert len(tr.rows) == (1 + 2) * len(tr.times)
        # the step's own derivative at the cut
        assert float_hexes(tr.loop[3]) == float_hexes(rhs(tuple(tr.states[tr.n - 1].tolist())))

    def test_geodesic_rows(self):
        rec = catalog.instantiate("B.N43")
        tr = geodesic.geodesic_integrate(rec.spec, rec.base_point, (1.0, 1.0), 50.0)
        assert isinstance(tr.status, LeftDomain) and len(tr.times) > 100
        assert len(tr.rows) == (1 + 4) * len(tr.times)
        # the right-hand side is defined at the crossing row, x1 just under the edge
        assert 0.0 < tr.states[-1][0] <= geodesic.B_DOMAIN_EDGE
        assert not np.isnan(derivs(tr, geodesic._make_rhs(rec.spec))).any()

    @pytest.mark.parametrize("form", ["field", "callable"])
    def test_no_call_at_the_crossing_point(self, form):
        # x1 = 1 - t crosses the edge 0 at t = 1; the crossing point is
        # interpolated, and no step reaches it
        points = []
        if form == "field":
            rhs = field_of("-1.0", "x1", prelude=("seen((x1, x2))",))
            rhs = Field(rhs.names, rhs.prelude, rhs.comps, (("seen", points.append),))
        else:
            def rhs(y):
                points.append(tuple(y))
                return (-1.0, y[0])
        tr = integrate(rhs, (1.0, 0.0), 5.0, edge=0.0)
        y_cross = tuple(tr.states[-1].tolist())
        assert isinstance(tr.status, LeftDomain) and tr.times[-1] == tr.status.t
        assert len(points) > 6 and y_cross not in points


def literal_field(X) -> Field:
    """X as a Field of its shared source with every constant a literal: the
    reference for killing._field_rhs, which names them."""
    return Field(("x1", "x2"), (), tuple(_emit_shared((X.c1, X.c2))))


def outcome_kind(field, p):
    """field(p) as float.hex of each value, or the type of the exception."""
    got = outcome(lambda *q: field(q), p)
    return got[0] if isinstance(got, tuple) else got


class TestKernelSharing:
    """killing._field_rhs writes a field's finite constants as names bound
    to the Field's constants, so parameter samples and combinations of one
    shape share one compiled step loop and run as the literal source does,
    bit for bit."""

    def test_named_constants_evaluate_as_literals(self):
        rng = np.random.default_rng(19)
        named_fields = 0
        for rec in catalog.all_records():
            basis = rec.killing_basis
            fields = list(basis) + [killing.combination(basis, rng.normal(size=len(basis)))
                                    for _ in range(3)]
            for X in fields:
                named, literal = killing._field_rhs(X), literal_field(X)
                named_fields += bool(named.consts)
                for p in catalog.sample_grid(rec) + OUTSIDE:
                    assert outcome_kind(named, p) == outcome_kind(literal, p), (rec.ref.label(), X, p)
        assert named_fields > 400

    @pytest.mark.parametrize("family", ["B.N14", "B.N26"])
    def test_probe_runs_equal_the_literal_source(self, family):
        for params in catalog.standard_samples(family):
            rec = catalog.instantiate(family, **params)
            for X in rec.killing_basis:
                for t_end in (killing.PROBE_HORIZON, -killing.PROBE_HORIZON):
                    p0 = killing.default_flow_inits(rec)[t_end > 0]
                    field = killing._field_rhs(X)
                    assert_same_arrays(integrate(field, p0, t_end, edge=0.0),
                                       integrate(literal_field(X), p0, t_end, edge=0.0), field)

    def test_m46_benchmark_run_equals_the_literal_source(self):
        # backward, the run crosses every ladder rung and grows unbounded
        X = m46_benchmark_combination()
        for t_end in (killing.PROBE_HORIZON, -killing.CONFIRM_FACTOR * killing.PROBE_HORIZON):
            field = killing._field_rhs(X)
            assert_same_arrays(integrate(field, (0.3, -0.7), t_end),
                               integrate(literal_field(X), (0.3, -0.7), t_end), field)

    def test_signed_zeros_get_two_names(self):
        consts = {}
        assert _emit_shared((Const(0.0), Const(-0.0), Const(0.0)), consts) == ["c0", "c1", "c0"]
        assert consts == {"0.0": "c0", "-0.0": "c1"}
        field = killing._field_rhs(VectorFieldExpr(Const(-0.0), Const(0.0)))
        assert [(n, v.hex()) for n, v in field.consts] == [("c0", "-0x0.0p+0"), ("c1", "0x0.0p+0")]

    def test_exponents_named_and_non_finite_constants_literal(self):
        consts = {}
        trees = (power(x1, Fraction(1, 2)), Const(math.inf), Const(-math.inf), Const(math.nan))
        assert _emit_shared(trees, consts) == ["_powf(x1, c0)", "inf", "-inf", "nan"]
        assert consts == {"0.5": "c0"}

    def test_parameter_samples_share_one_kernel_per_basis_index(self):
        integrate_module._field_code.cache_clear()
        codes = [[killing._field_rhs(X).kernel.__code__
                  for X in catalog.instantiate("B.N14", **params).killing_basis]
                 for params in catalog.standard_samples("B.N14")]
        assert len(codes) == 4 and all(row == codes[0] for row in codes)
        assert integrate_module._field_code.cache_info().misses == len(codes[0])

    def test_half_plane_bases_compile_few_kernels(self):
        integrate_module._field_code.cache_clear()
        fields = [X for rec in catalog.all_records("B") for X in rec.killing_basis]
        for X in fields:
            killing._field_rhs(X).kernel
        assert integrate_module._field_code.cache_info().misses <= 85 < len(fields)


def seeing_twin(field) -> Field:
    """field with a first prelude statement that reads every state name, so
    that its step loop binds every stage point."""
    seen = f"seen = ({', '.join(field.names)},)"
    return Field(field.names, (seen,) + field.prelude, field.comps, field.consts)


def stored_names(field) -> set:
    """The names that field's step loop assigns."""
    tree = ast.parse("\n".join(integrate_module._loop_lines(field.names, field.prelude,
                                                            field.comps)))
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


class TestReadNames:
    """A step loop binds a state name at a stage only where the field reads
    it, and runs as the loop that binds every stage point, bit for bit."""

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    @pytest.mark.parametrize("spec", GEODESIC_SPECS, ids=lambda spec: spec.kind)
    def test_geodesics_run_as_their_twin(self, spec, sgn):
        field, edge = geodesic._make_rhs(spec), geodesic._edge(spec)
        for y0 in ((1.0, 0.5, -1.0, 0.3), (0.5, 0.0, -0.3, 1.0), (0.8, -0.4, 0.7, 0.7)):
            assert same_run(integrate(field, y0, sgn * 5.0, edge=edge),
                            integrate(seeing_twin(field), y0, sgn * 5.0, edge=edge), field)

    @pytest.mark.parametrize("sgn", [1.0, -1.0])
    def test_killing_basis_fields_run_as_their_twin(self, sgn):
        partial = 0
        for rec in catalog.all_records():
            edge = killing.flow_edge(rec)
            p0 = killing.default_flow_inits(rec)[0]
            for X in rec.killing_basis:
                field = killing._field_rhs(X)
                partial += not {"x1", "x2"} <= stored_names(field)
                assert same_run(integrate(field, p0, sgn * 2.0, edge=edge),
                                integrate(seeing_twin(field), p0, sgn * 2.0, edge=edge),
                                field), \
                    (rec.ref.label(), X)
        assert partial > 0  # some basis fields read one coordinate or none

    def test_constant_geodesic_loop_binds_no_position(self):
        field = geodesic._make_rhs(GEODESIC_SPECS[0])
        assert field.prelude == geodesic._QUADRATIC  # so the field reads no position
        assert {"v1", "v2"} <= stored_names(field) and not {"u", "w"} & stored_names(field)
        assert {"u", "w"} <= stored_names(seeing_twin(field))

    def test_augmented_assignment_reads_its_target(self):
        # x2 is read only by `x2 += 1.0`; the loop must bind it first
        field = field_of("x1", "q", prelude=("q = 1.0", "x2 += q"))
        assert "x2" in integrate_module._read_names(field.prelude + field.comps)
        assert_matches_reference(field, (1.0, 0.0), 3.0)


def assert_same_arrays(a, b, rhs):
    """Equal statuses and equal bytes of times, states and derivs (rhs's)."""
    assert a.status == b.status
    for u, v in ((a.times, b.times), (a.states, b.states), (derivs(a, rhs), derivs(b, rhs))):
        assert u.tobytes() == v.tobytes()


def global_reads(code) -> set:
    """The names that code, and the code nested in it, read as globals."""
    names = {ins.argval for ins in dis.get_instructions(code)
             if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= global_reads(const)
    return names


class TestGeneratedCode:
    """Every global name a generated kernel reads is in its namespace, so
    no branch that runs only on a rare event fails with NameError."""

    def kernels(self):
        fields = [geodesic._make_rhs(spec) for spec in GEODESIC_SPECS]
        fields.append(killing._field_rhs(m46_benchmark_combination()))
        fields.append(killing._field_rhs(VectorFieldExpr(
            parse_expr("exp(x1) + log(x1) + sin(x2) + cos(x2) + arctan(x1) + x1^(1/2)"),
            parse_expr("c*c*x1 + x2", {"c": 1e200}) + const(math.nan))))
        fields += [integrate_module._calling_field(coupled_rhs, dim) for dim in (1, 2, 4)]
        return ([fn for field in fields for fn in field._code]
                + [killing._defect_kernel(), qe._residual_kernel()])

    def test_every_global_read_is_bound(self):
        for fn in self.kernels():
            missing = {name for name in global_reads(fn.__code__)
                       if name not in fn.__globals__ and name not in vars(builtins)}
            assert not missing, (fn.__name__, missing)

    def test_every_namespace_entry_is_read(self):
        read = set().union(*(global_reads(fn.__code__) for fn in self.kernels()))
        # the tests' own eval(..., ex._NAMESPACE) adds __builtins__ to it
        assert set(ex._NAMESPACE) - {"__builtins__"} <= read
        assert "_s0" in killing._field_rhs(m46_benchmark_combination()).comps[0]


class TestOneCommitPath:
    """The generated step loop is the only code that commits an accepted
    step, the one that reaches the edge too: integrate() deletes that
    step's row and writes the edge crossing's row in its place, the only
    row it writes, and never rescales h after a step."""

    def tree(self):
        return ast.parse(inspect.getsource(integrate_module.integrate))

    def test_history_appended_once(self):
        calls = [f"{node.func.value.id}.{node.func.attr}" for node in ast.walk(self.tree())
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name)]
        assert [name for name in calls if name.startswith("rows.")] == ["rows.extend"]

    def test_step_size_not_rescaled(self):
        def rescales_h(node):
            if isinstance(node, ast.AugAssign):
                return isinstance(node.target, ast.Name) and node.target.id == "h"
            return (isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Mult)
                    and any(isinstance(t, ast.Name) and t.id == "h" for t in node.targets))
        assert not [ast.unparse(node) for node in ast.walk(self.tree()) if rescales_h(node)]

    def test_every_loop_return_is_six_values(self):
        # (event, used, t, y, f, h), y and f each one tuple
        for field in (field_of("x2", "-x1"), geodesic._make_rhs(GEODESIC_SPECS[1]),
                      integrate_module._calling_field(coupled_rhs, 1)):
            tree = ast.parse("\n".join(integrate_module._loop_lines(
                field.names, field.prelude, field.comps)))
            returns = [node for node in ast.walk(tree) if isinstance(node, ast.Return)]
            assert len(returns) == 6  # horizon, two stalls, edge, rung, limit
            for node in returns:
                assert isinstance(node.value, ast.Tuple) and len(node.value.elts) == 6, \
                    ast.unparse(node)
