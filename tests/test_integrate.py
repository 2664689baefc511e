"""Stepper calibration: accuracy, dense output, escape classification.

The escape detectors are calibrated on textbook ODEs with known behavior
before any geometry touches them.
"""

import math

import numpy as np
import pytest

from affsurf import catalog, killing
from affsurf.expr import DomainError
from affsurf.integrate import (_A, _B, _E, _RHS_ERRORS, ATOL, RTOL, Blowup,
                               LeftDomain, ReachedHorizon, StepCollapse,
                               Unbounded, _step_kernel, integrate)


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


def traced_step(stepper, rhs, sgn, y, f, h):
    """stepper's result and every stage point it called rhs at, each float
    as float.hex, for exact comparison."""
    points = []

    def logged(v):
        points.append([c.hex() for c in v])
        return rhs(v)
    step = stepper(logged, sgn, y, f, h)
    if step is not None:
        y_new, f_new, enorm = step
        step = [v.hex() for v in y_new], [v.hex() for v in f_new], enorm.hex()
    return step, points


def same_step(make_rhs, sgn, y, f, h):
    """Assert that the generated kernel and reference_step agree bit for bit
    on the step and on every stage point, each stepping with a fresh
    make_rhs(); return the kernel's traced step."""
    got = traced_step(_step_kernel(len(y)), make_rhs(), sgn, y, f, h)
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


class TestAccuracy:
    def test_harmonic_oscillator(self):
        tr = integrate(lambda y: (y[1], -y[0]), (1.0, 0.0), 20.0)
        assert isinstance(tr.status, ReachedHorizon)
        assert abs(tr.states[-1][0] - math.cos(20.0)) < 1e-8
        assert abs(tr.states[-1][1] + math.sin(20.0)) < 1e-8

    def test_dense_output(self):
        tr = integrate(lambda y: (y[1], -y[0]), (1.0, 0.0), 10.0)
        for t in (0.123, 1.5, 7.77):
            assert abs(tr.eval(t)[0] - math.cos(t)) < 1e-8

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
        assert st.width <= 1e-3

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


class TestDomainMonitor:
    def test_transversal_crossing(self):
        tr = integrate(lambda y: (-1.0,), (1.0,), 10.0, domain_fn=lambda y: y[0])
        assert isinstance(tr.status, LeftDomain)
        assert abs(tr.status.t - 1.0) < 1e-9

    def test_asymptotic_decay_not_an_exit(self):
        tr = integrate(lambda y: (-y[0],), (1.0,), 60.0, domain_fn=lambda y: y[0])
        assert isinstance(tr.status, ReachedHorizon)

    def test_underflow_is_not_an_exit(self):
        # doubly exponential decay underflows doubles in finite time
        def rhs(y):
            u = y[0]
            if u <= 0:
                raise ZeroDivisionError
            return (-u * (1.0 - math.log(u)),)
        tr = integrate(rhs, (0.5,), 60.0, domain_fn=lambda y: y[0])
        assert isinstance(tr.status, (ReachedHorizon, Unbounded))

    def test_singular_rhs_near_edge(self):
        def rhs(y):
            if y[0] <= 0:
                raise ZeroDivisionError
            return (-1.0 / y[0],)
        tr = integrate(rhs, (1.0,), 10.0, domain_fn=lambda y: y[0])
        assert isinstance(tr.status, (LeftDomain, StepCollapse))
        t_star = tr.status.t
        assert abs(t_star - 0.5) < 1e-3

    def test_initial_point_outside(self):
        with pytest.raises(DomainError):
            integrate(lambda y: (1.0,), (-1.0,), 1.0, domain_fn=lambda y: y[0])


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
    """The generated kernel against the generic tableau loop, bit for bit."""

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
        y_new, f_new, _ = _step_kernel(dim)(rhs, 1.0, y, f, 0.01)
        assert all(type(v) is float for v in y_new + f_new)


class TestRhsShape:
    @pytest.mark.parametrize("rhs", [lambda y: (y[1],), lambda y: (y[1], -y[0], 0.0)],
                             ids=["too-short", "too-long"])
    def test_wrong_length_is_a_type_error(self, rhs):
        with pytest.raises(TypeError):
            integrate(rhs, (1.0, 0.0), 1.0)


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
