"""Geodesics: right-hand side, closed forms, escape times, probes."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from affsurf import catalog as C
from affsurf import expr as ex
from affsurf import geodesic as G
from affsurf.catalog import ModelRecord
from affsurf.connection import KINDS, ChristoffelSpec
from affsurf.expr import ScalarExpr, compile_scalar, const, exp, log, power, sin, x1
from affsurf.geodesic import HORIZON, geodesic_integrate
from affsurf.integrate import Blowup, LeftDomain, ReachedHorizon, StepCollapse, Status
from test_connection import christoffel_at, ricci_at
from test_expr import arctan
from test_integrate import dense_eval

AB_SAMPLES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)]

CLOSED_FORM_RECORDS = [
    ("A.M06", {}), ("A.M16", {}), ("A.M26", {}), ("A.M36", {}), ("A.M46", {}), ("A.M56", {}),
    ("A.M14", {}),
    ("A.M24", {"c": -2.0}), ("A.M24", {"c": -0.5}), ("A.M24", {"c": 1 / 3}), ("A.M24", {"c": 2.0}),
    ("A.M34", {"c": -2.0}), ("A.M34", {"c": -0.5}), ("A.M34", {"c": 1 / 3}), ("A.M34", {"c": 2.0}),
    ("A.M44", {"c": -2.0}), ("A.M44", {"c": -0.5}), ("A.M44", {"c": 1 / 3}), ("A.M44", {"c": 2.0}),
    ("A.M54t", {"c": 0.0}), ("A.M54t", {"c": -0.5}), ("A.M54t", {"c": 1 / 3}), ("A.M54t", {"c": 2.0}),
]


# ---------------------------------------------------------------------------
# closed forms: the oracles for the integrator and for blowup times

#: time variable of closed-form curves (expression trees in one variable)
t_var = x1


class UnsupportedFamily(ValueError):
    """No closed-form geodesic is available for this family or initial
    velocity (the rank-2 families reduce to an equation without an
    elementary solution except for special rays)."""


@dataclass(frozen=True)
class ClosedFormGeodesic:
    family: str
    a: float
    b: float
    curve: tuple[ScalarExpr, ScalarExpr]  # components as expressions in t
    validity: tuple[float, float]  # open interval containing 0
    notes: str = ""

    def at(self, t: float) -> tuple[float, float]:
        return (ex.evaluate(self.curve[0], (t, 0.0)),
                ex.evaluate(self.curve[1], (t, 0.0)))

    def compiled(self):
        f1, f2 = compile_scalar(self.curve[0]), compile_scalar(self.curve[1])
        return lambda t: (f1(t, 0.0), f2(t, 0.0))

    def inner_window(self, frac: float = 0.8, clamp: float = 3.0) -> tuple[float, float]:
        """Central part of the validity window.  Infinite ends are clamped:
        exponentially growing coordinates push the absolute comparison
        tolerance out of reach of dense-output interpolation much past
        t of a few."""
        lo = max(self.validity[0], -clamp)
        hi = min(self.validity[1], clamp)
        margin = 0.5 * (1.0 - frac) * (hi - lo)
        return lo + margin, hi - margin


def _interval(crossings) -> tuple[float, float]:
    """Open validity interval around 0 given the finite parameter values
    where some positivity constraint vanishes."""
    lo, hi = -math.inf, math.inf
    for c in crossings:
        if c is None or not math.isfinite(c):
            continue
        if c < 0:
            lo = max(lo, c)
        elif c > 0:
            hi = min(hi, c)
    return lo, hi


def _lin_root(alpha: float):
    """Root of 1 + alpha*t."""
    return None if alpha == 0.0 else -1.0 / alpha


def closed_form_geodesic(model, a: float, b: float) -> ClosedFormGeodesic:
    """The curve through the base point with initial velocity (a, b), as an
    exact expression pair in t, with its maximal parameter window.

    Supported: every flat plane family, A.M14, A.M24(c), A.M34(c),
    A.M44(c), the auxiliary A.M54t(c), the b = 0 rays of A.M32/A.M42, and
    the logarithmic rays of A.M12.  Everything else raises
    UnsupportedFamily."""
    mref = model.ref if isinstance(model, ModelRecord) else model
    fam = mref.family
    p = mref.p
    a = float(a)
    b = float(b)
    t = t_var
    ca, cb = const(a), const(b)

    if fam == "A.M06":
        return ClosedFormGeodesic(fam, a, b, (ca * t, cb * t), (-math.inf, math.inf))

    if fam == "A.M16":
        # (log(1+at), bt/(1+at))
        curve = (log(1 + ca * t), cb * t * power(1 + ca * t, -1))
        return ClosedFormGeodesic(fam, a, b, curve, _interval([_lin_root(a)]))

    if fam == "A.M26":
        curve = (-log(1 - ca * t), log(1 + cb * t))
        return ClosedFormGeodesic(fam, a, b, curve, _interval([_lin_root(-a), _lin_root(b)]))

    if fam == "A.M36":
        curve = (ca * t, log(1 + cb * t))
        return ClosedFormGeodesic(fam, a, b, curve, _interval([_lin_root(b)]))

    if fam == "A.M46":
        curve = (ca * t - const(Fraction(1, 2)) * cb * cb * t * t, cb * t)
        return ClosedFormGeodesic(fam, a, b, curve, (-math.inf, math.inf))

    if fam == "A.M56":
        # (log((1+at)^2 + b^2 t^2)/2, arctan(bt/(1+at))); the arctan branch
        # is chart-level: for b != 0 the true geodesic continues past
        # 1 + at = 0 but this formula does not.
        base = power(1 + ca * t, 2) + cb * cb * t * t
        curve = (const(Fraction(1, 2)) * log(base), arctan(cb * t * power(1 + ca * t, -1)))
        notes = "" if b == 0.0 else "branch window of the arctan chart formula"
        return ClosedFormGeodesic(fam, a, b, curve, _interval([_lin_root(a)]), notes)

    if fam == "A.M14":
        if b == 0.0:
            curve = (-log(1 - ca * t), const(0))
            return ClosedFormGeodesic(fam, a, b, curve, _interval([_lin_root(-a)]))
        inner = log(1 + 2 * cb * t)
        curve = (-log(1 - ca * inner * power(2 * cb, -1)), const(Fraction(1, 2)) * inner)
        crossings = [_lin_root(2 * b)]
        if a != 0.0:
            # 1 - (a/2b) log(1+2bt) = 0  =>  t = (e^{2b/a} - 1)/(2b)
            crossings.append((math.exp(2 * b / a) - 1.0) / (2 * b))
        return ClosedFormGeodesic(fam, a, b, curve, _interval(crossings))

    if fam == "A.M24":
        return _m24_closed_form(p["c"], a, b)

    if fam == "A.M34":
        return _m34_closed_form(p["c"], a, b)

    if fam == "A.M44":
        c = p["c"]
        if b == 0.0:
            return ClosedFormGeodesic(fam, a, b, (ca * t, const(0)), (-math.inf, math.inf))
        inner = log(1 + 2 * cb * t)
        curve = (const(-1) * power(8 * cb, -1) * inner * (const(-4 * a) + cb * const(c) * inner),
                 const(Fraction(1, 2)) * inner)
        return ClosedFormGeodesic(fam, a, b, curve, _interval([_lin_root(2 * b)]))

    if fam == "A.M54t":
        c = p["c"]
        if b == 0.0:
            return ClosedFormGeodesic(fam, a, b, (ca * t, const(0)), (-math.inf, math.inf))
        if c == 0.0:
            curve = (ca * power(cb, -1) * sin(cb * t), cb * t)
            return ClosedFormGeodesic(fam, a, b, curve, (-math.inf, math.inf))
        inner = 1 + 2 * cb * const(c) * t
        phase = log(inner) * power(2 * const(c), -1)
        curve = (ca * power(cb, -1) * power(inner, Fraction(1, 2)) * sin(phase), phase)
        return ClosedFormGeodesic(fam, a, b, curve, _interval([_lin_root(2 * b * c)]))

    if fam in ("A.M32", "A.M42"):
        if b == 0.0:
            curve = (const(Fraction(1, 2)) * log(1 + 2 * ca * t), const(0))
            return ClosedFormGeodesic(fam, a, b, curve, _interval([_lin_root(2 * a)]))
        raise UnsupportedFamily(f"{fam}: closed form known only for the b = 0 ray")

    if fam == "A.M12":
        return _m12_ray(p["a1"], p["a2"], a, b)

    raise UnsupportedFamily(f"no closed-form geodesics for {fam}")


def _m34_closed_form(c: float, a: float, b: float) -> ClosedFormGeodesic:
    t = t_var
    ca, cb = const(a), const(b)
    if b == 0.0:
        return ClosedFormGeodesic("A.M34", a, b, (ca * t, const(0)), (-math.inf, math.inf))
    if c == -0.5:
        curve = (ca * power(cb, -1) * (exp(cb * t) - 1), cb * t)
        return ClosedFormGeodesic("A.M34", a, b, curve, (-math.inf, math.inf))
    kappa = 1 + 2 * c
    inner = 1 + cb * const(kappa) * t
    curve = (ca * power(cb, -1) * (power(inner, 1.0 / kappa) - 1),
             log(inner) * power(const(kappa), -1))
    return ClosedFormGeodesic("A.M34", a, b, curve, _interval([_lin_root(b * kappa)]))


def _m24_closed_form(c: float, a: float, b: float) -> ClosedFormGeodesic:
    t = t_var
    ca, cb = const(a), const(b)
    if b == 0.0:
        return ClosedFormGeodesic("A.M24", a, b, (-log(1 - ca * t), const(0)),
                                  _interval([_lin_root(-a)]))
    if c == -0.5:
        if b < 0:
            arg = ca * (exp(cb * t) - 1) - cb
            shift = math.log(-b)
        else:
            arg = const(-1) * ca * (exp(cb * t) - 1) + cb
            shift = math.log(b)
        curve = (const(-1) * log(arg) + const(shift), cb * t)
        # crossing of arg = 0: a(e^{bt}-1) = b resp. -a(e^{bt}-1) = -b
        crossings = []
        ratio = 1.0 + b / a if a != 0.0 else None
        if ratio is not None and ratio > 0:
            crossings.append(math.log(ratio) / b)
        return ClosedFormGeodesic("A.M24", a, b, curve, _interval(crossings))
    kappa = 1 + 2 * c
    if b == -a:
        inner = 1 + cb * const(kappa) * t
        curve = (const(-1) * log(inner) * power(const(kappa), -1),
                 log(inner) * power(const(kappa), -1))
        return ClosedFormGeodesic("A.M24", a, b, curve, _interval([_lin_root(b * kappa)]))
    ratio = b / (a + b)
    if ratio <= 0:
        raise UnsupportedFamily("A.M24: branch formula needs b/(a+b) > 0")
    inner = 1 + cb * const(kappa) * t
    curve = (const(math.log(ratio)) - log(1 - ca * power(inner, 1.0 / kappa) * power(const(a + b), -1)),
             log(inner) * power(const(kappa), -1))
    crossings = [_lin_root(b * kappa)]
    if a != 0.0:
        base = (a + b) / a
        if base > 0:
            crossings.append((base ** kappa - 1.0) / (b * kappa))
    return ClosedFormGeodesic("A.M24", a, b, curve, _interval(crossings))


def _m12_ray(a1: float, a2: float, a: float, b: float) -> ClosedFormGeodesic:
    """Logarithmic ray geodesics log(1 + lambda*t) * alpha for the three
    distinguished directions alpha of the rank-2 family."""
    rays = []
    if 1 + a1 + a2 != 0:
        rays.append((1.0 / (1 + a1 + a2), 1.0 / (1 + a1 + a2)))
    if 1 + a1 - a2 != 0:
        rays.append(((1 - a2) / (1 + a1 - a2), a1 / (1 + a1 - a2)))
    if 1 - a1 + a2 != 0:
        rays.append((a2 / (1 - a1 + a2), (1 - a1) / (1 - a1 + a2)))
    for alpha in rays:
        cross = a * alpha[1] - b * alpha[0]
        norm = math.hypot(*alpha)
        if abs(cross) <= 1e-12 * max(1.0, math.hypot(a, b)) * max(1.0, norm):
            lam = (a / alpha[0]) if alpha[0] != 0 else (b / alpha[1])
            t = t_var
            curve = (const(alpha[0]) * log(1 + const(lam) * t),
                     const(alpha[1]) * log(1 + const(lam) * t))
            return ClosedFormGeodesic("A.M12", a, b, curve, _interval([_lin_root(lam)]))
    raise UnsupportedFamily("A.M12: closed form known only along the three log rays")


# ---------------------------------------------------------------------------
# escape times


def _finite_endpoint(status: Status):
    """Bracket of a finite escape time from a termination status, or None
    when the run gives no finite endpoint (horizon reached or growth
    without a finite-time signature)."""
    if isinstance(status, Blowup):
        return (status.t_lo, status.t_hi)
    if isinstance(status, LeftDomain):
        pad = 1e-6 * (1.0 + abs(status.t))
        return (status.t - pad, status.t + pad)
    if isinstance(status, StepCollapse):
        pad = 1e-4 * (1.0 + abs(status.t))
        return (status.t - 1e-6, status.t + pad)
    return None


def escape_time(spec: ChristoffelSpec, x0, v0, T: float = HORIZON):
    """Bracket the maximal existence interval (t_minus, t_plus) around 0.
    Infinite endpoints are reported as None brackets with the reached
    horizon; finite endpoints carry brackets no wider than 1e-3."""
    out = {}
    for key, t_end in (("backward", -T), ("forward", T)):
        tr = geodesic_integrate(spec, x0, v0, t_end)
        bracket = _finite_endpoint(tr.status)
        out[key] = {
            "bracket": bracket,
            "status": tr.status.to_json(),
        }
    return out



def geodesic_rhs(spec, state):
    """(x, v) -> (v, -G(x)(v, v)) from the spec's symbol values, with the
    quadratic form written out: the oracle for the geodesic Fields."""
    u, w, v1, v2 = (float(s) for s in state)
    a, b, c, d, e, f = christoffel_at(spec, (u, w))
    return (v1, v2,
            -(a * v1 * v1 + 2 * c * v1 * v2 + e * v2 * v2),
            -(b * v1 * v1 + 2 * d * v1 * v2 + f * v2 * v2))


def ricci_velocity_scalar(spec, traj):
    """rho(sigma-dot, sigma-dot) along a geodesic; for the rank-1 plane
    families this equals a constant times (v2)^2 and grows without bound
    along escaping directions."""
    vals = []
    for state in traj.states:
        x = (float(state[0]), float(state[1]))
        v = np.array([state[2], state[3]])
        rho = ricci_at(spec, x)
        vals.append(float(v @ rho @ v))
    return np.array(vals)


def closed_form_residual(spec, cf, nt=25):
    """Plug the closed form into the geodesic equation using exact
    t-derivatives; independent of the integrator."""
    lo, hi = cf.inner_window()
    c1, c2 = cf.curve
    d1, d2 = ex.diff(c1, 1), ex.diff(c2, 1)
    dd1, dd2 = ex.diff(d1, 1), ex.diff(d2, 1)
    worst = 0.0
    for t in np.linspace(lo, hi, nt):
        p = (float(t), 0.0)
        x = (ex.evaluate(c1, p), ex.evaluate(c2, p))
        v = (ex.evaluate(d1, p), ex.evaluate(d2, p))
        acc = (ex.evaluate(dd1, p), ex.evaluate(dd2, p))
        a, b, c, d, e, f = christoffel_at(spec, x)
        r1 = acc[0] + a * v[0] * v[0] + 2 * c * v[0] * v[1] + e * v[1] * v[1]
        r2 = acc[1] + b * v[0] * v[0] + 2 * d * v[0] * v[1] + f * v[1] * v[1]
        worst = max(worst, abs(r1), abs(r2))
    return worst


class TestRhs:
    def test_flat(self):
        rec = C.instantiate("A.M06")
        assert geodesic_rhs(rec.spec, (5.0, -3.0, 2.0, 7.0)) == (2.0, 7.0, 0.0, 0.0)

    def test_parabolic_chart(self):
        rec = C.instantiate("A.M46")
        assert geodesic_rhs(rec.spec, (0.0, 0.0, 0.0, 1.0))[2:] == (-1.0, 0.0)

    def test_hyperbolic(self):
        rec = C.instantiate("B.N43")
        assert geodesic_rhs(rec.spec, (1.0, 0.0, 1.0, 0.0))[2:] == (1.0, 0.0)

    def test_rhs_matches_compiled_path(self):
        """Every record's geodesic Field against the oracle; together they
        cover the three Field templates, one per symbol kind."""
        rng = np.random.default_rng(5)
        records = [C.instantiate("A.M12", a1=2.0, a2=3.0), C.instantiate("B.N14", kappa=2.0),
                   C.instantiate("A.M54t", c=1.5)] + list(C.all_records())
        assert {rec.spec.kind for rec in records} == set(KINDS)
        for rec in records:
            rhs = G._make_rhs(rec.spec)
            for _ in range(10):
                s = (rng.uniform(0.5, 2), rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-2, 2))
                value = rhs(s)
                assert all(type(v) is float for v in value)
                assert np.allclose(value, geodesic_rhs(rec.spec, s), atol=1e-14)

    def test_half_plane_field_raises_outside(self):
        rhs = G._make_rhs(C.instantiate("B.N14", kappa=2.0).spec)
        for u in (0.0, -1.0):
            with pytest.raises(ex.DomainError):
                rhs((u, 0.0, 1.0, 1.0))


class TestClosedForms:
    def test_flat_plane_lines(self):
        cf = closed_form_geodesic(C.instantiate("A.M06"), 2.0, 3.0)
        assert cf.at(1.5) == (3.0, 4.5)
        assert cf.validity == (-math.inf, math.inf)

    def test_exponential_chart_formula(self):
        cf = closed_form_geodesic(C.instantiate("A.M16"), 1.0, 1.0)
        t = 0.8
        assert abs(cf.at(t)[0] - math.log(1 + t)) < 1e-14
        assert abs(cf.at(t)[1] - t / (1 + t)) < 1e-14
        assert cf.validity == (-1.0, math.inf)

    def test_all_forms_satisfy_geodesic_equation(self):
        for fam, kw in CLOSED_FORM_RECORDS:
            rec = C.instantiate(fam, **kw)
            for a, b in AB_SAMPLES:
                try:
                    cf = closed_form_geodesic(rec, a, b)
                except UnsupportedFamily:
                    pytest.fail(f"{fam} ({a},{b}) should have a closed form")
                assert closed_form_residual(rec.spec, cf) <= 1e-9, (fam, kw, a, b)

    def test_initial_conditions(self):
        for fam, kw in CLOSED_FORM_RECORDS:
            rec = C.instantiate(fam, **kw)
            for a, b in AB_SAMPLES:
                cf = closed_form_geodesic(rec, a, b)
                x0 = cf.at(0.0)
                v0 = (ex.evaluate(ex.diff(cf.curve[0], 1), (0.0, 0.0)),
                      ex.evaluate(ex.diff(cf.curve[1], 1), (0.0, 0.0)))
                assert abs(x0[0]) + abs(x0[1]) < 1e-12
                assert abs(v0[0] - a) + abs(v0[1] - b) < 1e-12

    def test_m24_branch_cases(self):
        # b = -a branch and the b < 0 exponential branch are not hit by the
        # standard velocity samples
        rec = C.instantiate("A.M24", c=1 / 3)
        cf = closed_form_geodesic(rec, 1.0, -1.0)
        assert closed_form_residual(rec.spec, cf) <= 1e-9
        rec = C.instantiate("A.M24", c=-0.5)
        for ab in [(1.0, -2.0), (1.0, -1.0), (-1.0, 2.0)]:
            cf = closed_form_geodesic(rec, *ab)
            assert closed_form_residual(rec.spec, cf) <= 1e-9, ab

    def test_rank_two_rays(self):
        m32 = C.instantiate("A.M32", c=2.0)
        cf = closed_form_geodesic(m32, 1.0, 0.0)
        assert closed_form_residual(m32.spec, cf) <= 1e-12
        with pytest.raises(UnsupportedFamily):
            closed_form_geodesic(m32, 1.0, 1.0)
        m12 = C.instantiate("A.M12", a1=2.0, a2=3.0)
        with pytest.raises(UnsupportedFamily):
            closed_form_geodesic(m12, 1.0, 0.5)
        alpha = (1.0 / 6.0, 1.0 / 6.0)
        cf = closed_form_geodesic(m12, *alpha)
        assert closed_form_residual(m12.spec, cf) <= 1e-12


class TestOracleAgreement:
    def test_log_chart_example_window(self):
        # matches (log(1+t), t/(1+t)) on [0, 5] and blows up at t = -1
        rec = C.instantiate("A.M16")
        cf = closed_form_geodesic(rec, 1.0, 1.0)
        fwd = G.geodesic_integrate(rec.spec, (0.0, 0.0), (1.0, 1.0), 5.0)
        assert isinstance(fwd.status, ReachedHorizon)
        f = cf.compiled()
        rhs = G._make_rhs(rec.spec)
        gap = max(max(abs(a - b) for a, b in zip(dense_eval(fwd, rhs, float(t))[:2], f(float(t))))
                  for t in np.linspace(0.0, 5.0, 80)[1:])
        assert gap <= 1e-6
        back = G.geodesic_integrate(rec.spec, (0.0, 0.0), (1.0, 1.0), -5.0)
        assert isinstance(back.status, Blowup)
        assert back.status.t_lo <= -1.0 <= back.status.t_hi

    def test_sup_error_over_inner_windows(self):
        worst = 0.0
        for fam, kw in CLOSED_FORM_RECORDS[:8]:
            rec = C.instantiate(fam, **kw)
            rhs = G._make_rhs(rec.spec)
            for a, b in AB_SAMPLES:
                cf = closed_form_geodesic(rec, a, b)
                lo, hi = cf.inner_window()
                f = cf.compiled()
                for t_end in (hi, lo):
                    if abs(t_end) < 1e-9:
                        continue
                    tr = G.geodesic_integrate(rec.spec, rec.base_point, (a, b), t_end)
                    assert isinstance(tr.status, ReachedHorizon), (fam, a, b, tr.status)
                    for t in np.linspace(0.0, t_end, 40)[1:]:
                        xy = dense_eval(tr, rhs, float(t))[:2]
                        want = f(float(t))
                        worst = max(worst, abs(xy[0] - want[0]), abs(xy[1] - want[1]))
        assert worst <= 1e-6


class TestAffineReparametrization:
    """Integrating from (x0, lam*v0) equals t -> sigma(lam*t)."""

    @pytest.mark.parametrize("lam", [2.0, -1.0])
    def test_velocity_scaling(self, lam):
        rec = C.instantiate("A.M34", c=1 / 3)
        v0 = (0.4, 0.3)
        ts = np.linspace(0.1, 0.9, 7)
        rhs = G._make_rhs(rec.spec)
        base = G.geodesic_integrate(rec.spec, (0.0, 0.0), v0, float(np.sign(lam)) * 2.0)
        scaled = G.geodesic_integrate(rec.spec, (0.0, 0.0),
                                      (v0[0] * lam, v0[1] * lam), 1.0)
        for t in ts:
            want = dense_eval(base, rhs, float(lam * t))[:2]
            got = dense_eval(scaled, rhs, float(t))[:2]
            assert np.allclose(got, want, atol=1e-8)


class TestEscapeTime:
    def test_quadrant_chart_brackets(self):
        rec = C.instantiate("A.M26")
        et = escape_time(rec.spec, (0.0, 0.0), (1.0, 1.0))
        fwd, back = et["forward"]["bracket"], et["backward"]["bracket"]
        assert fwd is not None and fwd[0] <= 1.0 <= fwd[1] and 0.999 <= fwd[0] and fwd[1] <= 1.001
        assert back is not None and back[0] <= -1.0 <= back[1] and back[0] >= -1.001

    def test_flat_plane_unbounded(self):
        rec = C.instantiate("A.M06")
        et = escape_time(rec.spec, (0.0, 0.0), (3.0, -2.0))
        assert et["forward"]["bracket"] is None
        assert et["backward"]["bracket"] is None

    def test_vertical_ray_of_log_chart_is_complete(self):
        rec = C.instantiate("A.M16")
        et = escape_time(rec.spec, (0.0, 0.0), (0.0, 1.0))
        assert et["forward"]["bracket"] is None and et["backward"]["bracket"] is None


class TestRicciVelocitySignal:
    """Along escaping rank-1 geodesics with b != 0 the scalar
    rho(sigma-dot, sigma-dot) grows without bound before the blowup."""

    # witnesses chosen so the second-velocity blowup is not preempted by an
    # escape of the first coordinate (a = 0 rays where needed)
    @pytest.mark.parametrize("fam,kw,ab", [
        ("A.M14", {}, (0.0, -0.5)),
        ("A.M24", {"c": 1 / 3}, (0.0, -0.5)),
        ("A.M34", {"c": 1 / 3}, (1.0, -0.5)),
        ("A.M44", {"c": 2.0}, (1.0, -0.5)),
    ])
    def test_unbounded_signal(self, fam, kw, ab):
        rec = C.instantiate(fam, **kw)
        runs = [G.geodesic_integrate(rec.spec, (0.0, 0.0), ab, t_end)
                for t_end in (50.0, -50.0)]
        escaped = [tr for tr in runs if tr.escaped]
        assert escaped, [tr.status for tr in runs]
        sig = ricci_velocity_scalar(rec.spec, escaped[0])
        assert np.max(np.abs(sig)) > 1e6


class TestProbe:
    def test_parabolic_chart_complete(self):
        rep = G.geodesic_completeness_probe(C.instantiate("A.M46"))
        assert rep.complete and rep.verdict == "matches-theorem"

    def test_oscillatory_rank_two_complete(self):
        rep = G.geodesic_completeness_probe(C.instantiate("A.M22", b1=-1.0, b2=2.0))
        assert rep.complete and rep.verdict == "matches-theorem"

    def test_rank_two_incomplete_with_horizontal_witness(self):
        rep = G.geodesic_completeness_probe(C.instantiate("A.M32", c=1.0))
        assert not rep.complete and rep.verdict == "matches-theorem"
        assert any(w.coeffs[1] == 0.0 for w in rep.witnesses)

    def test_special_value_split(self):
        assert G.geodesic_completeness_probe(C.instantiate("A.M34", c=-0.5)).complete
        assert not G.geodesic_completeness_probe(C.instantiate("A.M34", c=1 / 3)).complete

    def test_unbounded_run_counts_as_complete(self):
        rec = C.instantiate("A.M34", c=-0.5)
        _, vels = G.default_geodesic_inits(rec)
        rep = G.geodesic_completeness_probe(rec, init_set=[(rec.base_point, v) for v in vels[:2]])
        assert rep.complete and rep.horizon == 200.0
        assert rep.unbounded_runs == 1 and not rep.witnesses

    def test_default_directions_are_distinct(self):
        # a repeated direction would integrate the same runs twice
        for rec in (C.instantiate("A.M46"), C.instantiate("B.N56")):
            bases, vels = G.default_geodesic_inits(rec)
            assert bases == [rec.base_point] and len(vels) == 11
            assert len(set(vels)) == len(vels)

    def test_half_plane_probe_not_classified(self):
        rep = G.geodesic_completeness_probe(C.instantiate("B.N56"), T=10.0)
        assert rep.expected is None and rep.verdict == "not-classified"
