"""Geodesics: right-hand side, closed forms, escape times, probes."""

import math

import numpy as np
import pytest

from affsurf import catalog as C
from affsurf import expr as ex
from affsurf import geodesic as G
from affsurf.connection import KINDS
from affsurf.integrate import Blowup, ReachedHorizon
from test_connection import ricci_at

AB_SAMPLES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)]

CLOSED_FORM_RECORDS = [
    ("A.M06", {}), ("A.M16", {}), ("A.M26", {}), ("A.M36", {}), ("A.M46", {}), ("A.M56", {}),
    ("A.M14", {}),
    ("A.M24", {"c": -2.0}), ("A.M24", {"c": -0.5}), ("A.M24", {"c": 1 / 3}), ("A.M24", {"c": 2.0}),
    ("A.M34", {"c": -2.0}), ("A.M34", {"c": -0.5}), ("A.M34", {"c": 1 / 3}), ("A.M34", {"c": 2.0}),
    ("A.M44", {"c": -2.0}), ("A.M44", {"c": -0.5}), ("A.M44", {"c": 1 / 3}), ("A.M44", {"c": 2.0}),
    ("A.M54t", {"c": 0.0}), ("A.M54t", {"c": -0.5}), ("A.M54t", {"c": 1 / 3}), ("A.M54t", {"c": 2.0}),
]


def geodesic_rhs(spec, state):
    """(x, v) -> (v, -G(x)(v, v)) from the spec's symbol values, with the
    quadratic form written out: the oracle for the geodesic Fields."""
    u, w, v1, v2 = (float(s) for s in state)
    a, b, c, d, e, f = spec.christoffel_at((u, w))
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
        a, b, c, d, e, f = spec.christoffel_at(x)
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
        cf = G.closed_form_geodesic(C.instantiate("A.M06"), 2.0, 3.0)
        assert cf.at(1.5) == (3.0, 4.5)
        assert cf.validity == (-math.inf, math.inf)

    def test_exponential_chart_formula(self):
        cf = G.closed_form_geodesic(C.instantiate("A.M16"), 1.0, 1.0)
        t = 0.8
        assert abs(cf.at(t)[0] - math.log(1 + t)) < 1e-14
        assert abs(cf.at(t)[1] - t / (1 + t)) < 1e-14
        assert cf.validity == (-1.0, math.inf)

    def test_all_forms_satisfy_geodesic_equation(self):
        for fam, kw in CLOSED_FORM_RECORDS:
            rec = C.instantiate(fam, **kw)
            for a, b in AB_SAMPLES:
                try:
                    cf = G.closed_form_geodesic(rec, a, b)
                except G.UnsupportedFamily:
                    pytest.fail(f"{fam} ({a},{b}) should have a closed form")
                assert closed_form_residual(rec.spec, cf) <= 1e-9, (fam, kw, a, b)

    def test_initial_conditions(self):
        for fam, kw in CLOSED_FORM_RECORDS:
            rec = C.instantiate(fam, **kw)
            for a, b in AB_SAMPLES:
                cf = G.closed_form_geodesic(rec, a, b)
                x0 = cf.at(0.0)
                v0 = (ex.evaluate(ex.diff(cf.curve[0], 1), (0.0, 0.0)),
                      ex.evaluate(ex.diff(cf.curve[1], 1), (0.0, 0.0)))
                assert abs(x0[0]) + abs(x0[1]) < 1e-12
                assert abs(v0[0] - a) + abs(v0[1] - b) < 1e-12

    def test_m24_branch_cases(self):
        # b = -a branch and the b < 0 exponential branch are not hit by the
        # standard velocity samples
        rec = C.instantiate("A.M24", c=1 / 3)
        cf = G.closed_form_geodesic(rec, 1.0, -1.0)
        assert closed_form_residual(rec.spec, cf) <= 1e-9
        rec = C.instantiate("A.M24", c=-0.5)
        for ab in [(1.0, -2.0), (1.0, -1.0), (-1.0, 2.0)]:
            cf = G.closed_form_geodesic(rec, *ab)
            assert closed_form_residual(rec.spec, cf) <= 1e-9, ab

    def test_rank_two_rays(self):
        m32 = C.instantiate("A.M32", c=2.0)
        cf = G.closed_form_geodesic(m32, 1.0, 0.0)
        assert closed_form_residual(m32.spec, cf) <= 1e-12
        with pytest.raises(G.UnsupportedFamily):
            G.closed_form_geodesic(m32, 1.0, 1.0)
        m12 = C.instantiate("A.M12", a1=2.0, a2=3.0)
        with pytest.raises(G.UnsupportedFamily):
            G.closed_form_geodesic(m12, 1.0, 0.5)
        alpha = (1.0 / 6.0, 1.0 / 6.0)
        cf = G.closed_form_geodesic(m12, *alpha)
        assert closed_form_residual(m12.spec, cf) <= 1e-12


class TestOracleAgreement:
    def test_log_chart_example_window(self):
        # matches (log(1+t), t/(1+t)) on [0, 5] and blows up at t = -1
        rec = C.instantiate("A.M16")
        cf = G.closed_form_geodesic(rec, 1.0, 1.0)
        fwd = G.geodesic_integrate(rec.spec, (0.0, 0.0), (1.0, 1.0), 5.0)
        assert isinstance(fwd.status, ReachedHorizon)
        f = cf.compiled()
        gap = max(max(abs(a - b) for a, b in zip(fwd.eval(float(t))[:2], f(float(t))))
                  for t in np.linspace(0.0, 5.0, 80)[1:])
        assert gap <= 1e-6
        back = G.geodesic_integrate(rec.spec, (0.0, 0.0), (1.0, 1.0), -5.0)
        assert isinstance(back.status, Blowup)
        assert back.status.t_lo <= -1.0 <= back.status.t_hi

    def test_sup_error_over_inner_windows(self):
        worst = 0.0
        for fam, kw in CLOSED_FORM_RECORDS[:8]:
            rec = C.instantiate(fam, **kw)
            for a, b in AB_SAMPLES:
                cf = G.closed_form_geodesic(rec, a, b)
                lo, hi = cf.inner_window()
                f = cf.compiled()
                for t_end in (hi, lo):
                    if abs(t_end) < 1e-9:
                        continue
                    tr = G.geodesic_integrate(rec.spec, rec.base_point, (a, b), t_end)
                    assert isinstance(tr.status, ReachedHorizon), (fam, a, b, tr.status)
                    for t in np.linspace(0.0, t_end, 40)[1:]:
                        xy = tr.eval(float(t))[:2]
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
        base = G.geodesic_integrate(rec.spec, (0.0, 0.0), v0, float(np.sign(lam)) * 2.0)
        scaled = G.geodesic_integrate(rec.spec, (0.0, 0.0),
                                      (v0[0] * lam, v0[1] * lam), 1.0)
        for t in ts:
            want = base.eval(float(lam * t))[:2]
            got = scaled.eval(float(t))[:2]
            assert np.allclose(got, want, atol=1e-8)


class TestEscapeTime:
    def test_quadrant_chart_brackets(self):
        rec = C.instantiate("A.M26")
        et = G.escape_time(rec.spec, (0.0, 0.0), (1.0, 1.0))
        fwd, back = et["forward"]["bracket"], et["backward"]["bracket"]
        assert fwd is not None and fwd[0] <= 1.0 <= fwd[1] and 0.999 <= fwd[0] and fwd[1] <= 1.001
        assert back is not None and back[0] <= -1.0 <= back[1] and back[0] >= -1.001

    def test_flat_plane_unbounded(self):
        rec = C.instantiate("A.M06")
        et = G.escape_time(rec.spec, (0.0, 0.0), (3.0, -2.0))
        assert et["forward"]["bracket"] is None
        assert et["backward"]["bracket"] is None

    def test_vertical_ray_of_log_chart_is_complete(self):
        rec = C.instantiate("A.M16")
        et = G.escape_time(rec.spec, (0.0, 0.0), (0.0, 1.0))
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

    def test_half_plane_probe_not_classified(self):
        rep = G.geodesic_completeness_probe(C.instantiate("B.N56"), T=10.0)
        assert rep.expected is None and rep.verdict == "not-classified"
