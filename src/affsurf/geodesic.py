"""Geodesics: integration, closed-form curves, completeness probing.

A geodesic satisfies  sigma-ddot^k + G_ij^k sigma-dot^i sigma-dot^j = 0;
the integrator propagates the first-order system on (x, v) with the shared
adaptive stepper.  For most plane families the geodesic through the origin
with initial velocity (a, b) has a closed form; those curves are stored as
exact expression trees in t and serve as oracles for the integrator, for
blowup-time quantification, and for the completeness table.

The completeness probe builds one run per initial condition and hands the
list to the probe engine it shares with the Killing-flow probe
(`killing.run_probe`).

Half-plane (B.*) models can be integrated and probed, but no completeness
ground truth is asserted for them: every probe on such a model reports the
expected flag as "not-classified".  Trajectories that cross x1 <= 1e-12
terminate as LeftDomain: the half-plane boundary is a chart edge, not an
explosion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .catalog import ModelRecord
from .connection import ChristoffelSpec
from .expr import ScalarExpr, arctan, compile_scalar, const, exp, log, power, sin, x1
from .integrate import Blowup, Field, LeftDomain, StepCollapse, Status, Trajectory, integrate
from .killing import ProbeReport, run_probe

HORIZON = 50.0
#: a complete verdict is re-confirmed at this multiple of the horizon
CONFIRM_FACTOR = 4.0
#: half-plane geodesics stop where x1 falls to this edge
B_DOMAIN_EDGE = 1e-12

#: time variable of closed-form curves (expression trees in one variable)
t_var = x1


class UnsupportedFamily(ValueError):
    """No closed-form geodesic is available for this family or initial
    velocity (the rank-2 families reduce to an equation without an
    elementary solution except for special rays)."""


#: (prelude, components) of the first-order system on (x, v) = (u, w, v1, v2),
#: (v, -G(x)(v, v)), per symbol kind; the six symbols are the constants
#: a..f, so all specs of one kind share one kernel
_QUADRATIC = ("q11 = v1 * v1", "q12 = 2 * v1 * v2", "q22 = v2 * v2")
_GEODESIC_SOURCES = {
    "constant": (_QUADRATIC, ("v1", "v2",
                              "-(a * q11 + c * q12 + e * q22)",
                              "-(b * q11 + d * q12 + f * q22)")),
    "inverse-x1": (("if u <= 0.0:", "    raise DomainError('left the half-plane')") + _QUADRATIC,
                   ("v1", "v2",
                    "-(a * q11 + c * q12 + e * q22) / u",
                    "-(b * q11 + d * q12 + f * q22) / u")),
    "linear-x1": (_QUADRATIC, ("v1", "v2",
                               "-(a * q11 + c * q12 + e * u * q22)",
                               "-(b * q11 + d * q12 + f * q22)")),
}


def _make_rhs(spec: ChristoffelSpec) -> Field:
    """The geodesic right-hand side of spec as a Field over (u, w, v1, v2)."""
    prelude, comps = _GEODESIC_SOURCES[spec.kind]
    return Field(("u", "w", "v1", "v2"), prelude, comps, tuple(zip("abcdef", spec.coeffs)))


def _edge(spec: ChristoffelSpec) -> float | None:
    return B_DOMAIN_EDGE if spec.kind == "inverse-x1" else None


def _state(x0, v0) -> tuple[float, float, float, float]:
    return (float(x0[0]), float(x0[1]), float(v0[0]), float(v0[1]))


def geodesic_integrate(spec: ChristoffelSpec, x0, v0, t_end: float) -> Trajectory:
    """Integrate the geodesic from x0 with velocity v0 to signed time t_end."""
    return integrate(_make_rhs(spec), _state(x0, v0), t_end, edge=_edge(spec))


# ---------------------------------------------------------------------------
# closed forms


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
# escape times and completeness probe


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


def default_geodesic_inits(record: ModelRecord):
    """Eight unit directions plus the velocity samples the closed forms are
    exercised at (b = 0 rays included deliberately)."""
    dirs = []
    for k in range(8):
        th = math.pi * k / 4.0
        dirs.append((math.cos(th), math.sin(th)))
    extra = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)]
    return [record.base_point] , dirs + extra


def geodesic_completeness_probe(record: ModelRecord,
                                T: float = HORIZON,
                                init_set=None) -> ProbeReport:
    """Integrate every initial condition both directions and declare the
    model complete when nothing escapes before the horizon; complete
    verdicts are re-confirmed at CONFIRM_FACTOR times the horizon (the
    defaults give 50 then 200).  Verdicts are compared against the
    expected flag (None for half-plane families)."""
    if init_set is None:
        bases, vels = default_geodesic_inits(record)
        init_set = [(b, v) for b in bases for v in vels]
    rhs = _make_rhs(record.spec)
    runs = [(f"geodesic a={v0[0]:g} b={v0[1]:g}", tuple(v0), tuple(x0), rhs, _state(x0, v0))
            for x0, v0 in init_set]
    return run_probe(record, "geodesic", runs, T, CONFIRM_FACTOR, _edge(record.spec))
