"""The model atlas.

Every homogeneous affine surface family handled by this package, keyed as
``A.*`` (constant Christoffel symbols on the plane), ``B.*`` (coefficients
divided by x1 on the half-plane x1 > 0), plus the auxiliary plane surface
``A.M54t`` that receives the A.M54 embedding.  A family instantiates into a
ModelRecord carrying:

  * the connection spec,
  * the quasi-Einstein solution basis (three expressions, or empty for the
    two families whose solution space is trivial),
  * an affine Killing basis of the correct dimension,
  * affine maps into other catalog models, with targets,
  * the expected classification flags (Killing-algebra dimension, Ricci
    rank, Killing completeness, geodesic completeness).

Geodesic completeness for the B families is deliberately left unclassified
(flag None): the probes may explore them but assert no ground truth.

The record for B.N06 carries a completeness note: the constant field d/dx1
is affine Killing on the flat half-plane and its flow reaches the x1 = 0
edge in finite time, so the model is Killing incomplete even though it is
flat; the flag here records that fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .connection import ChristoffelSpec
from .expr import (PlaneMap, ScalarExpr, VectorFieldExpr, const, cos, exp, log, power,
                   pullback_field, sin, x1, x2)

F = Fraction


class GuardError(ValueError):
    """A family parameter guard was violated; the message names the guard."""


@dataclass(frozen=True)
class ModelRef:
    family: str
    params: tuple[tuple[str, float], ...] = ()

    @property
    def p(self) -> dict:
        return dict(self.params)

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}({inner})"

    def to_json(self) -> dict:
        return {"family": self.family, "params": {k: v for k, v in self.params}}


def ref(family: str, **params) -> ModelRef:
    fam = FAMILIES[family]
    items = []
    for name in fam.param_names:
        if name not in params:
            raise GuardError(f"{family}: missing parameter {name!r}")
        items.append((name, float(params[name])))
    extra = set(params) - set(fam.param_names)
    if extra:
        raise GuardError(f"{family}: unknown parameter(s) {sorted(extra)}")
    return ModelRef(family, tuple(items))


@dataclass(frozen=True)
class ExpectedFlags:
    dim_killing: int
    ricci_rank: int | None
    killing_complete: bool
    geodesically_complete: bool | None  # None = not classified

    def to_json(self) -> dict:
        gc = self.geodesically_complete
        return {
            "dim_killing": self.dim_killing,
            "ricci_rank": self.ricci_rank,
            "killing_complete": self.killing_complete,
            "geodesically_complete": "not-classified" if gc is None else gc,
        }


@dataclass(frozen=True)
class AffineMapEntry:
    name: str
    plane_map: PlaneMap
    target: ModelRef


@dataclass(frozen=True)
class ModelRecord:
    ref: ModelRef
    spec: ChristoffelSpec
    q_basis: tuple[ScalarExpr, ...]
    killing_basis: tuple[VectorFieldExpr, ...]
    expected: ExpectedFlags
    maps: tuple[AffineMapEntry, ...]
    base_point: tuple[float, float]
    notes: str = ""

    @property
    def mtype(self) -> str:
        return FAMILIES[self.ref.family].mtype

    def to_json(self) -> dict:
        return {
            "model": self.ref.label(),
            "ref": self.ref.to_json(),
            "spec": {"family": self.ref.family,
                     "params": {k: v for k, v in self.ref.params},
                     **self.spec.to_json()},
            "q_basis": [ex.render(q) for q in self.q_basis],
            "killing_basis": [[ex.render(k.c1), ex.render(k.c2)] for k in self.killing_basis],
            "expected": self.expected.to_json(),
            "maps": [{"name": m.name, "map": [ex.render(m.plane_map.f1), ex.render(m.plane_map.f2)],
                      "target": m.target.to_json()} for m in self.maps],
            "notes": self.notes,
        }


@dataclass(frozen=True)
class Family:
    name: str
    mtype: str  # "A" | "B" | "aux"
    param_names: tuple[str, ...]
    guard_text: str
    dim_killing: int
    summary: str

    def to_json(self) -> dict:
        return {"family": self.name, "type": self.mtype, "params": list(self.param_names),
                "guard": self.guard_text, "dim_killing": self.dim_killing,
                "summary": self.summary}


def vf(c1, c2) -> VectorFieldExpr:
    return VectorFieldExpr(ex._as_expr(c1), ex._as_expr(c2))


D1 = vf(1, 0)
D2 = vf(0, 1)

AFFINE_BASIS = (D1, D2, vf(x1, 0), vf(x2, 0), vf(0, x1), vf(0, x2))
DIM2_A_BASIS = (D1, D2)
DIM2_B_BASIS = (vf(x1, x2), D2)


def dim3_b_basis(sigma: int) -> tuple[VectorFieldExpr, ...]:
    quad = vf(2 * x1 * x2, power(x2, 2) + sigma * power(x1, 2))
    return (quad, vf(x1, x2), D2)


def m34_killing_basis(c: float) -> tuple[VectorFieldExpr, ...]:
    return (D1, vf(x1, 0), vf(exp(x2), 0), vf(-const(c) * x1, 1))


def m44_zero_killing_basis() -> tuple[VectorFieldExpr, ...]:
    return (D1, vf(x2, 0), vf(x1, 0), D2)


def m54t_killing_basis(c: float) -> tuple[VectorFieldExpr, ...]:
    ec = exp(const(c) * x2)
    return (vf(x1, 0), vf(ec * cos(x2), 0), vf(ec * sin(x2), 0), D2)


# ---------------------------------------------------------------------------
# guards


def _check(cond: bool, family: str, text: str):
    if not cond:
        raise GuardError(f"{family}: {text} violated")


def _sign_guard(family: str, s: float):
    _check(s in (1.0, -1.0), family, "sign ∈ {+1, -1}")


# ---------------------------------------------------------------------------
# family builders.  Each returns (spec, q_basis, maps, killing_source)
# where killing_source is either a basis tuple or ("pullback", map_index).


def _gamma_a(*coeffs) -> ChristoffelSpec:
    return ChristoffelSpec(tuple(float(v) for v in coeffs), "constant")


def _gamma_b(*coeffs) -> ChristoffelSpec:
    return ChristoffelSpec(tuple(float(v) for v in coeffs), "inverse-x1")


def _map(f1, f2) -> PlaneMap:
    return PlaneMap(ex._as_expr(f1), ex._as_expr(f2))


def _build_A_M06(p):
    spec = _gamma_a(0, 0, 0, 0, 0, 0)
    q = (const(1), x1, x2)
    return spec, q, (), AFFINE_BASIS


def _build_A_M16(p):
    spec = _gamma_a(1, 0, 0, 1, 0, 0)
    e1 = exp(x1)
    q = (const(1), e1, x2 * e1)
    maps = (AffineMapEntry("Theta16", _map(e1, x2 * e1), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_A_M26(p):
    spec = _gamma_a(-1, 0, 0, 0, 0, 1)
    q = (const(1), exp(x2), exp(-x1))
    maps = (AffineMapEntry("Theta26", _map(exp(x2), exp(-x1)), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_A_M36(p):
    spec = _gamma_a(0, 0, 0, 0, 0, 1)
    q = (const(1), x1, exp(x2))
    maps = (AffineMapEntry("Theta36", _map(x1, exp(x2)), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_A_M46(p):
    spec = _gamma_a(0, 0, 0, 0, 1, 0)
    q = (const(1), x2, power(x2, 2) + 2 * x1)
    maps = (AffineMapEntry("Theta46", _map(x2, power(x2, 2) + 2 * x1), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_A_M56(p):
    spec = _gamma_a(1, 0, 0, 1, -1, 0)
    e1 = exp(x1)
    q = (const(1), e1 * cos(x2), e1 * sin(x2))
    maps = (AffineMapEntry("Theta56", _map(e1 * cos(x2), e1 * sin(x2)), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_A_M14(p):
    spec = _gamma_a(-1, 0, 1, 0, 0, 2)
    e2 = exp(x2)
    q = (e2, x2 * e2, exp(-x1 + x2))
    maps = (AffineMapEntry("Theta14", _map(exp(-x1), x2), ref("A.M44", c=0)),)
    return spec, q, maps, ("pullback", 0)


def _build_A_M24(p):
    c = p["c"]
    _check(c not in (0.0, -1.0), "A.M24", "c ∉ {0, -1}")
    spec = _gamma_a(-1, 0, c, 0, 0, 1 + 2 * c)
    cc = const(c)
    q = (exp(cc * x2), exp((cc + 1) * x2), exp(cc * x2 - x1))
    maps = (AffineMapEntry("Theta24", _map(exp(-x1), x2), ref("A.M34", c=c)),)
    return spec, q, maps, ("pullback", 0)


def _build_A_M34(p):
    c = p["c"]
    _check(c not in (0.0, -1.0), "A.M34", "c ∉ {0, -1}")
    spec = _gamma_a(0, 0, c, 0, 0, 1 + 2 * c)
    cc = const(c)
    q = (exp(cc * x2), exp((cc + 1) * x2), x1 * exp(cc * x2))
    return spec, q, (), m34_killing_basis(c)


def _build_A_M44(p):
    c = p["c"]
    spec = _gamma_a(0, 0, 1, 0, c, 2)
    e2 = exp(x2)
    q = (e2, x2 * e2, (const(c) / 2 * power(x2, 2) + x1) * e2)
    maps = (AffineMapEntry("Theta44", _map(x1 + const(c) / 2 * power(x2, 2), x2),
                           ref("A.M44", c=0)),)
    if c == 0.0:
        return spec, q, maps, m44_zero_killing_basis()
    return spec, q, maps, ("pullback", 0)


def _build_A_M54(p):
    c = p["c"]
    spec = _gamma_a(1, 0, 0, 0, 1 + c * c, 2 * c)
    ec = exp(const(c) * x2)
    q = (ec * cos(x2), ec * sin(x2), exp(x1))
    maps = (AffineMapEntry("Theta54", _map(exp(x1), x2), ref("A.M54t", c=c)),)
    return spec, q, maps, ("pullback", 0)


def _build_A_M54t(p):
    c = p["c"]
    spec = ChristoffelSpec((0.0, 0.0, 0.0, 0.0, 1 + c * c, 2 * c), "linear-x1")
    ec = exp(const(c) * x2)
    q = (ec * cos(x2), ec * sin(x2), x1)
    return spec, q, (), m54t_killing_basis(c)


def _build_A_M12(p):
    a1, a2 = p["a1"], p["a2"]
    _check(a1 * a2 != 0.0, "A.M12", "a1*a2 ≠ 0")
    _check(a1 + a2 != 1.0, "A.M12", "a1+a2 ≠ 1")
    den = a1 + a2 - 1
    spec = _gamma_a((a1 * a1 + a2 - 1) / den, (a1 * a1 - a1) / den, a1 * a2 / den,
                    a1 * a2 / den, (a2 * a2 - a2) / den, (a1 + a2 * a2 - 1) / den)
    q = (exp(x1), exp(x2), exp(const(a1) * x1 + const(a2) * x2))
    return spec, q, (), DIM2_A_BASIS


def _build_A_M22(p):
    b1, b2 = p["b1"], p["b2"]
    _check(b1 != 1.0, "A.M22", "b1 ≠ 1")
    spec = _gamma_a(1 + b1, 0, b2, 1, (1 + b2 * b2) / (b1 - 1), 0)
    e1 = exp(x1)
    q = (e1 * cos(x2), e1 * sin(x2), exp(const(b1) * x1 + const(b2) * x2))
    return spec, q, (), DIM2_A_BASIS


def _build_A_M32(p):
    c = p["c"]
    _check(c != 0.0, "A.M32", "c ≠ 0")
    spec = _gamma_a(2, 0, 0, 1, c, 1)
    e1 = exp(x1)
    q = (e1, (x1 - const(c) * x2) * e1, exp(x1 + x2))
    return spec, q, (), DIM2_A_BASIS


def _build_A_M42(p):
    s = p["sign"]
    _sign_guard("A.M42", s)
    spec = _gamma_a(2, 0, 0, 1, s, 0)
    e1 = exp(x1)
    q = (e1, x2 * e1, (2 * x1 + const(s) * power(x2, 2)) * e1)
    return spec, q, (), DIM2_A_BASIS


def _build_B_N06(p):
    spec = _gamma_b(0, 0, 0, 0, 0, 0)
    q = (const(1), x1, x2)
    maps = (AffineMapEntry("Psi06", _map(x1, x2), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N16(p):
    s = p["sign"]
    _sign_guard("B.N16", s)
    spec = _gamma_b(1, 0, 0, 0, s, 0)
    quad = power(x1, 2) + const(s) * power(x2, 2)
    q = (const(1), x2, quad)
    maps = (AffineMapEntry("Psi16", _map(x2, quad), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N26(p):
    c = p["c"]
    _check(c != 0.0, "B.N26", "c ≠ 0")
    spec = _gamma_b(c - 1, 0, 0, c, 0, 0)
    pw = power(x1, c) if not float(c).is_integer() else power(x1, F(int(c)))
    q = (const(1), pw, pw * x2)
    maps = (AffineMapEntry("Psi26", _map(pw, pw * x2), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N36(p):
    spec = _gamma_b(-2, 1, 0, -1, 0, 0)
    inv = power(x1, -1)
    q = (const(1), inv, x2 * inv + log(x1))
    maps = (AffineMapEntry("Psi36", _map(inv, x2 * inv + log(x1)), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N46(p):
    spec = _gamma_b(0, 1, 0, 0, 0, 0)
    q = (const(1), x1, x2 + x1 * log(x1))
    maps = (AffineMapEntry("Psi46", _map(x1, x2 + x1 * log(x1)), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N56(p):
    spec = _gamma_b(-1, 0, 0, 0, 0, 0)
    q = (const(1), log(x1), x2)
    maps = (AffineMapEntry("Psi56", _map(log(x1), x2), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N66(p):
    c = p["c"]
    _check(c not in (0.0, -1.0), "B.N66", "c ∉ {0, -1}")
    spec = _gamma_b(c, 0, 0, 0, 0, 0)
    e = 1 + c
    pw = power(x1, e) if not float(e).is_integer() else power(x1, F(int(e)))
    q = (const(1), pw, x2)
    maps = (AffineMapEntry("Psi66", _map(pw, x2), ref("A.M06")),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N14(p):
    k = p["kappa"]
    _check(k not in (0.0, -1.0), "B.N14", "κ ∉ {0, -1}")
    spec = _gamma_b(2 * k, 1, 0, k, 0, 0)
    pk = power(x1, k)
    q = (pk, power(x1, k + 1), pk * (x2 + x1 * log(x1)))
    maps = (AffineMapEntry("Psi14", _map(x2 + x1 * log(x1), log(x1)), ref("A.M34", c=k)),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N24(p):
    k, th = p["kappa"], p["theta"]
    _check(th != 0.0, "B.N24", "θ ≠ 0")
    _check(k not in (0.0, -th), "B.N24", "κ ∉ {0, -θ}")
    spec = _gamma_b(2 * k + th - 1, 0, 0, k, 0, 0)
    pk = power(x1, k)
    q = (pk, pk * x2, power(x1, k + th))
    maps = (AffineMapEntry("Psi24", _map(x2, const(th) * log(x1)), ref("A.M34", c=k / th)),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N34(p):
    k = p["kappa"]
    _check(k != 0.0, "B.N34", "κ ≠ 0")
    spec = _gamma_b(2 * k - 1, 0, 0, k, 0, 0)
    pk = power(x1, k)
    q = (pk, pk * x2, pk * log(x1))
    maps = (AffineMapEntry("Psi34", _map(x2, const(k) * log(x1)), ref("A.M44", c=0)),)
    return spec, q, maps, ("pullback", 0)


def _build_B_N13(p):
    s = p["sign"]
    _sign_guard("B.N13", s)
    spec = _gamma_b(-1.5, 0, 0, -0.5, -0.5 * s, 0)
    return spec, (), (), dim3_b_basis(0)


def _build_B_N23(p):
    c = p["c"]
    spec = _gamma_b(-1.5, 0, 1, -0.5, c, 2)
    return spec, (), (), dim3_b_basis(0)


def _build_B_N33(p):
    spec = _gamma_b(-1, 0, 0, -1, -1, 0)
    inv = power(x1, -1)
    q = (inv, x2 * inv, (power(x2, 2) - power(x1, 2)) * inv)
    return spec, q, (), dim3_b_basis(1)


def _build_B_N43(p):
    spec = _gamma_b(-1, 0, 0, -1, 1, 0)
    inv = power(x1, -1)
    q = (inv, x2 * inv, (power(x2, 2) + power(x1, 2)) * inv)
    return spec, q, (), dim3_b_basis(-1)


_BUILDERS = {
    "A.M06": _build_A_M06, "A.M16": _build_A_M16, "A.M26": _build_A_M26,
    "A.M36": _build_A_M36, "A.M46": _build_A_M46, "A.M56": _build_A_M56,
    "A.M14": _build_A_M14, "A.M24": _build_A_M24, "A.M34": _build_A_M34,
    "A.M44": _build_A_M44, "A.M54": _build_A_M54, "A.M54t": _build_A_M54t,
    "A.M12": _build_A_M12, "A.M22": _build_A_M22, "A.M32": _build_A_M32,
    "A.M42": _build_A_M42,
    "B.N06": _build_B_N06, "B.N16": _build_B_N16, "B.N26": _build_B_N26,
    "B.N36": _build_B_N36, "B.N46": _build_B_N46, "B.N56": _build_B_N56,
    "B.N66": _build_B_N66, "B.N14": _build_B_N14, "B.N24": _build_B_N24,
    "B.N34": _build_B_N34, "B.N13": _build_B_N13, "B.N23": _build_B_N23,
    "B.N33": _build_B_N33, "B.N43": _build_B_N43,
}

FAMILIES: dict[str, Family] = {
    "A.M06": Family("A.M06", "A", (), "", 6, "flat plane"),
    "A.M16": Family("A.M16", "A", (), "", 6, "flat, exponential chart"),
    "A.M26": Family("A.M26", "A", (), "", 6, "flat, quadrant chart"),
    "A.M36": Family("A.M36", "A", (), "", 6, "flat, half-plane chart"),
    "A.M46": Family("A.M46", "A", (), "", 6, "flat, parabolic chart"),
    "A.M56": Family("A.M56", "A", (), "", 6, "flat, punctured-plane chart"),
    "A.M14": Family("A.M14", "A", (), "", 4, "rank-1 Ricci"),
    "A.M24": Family("A.M24", "A", ("c",), "c ∉ {0, -1}", 4, "rank-1 Ricci, one parameter"),
    "A.M34": Family("A.M34", "A", ("c",), "c ∉ {0, -1}", 4, "rank-1 Ricci, Killing complete"),
    "A.M44": Family("A.M44", "A", ("c",), "", 4, "rank-1 Ricci, Killing complete"),
    "A.M54": Family("A.M54", "A", ("c",), "", 4, "rank-1 Ricci, oscillatory basis"),
    "A.M54t": Family("A.M54t", "aux", ("c",), "", 4, "auxiliary completion of A.M54"),
    "A.M12": Family("A.M12", "A", ("a1", "a2"), "a1*a2 ≠ 0 and a1+a2 ≠ 1", 2, "rank-2 Ricci"),
    "A.M22": Family("A.M22", "A", ("b1", "b2"), "b1 ≠ 1", 2, "rank-2 Ricci, oscillatory"),
    "A.M32": Family("A.M32", "A", ("c",), "c ≠ 0", 2, "rank-2 Ricci"),
    "A.M42": Family("A.M42", "A", ("sign",), "sign ∈ {+1, -1}", 2, "rank-2 Ricci"),
    "B.N06": Family("B.N06", "B", (), "", 6, "flat half-plane"),
    "B.N16": Family("B.N16", "B", ("sign",), "sign ∈ {+1, -1}", 6, "flat, parabolic chart"),
    "B.N26": Family("B.N26", "B", ("c",), "c ≠ 0", 6, "flat, power chart"),
    "B.N36": Family("B.N36", "B", (), "", 6, "flat, inversion chart"),
    "B.N46": Family("B.N46", "B", (), "", 6, "flat, log-shear chart"),
    "B.N56": Family("B.N56", "B", (), "", 6, "flat, log chart (complete)"),
    "B.N66": Family("B.N66", "B", ("c",), "c ∉ {0, -1}", 6, "flat, power chart"),
    "B.N14": Family("B.N14", "B", ("kappa",), "κ ∉ {0, -1}", 4, "isomorphic to A.M34"),
    "B.N24": Family("B.N24", "B", ("kappa", "theta"), "κ ∉ {0, -θ} and θ ≠ 0", 4, "isomorphic to A.M34"),
    "B.N34": Family("B.N34", "B", ("kappa",), "κ ≠ 0", 4, "isomorphic to A.M44(0)"),
    "B.N13": Family("B.N13", "B", ("sign",), "sign ∈ {+1, -1}", 3, "trivial solution space"),
    "B.N23": Family("B.N23", "B", ("c",), "", 3, "trivial solution space"),
    "B.N33": Family("B.N33", "B", (), "", 3, "Lorentzian-hyperbolic plane"),
    "B.N43": Family("B.N43", "B", (), "", 3, "hyperbolic plane"),
}


# ---------------------------------------------------------------------------
# expected classification flags


def _killing_complete(family: str, p: dict) -> bool:
    if family in ("A.M06", "A.M46", "A.M34", "A.M44", "A.M54t",
                  "A.M12", "A.M22", "A.M32", "A.M42"):
        return True
    if family in ("B.N56", "B.N14", "B.N24", "B.N34", "B.N43"):
        return True
    # B.N06 is flat but its translation field leaves the half-plane in
    # finite time, hence incomplete; see the module docstring.
    return False


def _geodesically_complete(family: str, p: dict) -> bool | None:
    if family.startswith("B."):
        return None
    if family in ("A.M06", "A.M46"):
        return True
    if family == "A.M34":
        return p["c"] == -0.5
    if family == "A.M22":
        return p["b1"] == -1.0
    if family == "A.M54t":
        return p["c"] == 0.0
    return False


_RANK_BY_FAMILY = {
    "A.M06": 0, "A.M16": 0, "A.M26": 0, "A.M36": 0, "A.M46": 0, "A.M56": 0,
    "A.M14": 1, "A.M24": 1, "A.M34": 1, "A.M44": 1, "A.M54": 1, "A.M54t": 1,
    "A.M12": 2, "A.M22": 2, "A.M32": 2, "A.M42": 2,
    "B.N06": 0, "B.N16": 0, "B.N26": 0, "B.N36": 0, "B.N46": 0, "B.N56": 0,
    "B.N66": 0,
}

_NOTES = {
    "B.N06": ("killing_complete is False by direct construction: the constant "
              "field d/dx1 is affine Killing here and its flow meets the x1 = 0 "
              "edge in finite time.  Summary classification tables sometimes "
              "list this flat model as complete; the flow witness decides."),
    "A.M56": ("geodesics with nonzero second velocity component leave the "
              "arctan branch of the chart formula; only chart-level existence "
              "is reported for them."),
}


# ---------------------------------------------------------------------------
# instantiation


def instantiate(family: str, **params) -> ModelRecord:
    """Build the full record for one model; raises GuardError when the
    family guards are violated (the message names the guard)."""
    return instantiate_ref(ref(family, **params))


def instantiate_ref(mref: ModelRef) -> ModelRecord:
    fam = FAMILIES.get(mref.family)
    if fam is None:
        raise GuardError(f"unknown family {mref.family!r}")
    spec, q_basis, maps, killing_source = _BUILDERS[mref.family](mref.p)
    if isinstance(killing_source, tuple) and killing_source and killing_source[0] == "pullback":
        entry = maps[killing_source[1]]
        target = instantiate_ref(entry.target)
        killing = tuple(pullback_field(entry.plane_map, y) for y in target.killing_basis)
    else:
        killing = tuple(killing_source)
    expected = ExpectedFlags(
        dim_killing=fam.dim_killing,
        ricci_rank=_RANK_BY_FAMILY.get(mref.family),
        killing_complete=_killing_complete(mref.family, mref.p),
        geodesically_complete=_geodesically_complete(mref.family, mref.p),
    )
    base = (1.0, 0.0) if fam.mtype == "B" else (0.0, 0.0)
    return ModelRecord(mref, spec, q_basis, killing, expected, maps, base,
                       _NOTES.get(mref.family, ""))


# ---------------------------------------------------------------------------
# standard parameter samples and grids (used by sweeps and acceptance tests)

_C_SAMPLES = (-2.0, -0.5, 1 / 3, 2.0)
_PAIR_SAMPLES = ((2.0, 3.0), (-1.0, 3.0), (0.5, 0.25))


def standard_samples(family: str) -> tuple[dict, ...]:
    fam = FAMILIES[family]
    if not fam.param_names:
        return ({},)
    if fam.param_names == ("c",):
        if family == "A.M54t":
            return tuple({"c": c} for c in _C_SAMPLES + (0.0,))
        return tuple({"c": c} for c in _C_SAMPLES)
    if fam.param_names == ("sign",):
        return ({"sign": 1.0}, {"sign": -1.0})
    if fam.param_names == ("a1", "a2"):
        return tuple({"a1": a, "a2": b} for a, b in _PAIR_SAMPLES)
    if fam.param_names == ("b1", "b2"):
        return ({"b1": -1.0, "b2": 2.0}, {"b1": 2.0, "b2": 3.0}, {"b1": 0.5, "b2": 0.25})
    if fam.param_names == ("kappa",):
        return tuple({"kappa": c} for c in _C_SAMPLES)
    if fam.param_names == ("kappa", "theta"):
        return tuple({"kappa": a, "theta": b} for a, b in _PAIR_SAMPLES)
    raise AssertionError(f"no sample rule for {family}")


def families(mtype: str | None = None) -> list[Family]:
    fams = list(FAMILIES.values())
    if mtype:
        fams = [f for f in fams if f.mtype == mtype]
    return fams


def all_records(mtype: str | None = None) -> list[ModelRecord]:
    """Every family instantiated at its standard parameter samples."""
    out = []
    for fam in families(mtype):
        for params in standard_samples(fam.name):
            out.append(instantiate(fam.name, **params))
    return out


def sample_grid(record: ModelRecord, n: int = 5) -> list[tuple[float, float]]:
    """Verification grid: [-1, 1]^2 for plane models, [1/4, 4] x [-2, 2]
    for half-plane models (well inside the domain, away from x1 = 0)."""
    if record.mtype == "B":
        us = np.linspace(0.25, 4.0, n)
        vs = np.linspace(-2.0, 2.0, n)
    else:
        us = np.linspace(-1.0, 1.0, n)
        vs = np.linspace(-1.0, 1.0, n)
    return [(float(u), float(v)) for u in us for v in vs]


def parse_family_token(token: str) -> tuple[str, dict]:
    """Resolve CLI family tokens, including sign-suffix aliases such as
    B.N13p / B.N13plus / B.N13m / B.N13minus."""
    if token in FAMILIES:
        return token, {}
    for suffix, value in (("plus", 1.0), ("minus", -1.0), ("p", 1.0), ("m", -1.0)):
        if token.endswith(suffix):
            base = token[: -len(suffix)]
            if base in FAMILIES and "sign" in FAMILIES[base].param_names:
                return base, {"sign": value}
    raise GuardError(f"unknown family {token!r}")
