"""The model atlas.

Every homogeneous affine surface family handled by this package, keyed as
``A.*`` (constant Christoffel symbols on the plane), ``B.*`` (coefficients
divided by x1 on the half-plane x1 > 0), plus the auxiliary plane surface
``A.M54t`` that receives the A.M54 embedding.  ``FAMILIES`` holds one
``Family`` row per family, and that row is the family's only declaration:
its parameters and guard, its builder, its standard parameter samples and
its expected classification flags.  A family instantiates into a
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
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

import numpy as np

from . import expr as ex
from .connection import ChristoffelSpec
from .expr import (Data, PlaneMap, ScalarExpr, VectorFieldExpr, const, cos, exp, log, power,
                   pullback_fields, sin, x1, x2)

F = Fraction


class GuardError(ValueError):
    """A family parameter guard was violated; the message names the guard."""


class ModelRef(Data):
    __slots__ = ("family", "params")

    def __init__(self, family: str, params: tuple[tuple[str, float], ...] = ()):
        self.family, self.params = family, params

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


def family_named(name: str) -> Family:
    """The family called name; GuardError when there is none."""
    fam = FAMILIES.get(name)
    if fam is None:
        raise GuardError(f"unknown family {name!r}")
    return fam


def ref(family: str, **params) -> ModelRef:
    fam = family_named(family)
    items = []
    for name in fam.param_names:
        if name not in params:
            raise GuardError(f"{family}: missing parameter {name!r}")
        items.append((name, float(params[name])))
    extra = set(params) - set(fam.param_names)
    if extra:
        raise GuardError(f"{family}: unknown parameter(s) {sorted(extra)}")
    return ModelRef(family, tuple(items))


class ExpectedFlags(Data):
    __slots__ = ("dim_killing", "ricci_rank", "killing_complete", "geodesically_complete")

    def __init__(self, dim_killing: int, ricci_rank: int | None, killing_complete: bool,
                 geodesically_complete: bool | None):  # None = not classified
        self.dim_killing, self.ricci_rank = dim_killing, ricci_rank
        self.killing_complete, self.geodesically_complete = killing_complete, geodesically_complete

    def to_json(self) -> dict:
        gc = self.geodesically_complete
        return {
            "dim_killing": self.dim_killing,
            "ricci_rank": self.ricci_rank,
            "killing_complete": self.killing_complete,
            "geodesically_complete": "not-classified" if gc is None else gc,
        }


class AffineMapEntry(Data):
    __slots__ = ("name", "plane_map", "target")

    def __init__(self, name: str, plane_map: PlaneMap, target: ModelRef):
        self.name, self.plane_map, self.target = name, plane_map, target


class ModelRecord(Data):
    __slots__ = ("ref", "spec", "q_basis", "killing_basis", "expected", "maps", "base_point",
                 "notes")

    def __init__(self, ref: ModelRef, spec: ChristoffelSpec, q_basis: tuple[ScalarExpr, ...],
                 killing_basis: tuple[VectorFieldExpr, ...], expected: ExpectedFlags,
                 maps: tuple[AffineMapEntry, ...], base_point: tuple[float, float], notes: str):
        self.ref, self.spec, self.q_basis, self.killing_basis = ref, spec, q_basis, killing_basis
        self.expected, self.maps, self.base_point, self.notes = expected, maps, base_point, notes

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


class Family(Data):
    """One row of the atlas: everything the package knows about a family.

    The first six fields are the family's listing (``to_json``).  ``build``
    maps a parameter dict to (coeffs, q_basis, maps, killing_basis), raising
    GuardError on a guard violation: the six Christoffel coefficients, which
    the type's kind scales, and a killing_basis of None pulls the first map's
    target basis back.  ``samples`` holds the standard parameter values, one
    tuple per sample in ``param_names`` order.  ``ricci_rank`` (None when not
    recorded), ``killing_complete`` and ``geodesically_complete`` are the
    expected flags; the last is None when not classified, or a rule on the
    parameter dict.  ``notes`` is copied into every record.
    """

    __slots__ = ("name", "mtype", "param_names", "guard_text", "dim_killing", "summary", "build",
                 "samples", "ricci_rank", "killing_complete", "geodesically_complete", "notes")

    def __init__(self, name: str, mtype: str, param_names: tuple[str, ...], guard_text: str,
                 dim_killing: int, summary: str, build: Callable[[dict], tuple],
                 samples: tuple[tuple[float, ...], ...], ricci_rank: int | None,
                 killing_complete: bool,
                 geodesically_complete: bool | None | Callable[[dict], bool], notes: str = ""):
        self.name, self.mtype, self.param_names = name, mtype, param_names  # mtype "A", "B", "aux"
        self.guard_text, self.dim_killing, self.summary = guard_text, dim_killing, summary
        self.build, self.samples, self.ricci_rank = build, samples, ricci_rank
        self.killing_complete, self.geodesically_complete = killing_complete, geodesically_complete
        self.notes = notes

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


def dim3_b_basis(sigma: int) -> tuple[VectorFieldExpr, ...]:
    quad = vf(2 * x1 * x2, power(x2, 2) + sigma * power(x1, 2))
    return (quad, vf(x1, x2), D2)


# ---------------------------------------------------------------------------
# guards


def _check(cond: bool, family: str, text: str):
    if not cond:
        raise GuardError(f"{family}: {text} violated")


def _sign_guard(family: str, s: float):
    _check(s in (1.0, -1.0), family, "sign ∈ {+1, -1}")


# ---------------------------------------------------------------------------
# family builders, one per row (see Family.build)


def _map(f1, f2) -> PlaneMap:
    return PlaneMap(ex._as_expr(f1), ex._as_expr(f2))


def _flat(name: str, q) -> tuple[AffineMapEntry]:
    """A flat model's map into A.M06: its two non-constant QE solutions are
    affine coordinates."""
    return (AffineMapEntry(name, _map(*q[1:]), ref("A.M06")),)


def _build_A_M06(p):
    return (0, 0, 0, 0, 0, 0), (const(1), x1, x2), (), AFFINE_BASIS


def _build_A_M16(p):
    e1 = exp(x1)
    q = (const(1), e1, x2 * e1)
    return (1, 0, 0, 1, 0, 0), q, _flat("Theta16", q), None


def _build_A_M26(p):
    q = (const(1), exp(x2), exp(-x1))
    return (-1, 0, 0, 0, 0, 1), q, _flat("Theta26", q), None


def _build_A_M36(p):
    q = (const(1), x1, exp(x2))
    return (0, 0, 0, 0, 0, 1), q, _flat("Theta36", q), None


def _build_A_M46(p):
    q = (const(1), x2, power(x2, 2) + 2 * x1)
    return (0, 0, 0, 0, 1, 0), q, _flat("Theta46", q), None


def _build_A_M56(p):
    e1 = exp(x1)
    q = (const(1), e1 * cos(x2), e1 * sin(x2))
    return (1, 0, 0, 1, -1, 0), q, _flat("Theta56", q), None


def _build_A_M14(p):
    e2 = exp(x2)
    maps = (AffineMapEntry("Theta14", _map(exp(-x1), x2), ref("A.M44", c=0)),)
    return (-1, 0, 1, 0, 0, 2), (e2, x2 * e2, exp(-x1 + x2)), maps, None


def _build_A_M24(p):
    c = p["c"]
    _check(c not in (0.0, -1.0), "A.M24", "c ∉ {0, -1}")
    cc = const(c)
    q = (exp(cc * x2), exp((cc + 1) * x2), exp(cc * x2 - x1))
    maps = (AffineMapEntry("Theta24", _map(exp(-x1), x2), ref("A.M34", c=c)),)
    return (-1, 0, c, 0, 0, 1 + 2 * c), q, maps, None


def _build_A_M34(p):
    c = p["c"]
    _check(c not in (0.0, -1.0), "A.M34", "c ∉ {0, -1}")
    cc = const(c)
    q = (exp(cc * x2), exp((cc + 1) * x2), x1 * exp(cc * x2))
    killing = (D1, vf(x1, 0), vf(exp(x2), 0), vf(-cc * x1, 1))
    return (0, 0, c, 0, 0, 1 + 2 * c), q, (), killing


def _build_A_M44(p):
    c = p["c"]
    e2 = exp(x2)
    q = (e2, x2 * e2, (const(c) / 2 * power(x2, 2) + x1) * e2)
    maps = (AffineMapEntry("Theta44", _map(x1 + const(c) / 2 * power(x2, 2), x2),
                           ref("A.M44", c=0)),)
    killing = (D1, vf(x2, 0), vf(x1, 0), D2) if c == 0.0 else None
    return (0, 0, 1, 0, c, 2), q, maps, killing


def _build_A_M54(p):
    c = p["c"]
    ec = exp(const(c) * x2)
    q = (ec * cos(x2), ec * sin(x2), exp(x1))
    maps = (AffineMapEntry("Theta54", _map(exp(x1), x2), ref("A.M54t", c=c)),)
    return (1, 0, 0, 0, 1 + c * c, 2 * c), q, maps, None


def _build_A_M54t(p):
    c = p["c"]
    ec = exp(const(c) * x2)
    q = (ec * cos(x2), ec * sin(x2), x1)
    killing = (vf(x1, 0), vf(ec * cos(x2), 0), vf(ec * sin(x2), 0), D2)
    return (0, 0, 0, 0, 1 + c * c, 2 * c), q, (), killing


def _build_A_M12(p):
    a1, a2 = p["a1"], p["a2"]
    _check(a1 * a2 != 0.0, "A.M12", "a1*a2 ≠ 0")
    _check(a1 + a2 != 1.0, "A.M12", "a1+a2 ≠ 1")
    den = a1 + a2 - 1
    coeffs = ((a1 * a1 + a2 - 1) / den, (a1 * a1 - a1) / den, a1 * a2 / den,
              a1 * a2 / den, (a2 * a2 - a2) / den, (a1 + a2 * a2 - 1) / den)
    q = (exp(x1), exp(x2), exp(const(a1) * x1 + const(a2) * x2))
    return coeffs, q, (), DIM2_A_BASIS


def _build_A_M22(p):
    b1, b2 = p["b1"], p["b2"]
    _check(b1 != 1.0, "A.M22", "b1 ≠ 1")
    e1 = exp(x1)
    q = (e1 * cos(x2), e1 * sin(x2), exp(const(b1) * x1 + const(b2) * x2))
    return (1 + b1, 0, b2, 1, (1 + b2 * b2) / (b1 - 1), 0), q, (), DIM2_A_BASIS


def _build_A_M32(p):
    c = p["c"]
    _check(c != 0.0, "A.M32", "c ≠ 0")
    e1 = exp(x1)
    q = (e1, (x1 - const(c) * x2) * e1, exp(x1 + x2))
    return (2, 0, 0, 1, c, 1), q, (), DIM2_A_BASIS


def _build_A_M42(p):
    s = p["sign"]
    _sign_guard("A.M42", s)
    e1 = exp(x1)
    q = (e1, x2 * e1, (2 * x1 + const(s) * power(x2, 2)) * e1)
    return (2, 0, 0, 1, s, 0), q, (), DIM2_A_BASIS


def _build_B_N06(p):
    q = (const(1), x1, x2)
    return (0, 0, 0, 0, 0, 0), q, _flat("Psi06", q), None


def _build_B_N16(p):
    s = p["sign"]
    _sign_guard("B.N16", s)
    q = (const(1), x2, power(x1, 2) + const(s) * power(x2, 2))
    return (1, 0, 0, 0, s, 0), q, _flat("Psi16", q), None


def _build_B_N26(p):
    c = p["c"]
    _check(c != 0.0, "B.N26", "c ≠ 0")
    pw = power(x1, c) if not float(c).is_integer() else power(x1, F(int(c)))
    q = (const(1), pw, pw * x2)
    return (c - 1, 0, 0, c, 0, 0), q, _flat("Psi26", q), None


def _build_B_N36(p):
    inv = power(x1, -1)
    q = (const(1), inv, x2 * inv + log(x1))
    return (-2, 1, 0, -1, 0, 0), q, _flat("Psi36", q), None


def _build_B_N46(p):
    q = (const(1), x1, x2 + x1 * log(x1))
    return (0, 1, 0, 0, 0, 0), q, _flat("Psi46", q), None


def _build_B_N56(p):
    q = (const(1), log(x1), x2)
    return (-1, 0, 0, 0, 0, 0), q, _flat("Psi56", q), None


def _build_B_N66(p):
    c = p["c"]
    _check(c not in (0.0, -1.0), "B.N66", "c ∉ {0, -1}")
    e = 1 + c
    pw = power(x1, e) if not float(e).is_integer() else power(x1, F(int(e)))
    q = (const(1), pw, x2)
    return (c, 0, 0, 0, 0, 0), q, _flat("Psi66", q), None


def _build_B_N14(p):
    k = p["kappa"]
    _check(k not in (0.0, -1.0), "B.N14", "κ ∉ {0, -1}")
    pk = power(x1, k)
    q = (pk, power(x1, k + 1), pk * (x2 + x1 * log(x1)))
    maps = (AffineMapEntry("Psi14", _map(x2 + x1 * log(x1), log(x1)), ref("A.M34", c=k)),)
    return (2 * k, 1, 0, k, 0, 0), q, maps, None


def _build_B_N24(p):
    k, th = p["kappa"], p["theta"]
    _check(th != 0.0, "B.N24", "θ ≠ 0")
    _check(k not in (0.0, -th), "B.N24", "κ ∉ {0, -θ}")
    pk = power(x1, k)
    q = (pk, pk * x2, power(x1, k + th))
    maps = (AffineMapEntry("Psi24", _map(x2, const(th) * log(x1)), ref("A.M34", c=k / th)),)
    return (2 * k + th - 1, 0, 0, k, 0, 0), q, maps, None


def _build_B_N34(p):
    k = p["kappa"]
    _check(k != 0.0, "B.N34", "κ ≠ 0")
    pk = power(x1, k)
    q = (pk, pk * x2, pk * log(x1))
    maps = (AffineMapEntry("Psi34", _map(x2, const(k) * log(x1)), ref("A.M44", c=0)),)
    return (2 * k - 1, 0, 0, k, 0, 0), q, maps, None


def _build_B_N13(p):
    s = p["sign"]
    _sign_guard("B.N13", s)
    return (-1.5, 0, 0, -0.5, -0.5 * s, 0), (), (), dim3_b_basis(0)


def _build_B_N23(p):
    return (-1.5, 0, 1, -0.5, p["c"], 2), (), (), dim3_b_basis(0)


def _build_B_N33(p):
    inv = power(x1, -1)
    q = (inv, x2 * inv, (power(x2, 2) - power(x1, 2)) * inv)
    return (-1, 0, 0, -1, -1, 0), q, (), dim3_b_basis(1)


def _build_B_N43(p):
    inv = power(x1, -1)
    q = (inv, x2 * inv, (power(x2, 2) + power(x1, 2)) * inv)
    return (-1, 0, 0, -1, 1, 0), q, (), dim3_b_basis(-1)


# ---------------------------------------------------------------------------
# the atlas: one row per family

_KINDS = {"A": "constant", "B": "inverse-x1", "aux": "linear-x1"}
_NO_PARAMS = ((),)
_C_SAMPLES = ((-2.0,), (-0.5,), (1 / 3,), (2.0,))
_SIGN_SAMPLES = ((1.0,), (-1.0,))
_PAIR_SAMPLES = ((2.0, 3.0), (-1.0, 3.0), (0.5, 0.25))

# name, type, params, guard, Killing dimension, summary,
# builder, samples, Ricci rank, Killing complete, geodesically complete[, notes]
FAMILIES: dict[str, Family] = {f.name: f for f in (
    Family("A.M06", "A", (), "", 6, "flat plane", _build_A_M06, _NO_PARAMS, 0, True, True),
    Family("A.M16", "A", (), "", 6, "flat, exponential chart",
           _build_A_M16, _NO_PARAMS, 0, False, False),
    Family("A.M26", "A", (), "", 6, "flat, quadrant chart",
           _build_A_M26, _NO_PARAMS, 0, False, False),
    Family("A.M36", "A", (), "", 6, "flat, half-plane chart",
           _build_A_M36, _NO_PARAMS, 0, False, False),
    Family("A.M46", "A", (), "", 6, "flat, parabolic chart",
           _build_A_M46, _NO_PARAMS, 0, True, True),
    Family("A.M56", "A", (), "", 6, "flat, punctured-plane chart",
           _build_A_M56, _NO_PARAMS, 0, False, False,
           "geodesics with nonzero second velocity component leave the arctan branch of "
           "the chart formula; only chart-level existence is reported for them."),
    Family("A.M14", "A", (), "", 4, "rank-1 Ricci", _build_A_M14, _NO_PARAMS, 1, False, False),
    Family("A.M24", "A", ("c",), "c ∉ {0, -1}", 4, "rank-1 Ricci, one parameter",
           _build_A_M24, _C_SAMPLES, 1, False, False),
    Family("A.M34", "A", ("c",), "c ∉ {0, -1}", 4, "rank-1 Ricci, Killing complete",
           _build_A_M34, _C_SAMPLES, 1, True, lambda p: p["c"] == -0.5),
    Family("A.M44", "A", ("c",), "", 4, "rank-1 Ricci, Killing complete",
           _build_A_M44, _C_SAMPLES, 1, True, False),
    Family("A.M54", "A", ("c",), "", 4, "rank-1 Ricci, oscillatory basis",
           _build_A_M54, _C_SAMPLES, 1, False, False),
    Family("A.M54t", "aux", ("c",), "", 4, "auxiliary completion of A.M54",
           _build_A_M54t, _C_SAMPLES + ((0.0,),), 1, True, lambda p: p["c"] == 0.0),
    Family("A.M12", "A", ("a1", "a2"), "a1*a2 ≠ 0 and a1+a2 ≠ 1", 2, "rank-2 Ricci",
           _build_A_M12, _PAIR_SAMPLES, 2, True, False),
    Family("A.M22", "A", ("b1", "b2"), "b1 ≠ 1", 2, "rank-2 Ricci, oscillatory",
           _build_A_M22, ((-1.0, 2.0), (2.0, 3.0), (0.5, 0.25)), 2, True,
           lambda p: p["b1"] == -1.0),
    Family("A.M32", "A", ("c",), "c ≠ 0", 2, "rank-2 Ricci",
           _build_A_M32, _C_SAMPLES, 2, True, False),
    Family("A.M42", "A", ("sign",), "sign ∈ {+1, -1}", 2, "rank-2 Ricci",
           _build_A_M42, _SIGN_SAMPLES, 2, True, False),
    Family("B.N06", "B", (), "", 6, "flat half-plane",
           _build_B_N06, _NO_PARAMS, 0, False, None,
           "killing_complete is False by direct construction: the constant field d/dx1 "
           "is affine Killing here and its flow meets the x1 = 0 edge in finite time.  "
           "Summary classification tables sometimes list this flat model as complete; "
           "the flow witness decides."),
    Family("B.N16", "B", ("sign",), "sign ∈ {+1, -1}", 6, "flat, parabolic chart",
           _build_B_N16, _SIGN_SAMPLES, 0, False, None),
    Family("B.N26", "B", ("c",), "c ≠ 0", 6, "flat, power chart",
           _build_B_N26, _C_SAMPLES, 0, False, None),
    Family("B.N36", "B", (), "", 6, "flat, inversion chart",
           _build_B_N36, _NO_PARAMS, 0, False, None),
    Family("B.N46", "B", (), "", 6, "flat, log-shear chart",
           _build_B_N46, _NO_PARAMS, 0, False, None),
    Family("B.N56", "B", (), "", 6, "flat, log chart (complete)",
           _build_B_N56, _NO_PARAMS, 0, True, None),
    Family("B.N66", "B", ("c",), "c ∉ {0, -1}", 6, "flat, power chart",
           _build_B_N66, _C_SAMPLES, 0, False, None),
    Family("B.N14", "B", ("kappa",), "κ ∉ {0, -1}", 4, "isomorphic to A.M34",
           _build_B_N14, _C_SAMPLES, None, True, None),
    Family("B.N24", "B", ("kappa", "theta"), "κ ∉ {0, -θ} and θ ≠ 0", 4,
           "isomorphic to A.M34", _build_B_N24, _PAIR_SAMPLES, None, True, None),
    Family("B.N34", "B", ("kappa",), "κ ≠ 0", 4, "isomorphic to A.M44(0)",
           _build_B_N34, _C_SAMPLES, None, True, None),
    Family("B.N13", "B", ("sign",), "sign ∈ {+1, -1}", 3, "trivial solution space",
           _build_B_N13, _SIGN_SAMPLES, None, False, None),
    Family("B.N23", "B", ("c",), "", 3, "trivial solution space",
           _build_B_N23, _C_SAMPLES, None, False, None),
    Family("B.N33", "B", (), "", 3, "Lorentzian-hyperbolic plane",
           _build_B_N33, _NO_PARAMS, None, False, None),
    Family("B.N43", "B", (), "", 3, "hyperbolic plane",
           _build_B_N43, _NO_PARAMS, None, True, None),
)}


# ---------------------------------------------------------------------------
# instantiation


def instantiate(family: str, **params) -> ModelRecord:
    """Build the full record for one model; raises GuardError when the
    family guards are violated (the message names the guard)."""
    return instantiate_ref(ref(family, **params))


def instantiate_ref(mref: ModelRef) -> ModelRecord:
    fam = family_named(mref.family)
    coeffs, q_basis, maps, killing = fam.build(mref.p)
    spec = ChristoffelSpec(coeffs, _KINDS[fam.mtype])
    if killing is None:
        target = instantiate_ref(maps[0].target)
        killing = pullback_fields(maps[0].plane_map, target.killing_basis)
    gc = fam.geodesically_complete
    expected = ExpectedFlags(fam.dim_killing, fam.ricci_rank, fam.killing_complete,
                             gc(mref.p) if callable(gc) else gc)
    base = (1.0, 0.0) if fam.mtype == "B" else (0.0, 0.0)
    return ModelRecord(mref, spec, q_basis, killing, expected, maps, base, fam.notes)


# ---------------------------------------------------------------------------
# standard parameter samples and grids (used by sweeps and acceptance tests)


def standard_samples(family: str) -> tuple[dict, ...]:
    fam = family_named(family)
    return tuple(dict(zip(fam.param_names, values)) for values in fam.samples)


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
    if token not in FAMILIES:
        for suffix, value in (("plus", 1.0), ("minus", -1.0), ("p", 1.0), ("m", -1.0)):
            base = token[: -len(suffix)]
            if token.endswith(suffix) and base in FAMILIES and "sign" in FAMILIES[base].param_names:
                return base, {"sign": value}
    return family_named(token).name, {}
