"""Strong projective deformation, flattening, map verification.

Two connections are strongly projectively equivalent when they differ by
del~_X Y = del_X Y + dphi(X) Y + dphi(Y) X for a scalar phi.  For constant
Christoffel symbols and linear phi = a1 x1 + a2 x2 the deformation stays in
the constant class:

    G~_ij^k = G_ij^k +- (delta_i^k a_j + delta_j^k a_i).

Every constant-symbol model flattens: a linear phi exists whose minus
deformation has vanishing Ricci (hence vanishing curvature), and one of
e^{+phi}, e^{-phi} solves the quasi-Einstein equation of the original
model.  The construction works in a rescaled chart where G_11^2 = 1 and
reduces to one quadratic substitution plus a real root of a monic cubic;
the root of smallest magnitude is chosen (ties toward the negative), a
triple root is read from the cubic's derivatives, and the rescaling is
inverted before phi is reported.  The flat connection is constant, so its
Ricci and curvature are evaluated once per check, not once per grid point.

Affine maps between catalog models are verified by pulling the target
connection back through the map and comparing against the source symbols
on a grid.  With J^a_i = d_i Phi^a, det = J^1_1 J^2_2 - J^1_2 J^2_1 and
J^-1 = ((J^2_2, -J^1_2), (-J^2_1, J^1_1)) / det entry by entry, the target
symbols G~ pull back to

    G^pull_ij^k = (J^-1)^k_1 u^1_ij + (J^-1)^k_2 u^2_ij,
    u^c_ij = d_i d_j Phi^c + (0.0 + (G~_11^c J^1_i) J^1_j + (G~_12^c J^1_i) J^2_j
                                  + (G~_21^c J^2_i) J^1_j + (G~_22^c J^2_i) J^2_j),

with G~ read at Phi(p): the sum over (a, b) runs (a, b)-major from 0.0.
A map is rejected as not immersive where |det| < 1e-14.  A map check
compiles the joint 2-jet of the map's two components once, and
`pullback_connection`, this formula as straight-line float code, reads it
and the target's `symbols_at` at every point.  The source's symbols come
through `over_grid`, so a constant source is evaluated once per check.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .catalog import AffineMapEntry, ModelRecord, instantiate_ref
from .connection import ChristoffelSpec, curvature, max_abs, over_grid, ricci
from .expr import Data, Point, ScalarExpr, compile_jet
from .qe import RESIDUAL_TOL, max_residual

FLAT_TOL = 1e-10
MAP_TOL = 1e-8


class LinearForm(Data):
    """phi(x) = a1*x1 + a2*x2."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1: float, a2: float):
        self.a1, self.a2 = a1, a2

    def expr(self) -> ScalarExpr:
        return ex.add(ex.mul(ex.const(self.a1), ex.x1), ex.mul(ex.const(self.a2), ex.x2))


def deform(spec: ChristoffelSpec, phi: LinearForm, sign: int) -> ChristoffelSpec:
    """Strong projective deformation of a constant-symbol connection by a
    linear form; sign +1 adds the rank-one correction, -1 removes it.
    deform(deform(s, phi, +1), phi, -1) is s exactly."""
    if spec.kind != "constant":
        raise ValueError("deform requires a constant-symbol connection")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a1, a2 = phi.a1, phi.a2
    a, b, c, d, e, f = spec.coeffs
    s = float(sign)
    return ChristoffelSpec((a + s * 2 * a1, b, c + s * a2, d + s * a1, e, f + s * 2 * a2),
                           "constant")


# ---------------------------------------------------------------------------
# flattening


def _swap_coeffs(coeffs):
    a, b, c, d, e, f = coeffs
    return (f, e, d, c, b, a)


def _rescale_x2(coeffs, lam: float):
    """Symbols in the chart (x1, lam*x2)."""
    a, b, c, d, e, f = coeffs
    return (a, lam * b, c / lam, d, e / (lam * lam), f / lam)


def _branch1(coeffs):
    """Flattening coefficients for G_11^2 = 1: solve the 11-component for
    a2, then pick a real root a1 of the monic cubic 12-component."""
    a, b, c, d, e, f = coeffs
    # rho~_12(a1) = -e + (a1 - d) * (a1^2 - a*a1 + q0),  q0 = a*d - 2c - d^2 + f
    q0 = a * d - 2 * c - d * d + f
    cubic = np.array([1.0, -(d + a), q0 + a * d, -d * q0 - e])
    # np.roots is off by about eps^(1/3) at a triple root: take the root of
    # c'' when c and c' evaluate to 0.0 there
    triple = (d + a) / 3
    zero = np.polyval(cubic, triple) == np.polyval(np.polyder(cubic), triple) == 0.0
    roots = [triple] if zero else np.roots(cubic)
    real = sorted((r.real for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r))),
                  key=lambda v: (abs(v), v))
    if not real:  # a monic real cubic always has a real root
        raise RuntimeError("no real root found for the flattening cubic")
    a1 = float(real[0])
    a2 = a1 * a1 - a1 * a - c + a * d - d * d + f
    return a1, a2


def flatten(spec: ChristoffelSpec):
    """A linear form phi and the flat spec deform(spec, phi, -1).

    Postconditions (checked by the callers and the report): the deformed
    Ricci and curvature vanish to 1e-10 and one of e^{+phi}, e^{-phi} has
    quasi-Einstein residual at most 1e-8 for the original connection."""
    if spec.kind != "constant":
        raise ValueError("flattening is defined for constant-symbol connections")
    a, b, c, d, e, f = spec.coeffs
    if b != 0.0:
        lam = 1.0 / b
        a1, a2r = _branch1(_rescale_x2(spec.coeffs, lam))
        phi = LinearForm(a1, a2r * lam)
    elif e != 0.0:
        sw = _swap_coeffs(spec.coeffs)
        lam = 1.0 / sw[1]
        a1s, a2s = _branch1(_rescale_x2(sw, lam))
        phi = LinearForm(a2s * lam, a1s)
    else:
        phi = LinearForm(d, c)
    return phi, deform(spec, phi, -1)


class FlattenReport(Data):
    __slots__ = ("model", "phi", "rho_tilde_max", "curvature_tilde_max", "qe_sign", "qe_residual")

    def __init__(self, model: str, phi: LinearForm, rho_tilde_max: float,
                 curvature_tilde_max: float, qe_sign: int, qe_residual: float):
        self.model, self.phi, self.rho_tilde_max = model, phi, rho_tilde_max
        self.curvature_tilde_max = curvature_tilde_max
        self.qe_sign = qe_sign  # sign s with residual(e^{s*phi}) minimal
        self.qe_residual = qe_residual

    @property
    def passed(self) -> bool:
        return (self.rho_tilde_max <= FLAT_TOL and self.curvature_tilde_max <= FLAT_TOL
                and self.qe_residual <= RESIDUAL_TOL)

    def to_json(self):
        return {"model": self.model, "phi": [self.phi.a1, self.phi.a2],
                "rho_tilde_max": self.rho_tilde_max,
                "curvature_tilde_max": self.curvature_tilde_max,
                "qe_sign": "+" if self.qe_sign > 0 else "-",
                "qe_residual": self.qe_residual, "pass": self.passed}


def flatten_report(record: ModelRecord, grid) -> FlattenReport:
    phi, flat = flatten(record.spec)

    def flat_data(p):
        sym = flat.symbols_at(p)
        return ricci(sym), curvature(sym)
    flat_rows = over_grid(flat, grid, flat_data)
    rho_max = max_abs(v for rho, _ in flat_rows for v in rho)
    curv_max = max_abs(v for _, curv in flat_rows for v in curv)
    plus, minus = max_residual(record.spec, (ex.exp(phi.expr()),
                                             ex.exp(ex.mul(ex.const(-1), phi.expr()))), grid)
    sign = 1 if plus <= minus else -1
    return FlattenReport(record.ref.label(), phi, rho_max, curv_max, sign,
                         plus if sign > 0 else minus)


# ---------------------------------------------------------------------------
# pullback verification of catalog maps


def pullback_connection(jet, target: ChristoffelSpec, p: Point):
    """G^pull_ij^k for (i, j) = (1, 1), (1, 2), (2, 2) and k = 1, 2 at p, by
    the formula of the module docstring, in its order of operations: the
    map's values and derivatives come from jet, the joint compiled 2-jet
    of its components (`compile_jet(f1, f2)`), and G~ from the target's
    `symbols_at` at the image point."""
    v1, j11, j12, h111, h112, h122, v2, j21, j22, h211, h212, h222 = jet(*p)
    det = j11 * j22 - j12 * j21
    if abs(det) < 1e-14:
        raise ValueError(f"map is not immersive at {p}")
    i11, i12, i21, i22 = j22 / det, -j12 / det, -j21 / det, j11 / det
    (((g111, g112), (g121, g122)), ((g211, g212), (g221, g222))), _ = target.symbols_at((v1, v2))
    # u{c}{i}{j} = d_i d_j Phi^c + sum over (a, b) of (G~_ab^c J^a_i) J^b_j
    u111 = h111 + (0.0 + (g111 * j11) * j11 + (g121 * j11) * j21 + (g211 * j21) * j11 + (g221 * j21) * j21)
    u211 = h211 + (0.0 + (g112 * j11) * j11 + (g122 * j11) * j21 + (g212 * j21) * j11 + (g222 * j21) * j21)
    u112 = h112 + (0.0 + (g111 * j11) * j12 + (g121 * j11) * j22 + (g211 * j21) * j12 + (g221 * j21) * j22)
    u212 = h212 + (0.0 + (g112 * j11) * j12 + (g122 * j11) * j22 + (g212 * j21) * j12 + (g222 * j21) * j22)
    u122 = h122 + (0.0 + (g111 * j12) * j12 + (g121 * j12) * j22 + (g211 * j22) * j12 + (g221 * j22) * j22)
    u222 = h222 + (0.0 + (g112 * j12) * j12 + (g122 * j12) * j22 + (g212 * j22) * j12 + (g222 * j22) * j22)
    return (i11 * u111 + i12 * u211, i21 * u111 + i22 * u211,
            i11 * u112 + i12 * u212, i21 * u112 + i22 * u212,
            i11 * u122 + i12 * u222, i21 * u122 + i22 * u222)


class MapReport(Data):
    __slots__ = ("model", "name", "target", "max_deviation")

    def __init__(self, model: str, name: str, target: str, max_deviation: float):
        self.model, self.name, self.target, self.max_deviation = model, name, target, max_deviation

    @property
    def passed(self) -> bool:
        return self.max_deviation <= MAP_TOL

    def to_json(self):
        return {"model": self.model, "map": self.name, "target": self.target,
                "max_deviation": self.max_deviation, "pass": self.passed}


def verify_map_entry(record: ModelRecord, entry: AffineMapEntry, grid) -> MapReport:
    target = instantiate_ref(entry.target)
    pm = entry.plane_map
    jet = compile_jet(pm.f1, pm.f2)
    rows = zip(grid, over_grid(record.spec, grid, record.spec.symbols_at))
    worst = max_abs(u - v for p, (G, _) in rows
                    for u, v in zip(pullback_connection(jet, target.spec, p),
                                    (*G[0][0], *G[0][1], *G[1][1])))
    return MapReport(record.ref.label(), entry.name, entry.target.label(), worst)


def verify_affine_maps(record: ModelRecord, grid) -> list[MapReport]:
    return [verify_map_entry(record, entry, grid) for entry in record.maps]
