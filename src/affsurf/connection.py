"""Torsion-free connections on the plane and the half-plane.

A connection is specified by six Christoffel coefficients (a, b, c, d, e, f)
keyed as

    G_11^1 = a,  G_11^2 = b,  G_12^1 = G_21^1 = c,
    G_12^2 = G_21^2 = d,  G_22^1 = e,  G_22^2 = f,

together with a scaling kind:

    "constant"    the six numbers themselves, on all of R^2;
    "inverse-x1"  the six numbers divided by x1, on the half-plane x1 > 0;
    "linear-x1"   G_22^1 = e * x1, all others constant, on all of R^2
                  (the auxiliary surface that completes the A.M54 family).

Torsion freeness is built into the storage (the two mixed symbols share one
slot).  Curvature and Ricci are evaluated exactly: derivatives of the
symbols are analytic in the kind, never finite differences.  They are plain
float arithmetic in the order a summed loop adds them,

    R_ijk^l = ((d_i G_jk^l - d_j G_ik^l) + (G_i0^l G_jk^0 - G_j0^l G_ik^0))
              + (G_i1^l G_jk^1 - G_j1^l G_ik^1),

rho_jk = 0.0 + R_0jk^0 + R_1jk^1 and rho_s_jk = 0.5 * (rho_jk + rho_kj).
`curvature`, `ricci` and `ricci_sym` read the symbols (G, dG) of one point
as `symbols_at` gives them, so a check that needs several of them at a point
evaluates the symbols there once.

A constant spec has the same symbols, curvature and Ricci tensor at every
point.  `over_grid` is the one place that uses this: a check that needs
per-point connection data over a grid evaluates it there, once for a
constant spec and once per point for the other kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import DomainError, Point

Coeffs = tuple[float, float, float, float, float, float]

KINDS = ("constant", "inverse-x1", "linear-x1")


@dataclass(frozen=True)
class ChristoffelSpec:
    coeffs: Coeffs
    kind: str = "constant"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(float(v) for v in self.coeffs))

    def check_point(self, p: Point):
        if self.kind == "inverse-x1" and p[0] <= 0.0:
            raise DomainError(f"x1 must be positive for an inverse-x1 connection, got {p[0]}")

    def christoffel_at(self, p: Point) -> Coeffs:
        """The six symbol values at a point, in (a, b, c, d, e, f) order."""
        self.check_point(p)
        a, b, c, d, e, f = self.coeffs
        if self.kind == "constant":
            return a, b, c, d, e, f
        if self.kind == "inverse-x1":
            u = p[0]
            return a / u, b / u, c / u, d / u, e / u, f / u
        return a, b, c, d, e * p[0], f

    def dchristoffel_at(self, p: Point) -> tuple[Coeffs, Coeffs]:
        """Exact (d/dx1, d/dx2) of the six symbols at a point."""
        self.check_point(p)
        zero = (0.0,) * 6
        if self.kind == "constant":
            return zero, zero
        if self.kind == "inverse-x1":
            u2 = p[0] * p[0]
            return tuple(-v / u2 for v in self.coeffs), zero
        d1 = (0.0, 0.0, 0.0, 0.0, self.coeffs[4], 0.0)
        return d1, zero

    def symbols_at(self, p: Point):
        """(G, dG) in index form, as nested tuples of floats:
        G[i][j][k] = Gamma_ij^k and dG[m][i][j][k] = d_m Gamma_ij^k."""
        return (_index_form(self.christoffel_at(p)),
                tuple(_index_form(d) for d in self.dchristoffel_at(p)))

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs), "kind": self.kind}


def over_grid(spec: ChristoffelSpec, grid, fn) -> list:
    """[fn(p) for p in grid], where fn(p) is connection data of spec at p
    (symbols, curvature, Ricci): for a constant spec fn runs once, at the
    first point, and its value stands for every point."""
    if spec.kind == "constant" and len(grid):
        return [fn(grid[0])] * len(grid)
    return [fn(p) for p in grid]


def _index_form(six: Coeffs):
    """(a, b, c, d, e, f) as nested tuples T[i][j][k] for Gamma_ij^k."""
    a, b, c, d, e, f = six
    return (((a, b), (c, d)), ((c, d), (e, f)))


def max_abs(values) -> float:
    """Largest absolute value (0.0 for none), NaN as soon as one value is
    NaN.  The builtin max drops NaN (max(0.0, nan) is 0.0), which would let a
    NaN residual pass a tolerance check."""
    worst = 0.0
    for v in values:
        a = abs(v)
        if a > worst:
            worst = a
        elif a != a:
            return math.nan
    return float(worst)


def _component(G, dG, i: int, j: int, k: int, l: int) -> float:
    """R_ijk^l from G[i][j][k] = Gamma_ij^k and dG[m][i][j][k] = d_m Gamma_ij^k."""
    return (((dG[i][j][k][l] - dG[j][i][k][l])
             + (G[i][0][l] * G[j][k][0] - G[j][0][l] * G[i][k][0]))
            + (G[i][1][l] * G[j][k][1] - G[j][1][l] * G[i][k][1]))


def _ricci(G, dG, j: int, k: int) -> float:
    return 0.0 + _component(G, dG, 0, j, k, 0) + _component(G, dG, 1, j, k, 1)


def curvature(symbols) -> tuple[float, ...]:
    """The 16 components R_ijk^l, R(d_i, d_j) d_k = R_ijk^l d_l, (i, j, k, l)-major,
    of the symbols (G, dG) that `symbols_at` gives at a point."""
    G, dG = symbols
    return tuple(_component(G, dG, i, j, k, l)
                 for i in (0, 1) for j in (0, 1) for k in (0, 1) for l in (0, 1))


def curvature_at(spec: ChristoffelSpec, p: Point) -> np.ndarray:
    return np.reshape(curvature(spec.symbols_at(p)), (2, 2, 2, 2))


def ricci(symbols) -> tuple[float, float, float, float]:
    """(rho_11, rho_12, rho_21, rho_22), rho(d_j, d_k) = trace of z -> R(z, d_j) d_k,
    of the symbols (G, dG) that `symbols_at` gives at a point."""
    G, dG = symbols
    return _ricci(G, dG, 0, 0), _ricci(G, dG, 0, 1), _ricci(G, dG, 1, 0), _ricci(G, dG, 1, 1)


def ricci_sym(symbols) -> tuple[float, float, float]:
    """(rho_s11, rho_s12, rho_s22) of the symmetrized Ricci tensor of the
    symbols (G, dG) that `symbols_at` gives at a point."""
    r11, r12, r21, r22 = ricci(symbols)
    return 0.5 * (r11 + r11), 0.5 * (r12 + r21), 0.5 * (r22 + r22)
