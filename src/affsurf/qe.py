"""Quasi-Einstein machinery.

For a connection spec and a scalar phi the affine Hessian is

    (H phi)_ij = d_i d_j phi - G_ij^k d_k phi,

and phi solves the quasi-Einstein equation when H phi + phi * rho_s = 0,
rho_s being the symmetrized Ricci tensor.  The catalog stores a three-element
solution basis for every model whose solution space is nontrivial; this
module verifies those bases on sample grids and computes the point-evaluation
matrix whose nonzero determinant certifies that the basis is independent and
the solution space is fully three-dimensional.  A check reads the symbols and
rho_s of its grid from `point_rows`, which evaluates them once per point, or
once for the whole grid when the symbols are constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ModelRecord, sample_grid
from .connection import ChristoffelSpec, max_abs, over_grid, ricci_sym
from .expr import Point, ScalarExpr, compile_jet

DEFAULT_TOL = 1e-8


def point_rows(spec: ChristoffelSpec, grid) -> list:
    """One row (p, symbols, rho_s) per grid point: the six symbols and the
    symmetrized Ricci tensor `ricci_sym`, both from one `symbols_at`,
    computed once for every scalar a check tests on the grid (once for the
    whole grid when the spec is constant, see `over_grid`)."""
    def data(p):
        sym = spec.symbols_at(p)
        (((a, b), (c, d)), (_, (e, f))), _ = sym
        return (a, b, c, d, e, f), ricci_sym(spec, p, sym)
    return [(p, six, rho) for p, (six, rho) in zip(grid, over_grid(spec, grid, data))]


def max_residual(spec: ChristoffelSpec, phi: ScalarExpr, grid, rows=None) -> float:
    """Max-norm quasi-Einstein residual of phi over a grid; NaN when any
    entry is NaN.  The entries are H_ij + phi * rho_s_ij with the Hessian
    (H phi)_ij = d_i d_j phi - G_ij^k d_k phi read from the 2-jet of phi;
    rows, when given, is `point_rows(spec, grid)`."""
    jet = compile_jet(phi)

    def entries():
        for p, (a, b, c, d, e, f), (r11, r12, r22) in (
                point_rows(spec, grid) if rows is None else rows):
            val, g1, g2, f11, f12, f22 = jet(*p)
            yield (f11 - (a * g1 + b * g2)) + val * r11
            yield (f12 - (c * g1 + d * g2)) + val * r12
            yield (f22 - (e * g1 + f * g2)) + val * r22
    return max_abs(entries())


@dataclass(frozen=True)
class QEReport:
    model: str
    grid_shape: tuple[int, int]
    residuals: tuple[float, ...]  # per basis element, max over the grid
    xi_det: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "grid": {"shape": list(self.grid_shape)},
            "residuals": list(self.residuals),
            "xi_det": self.xi_det,
            "tol": self.tol,
            "pass": self.passed,
        }


def verify_q_basis(record: ModelRecord, grid=None) -> QEReport:
    """Max residual of every catalog basis element over the standard grid,
    plus the determinant of the point-evaluation matrix at the base point."""
    if not record.q_basis:
        raise ValueError(f"{record.ref.label()} has a trivial solution space")
    pts = grid if grid is not None else sample_grid(record)
    n = int(round(len(pts) ** 0.5))
    rows = point_rows(record.spec, pts)
    residuals = tuple(max_residual(record.spec, q, pts, rows) for q in record.q_basis)
    _, det = xi_matrix(record.q_basis, record.base_point)
    return QEReport(record.ref.label(), (n, n), residuals, det, DEFAULT_TOL)


def xi_matrix(q_basis, p: Point):
    """Rows (phi, d1 phi, d2 phi)(p) for each basis element, and the
    determinant.  A nonzero determinant certifies independence and that the
    solution space attains its maximal dimension three."""
    m = np.array([compile_jet(phi)(*p)[:3] for phi in q_basis])
    det = float(np.linalg.det(m)) if m.shape == (3, 3) else 0.0
    return m, det
