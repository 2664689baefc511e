"""Quasi-Einstein machinery.

For a connection spec and a scalar phi the affine Hessian is

    (H phi)_ij = d_i d_j phi - G_ij^k d_k phi,

and phi solves the quasi-Einstein equation when H phi + phi * rho_s = 0,
rho_s being the symmetrized Ricci tensor.  The catalog stores a three-element
solution basis for every model whose solution space is nontrivial; this
module verifies those bases on sample grids and computes the point-evaluation
matrix whose nonzero determinant certifies that the basis is independent and
the solution space is fully three-dimensional.  `max_residual` checks all of
a check's scalars on one grid: it evaluates the symbols and rho_s once per
grid point for all of them, or once for the whole grid when the symbols are
constant.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .catalog import ModelRecord
from .connection import ChristoffelSpec, _max_abs_kernel, over_grid, ricci_sym
from .expr import Data, Point, ScalarExpr, compile_jet

RESIDUAL_TOL = 1e-8
#: a basis is independent when its |xi_det| is above this
XI_DET_FLOOR = 1e-12


def max_residual(spec: ChristoffelSpec, phis: tuple[ScalarExpr, ...], grid) -> tuple[float, ...]:
    """Max-norm quasi-Einstein residual over a grid of each scalar in phis;
    NaN when any entry is NaN.  The entries are H_ij + phi * rho_s_ij with
    the Hessian (H phi)_ij = d_i d_j phi - G_ij^k d_k phi read from the
    2-jet of phi.  The symbols and rho_s of a grid point come from one
    `symbols_at` and serve every scalar (one evaluation for the whole grid
    when the spec is constant, see `over_grid`)."""
    def data(p):
        sym = spec.symbols_at(p)
        return sym[0], ricci_sym(sym)
    rows = list(zip(grid, over_grid(spec, grid, data)))
    kernel = _residual_kernel()
    return tuple(kernel(compile_jet(phi), rows) for phi in phis)


@lru_cache(maxsize=None)
def _residual_kernel():
    """`(jet, rows) -> residual`: the largest entry of H phi + phi * rho_s of
    the scalar with compiled 2-jet jet over rows (p, (G, rho_s))."""
    return _max_abs_kernel(
        ("_jet",), "_p, ((((a, b), (c, d)), (_, (e, f))), (r11, r12, r22))",
        ["val, g1, g2, f11, f12, f22 = _jet(*_p)"],
        ["(f11 - (a * g1 + b * g2)) + val * r11", "(f12 - (c * g1 + d * g2)) + val * r12",
         "(f22 - (e * g1 + f * g2)) + val * r22"])


class QEReport(Data):
    __slots__ = ("model", "grid_shape", "residuals", "xi_det")

    def __init__(self, model: str, grid_shape: tuple[int, int], residuals: tuple[float, ...],
                 xi_det: float):  # residuals: per basis element, max over the grid
        self.model, self.grid_shape = model, grid_shape
        self.residuals, self.xi_det = residuals, xi_det

    @property
    def passed(self) -> bool:
        return all(r <= RESIDUAL_TOL for r in self.residuals) and abs(self.xi_det) > XI_DET_FLOOR

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "grid": {"shape": list(self.grid_shape)},
            "residuals": list(self.residuals),
            "xi_det": self.xi_det,
            "tol": RESIDUAL_TOL,
            "pass": self.passed,
        }


def verify_q_basis(record: ModelRecord, grid) -> QEReport:
    """Max residual of every catalog basis element over the grid, plus the
    determinant of the point-evaluation matrix at the base point."""
    if not record.q_basis:
        raise ValueError(f"{record.ref.label()} has a trivial solution space")
    n = int(round(len(grid) ** 0.5))
    residuals = max_residual(record.spec, record.q_basis, grid)
    _, det = xi_matrix(record.q_basis, record.base_point)
    return QEReport(record.ref.label(), (n, n), residuals, det)


def xi_matrix(q_basis, p: Point):
    """Rows (phi, d1 phi, d2 phi)(p) for each basis element, and the
    determinant.  A nonzero determinant certifies independence and that the
    solution space attains its maximal dimension three."""
    m = np.array([compile_jet(phi)(*p)[:3] for phi in q_basis])
    det = float(np.linalg.det(m)) if m.shape == (3, 3) else 0.0
    return m, det
