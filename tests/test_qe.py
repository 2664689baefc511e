"""Quasi-Einstein machinery: Hessian, residuals, basis reports, Xi matrix."""

import math

import numpy as np
import pytest

from affsurf import catalog as C
from affsurf import expr as ex
from affsurf import qe
from affsurf.projective import LinearForm, deform
from test_connection import ricci_sym_at


@pytest.fixture(scope="module")
def records():
    return C.all_records()


def mutation_direction(record, grid):
    """A perturbation direction that provably leaves the solution span:
    x1 when x1 is not itself a solution for this model, else x1*x2."""
    cand = ex.x1
    if qe.max_residual(record.spec, cand, grid) <= 1e-3:
        cand = ex.mul(ex.x1, ex.x2)
    return cand


def hessian(spec, phi, p):
    """(H phi)_ij at a point."""
    _, h11, h12, h22 = qe._hessian_kernel(spec, phi)(p)
    return np.array([[h11, h12], [h12, h22]])


def qe_residual(spec, phi, p):
    """H phi + phi * rho_s at a point; zero exactly on solutions."""
    return hessian(spec, phi, p) + ex.compile_jet(phi)(*p)[0] * ricci_sym_at(spec, p)


class TestHessian:
    def test_parabolic_chart_solution(self):
        rec = C.instantiate("A.M46")
        phi = ex.parse_expr("x2^2 + 2*x1")
        for p in [(0.0, 0.0), (0.7, -0.4)]:
            assert np.allclose(hessian(rec.spec, phi, p), 0, atol=1e-14)

    def test_linear_on_flat(self):
        rec = C.instantiate("A.M06")
        assert np.allclose(hessian(rec.spec, ex.x1, (0.3, 0.5)), 0)

    def test_exponential_solution(self):
        rec = C.instantiate("A.M16")
        phi = ex.exp(ex.x1)
        for p in [(0.0, 0.0), (-0.5, 0.9)]:
            assert np.allclose(hessian(rec.spec, phi, p), 0, atol=1e-12)


class TestResidual:
    def test_rank_one_family_solution(self):
        rec = C.instantiate("A.M34", c=1 / 3)
        phi = ex.exp(ex.mul(ex.const(1 / 3), ex.x2))
        grid = C.sample_grid(rec)
        assert qe.max_residual(rec.spec, phi, grid) <= 1e-8

    def test_hyperbolic_solution(self):
        rec = C.instantiate("B.N43")
        phi = ex.div(ex.x2, ex.x1)
        grid = C.sample_grid(rec)
        assert qe.max_residual(rec.spec, phi, grid) <= 1e-8

    def test_nan_residual_fails_closed(self):
        # inf - inf = NaN at the five grid points with x1 = 1; the builtin
        # max would drop those and report a denormal
        rec = C.instantiate("A.M06")
        big = ex.mul(ex.exp(ex.mul(ex.const(700), ex.x1)), ex.exp(ex.mul(ex.const(700), ex.x1)))
        r = qe.max_residual(rec.spec, ex.sub(big, big), C.sample_grid(rec))
        assert math.isnan(r) and not r <= 1e-8

    def test_non_solution_on_flat(self):
        rec = C.instantiate("A.M06")
        r = qe_residual(rec.spec, ex.power(ex.x1, 2), (0.4, 0.9))
        assert np.allclose(r, [[2, 0], [0, 0]])


class TestBasisReports:
    def test_every_record_passes(self, records):
        for rec in records:
            if not rec.q_basis:
                continue
            rep = qe.verify_q_basis(rec)
            assert rep.passed, (rec.ref.label(), rep.residuals)
            assert abs(rep.xi_det) > 1e-10, rec.ref.label()

    def test_report_json(self):
        rep = qe.verify_q_basis(C.instantiate("A.M22", b1=-1.0, b2=2.0))
        d = rep.to_json()
        assert d["pass"] and len(d["residuals"]) == 3 and "xi_det" in d

    def test_mutation_sensitivity(self, records):
        for rec in records:
            if not rec.q_basis:
                continue
            grid = C.sample_grid(rec)
            mu = mutation_direction(rec, grid)
            perturbed = ex.add(rec.q_basis[0], ex.mul(ex.const(1e-2), mu))
            assert qe.max_residual(rec.spec, perturbed, grid) > 1e-4, rec.ref.label()


class TestXiMatrix:
    def test_flat_plane_identity(self):
        rec = C.instantiate("A.M06")
        m, det = qe.xi_matrix(rec.q_basis, (0.0, 0.0))
        assert abs(abs(det) - 1.0) < 1e-14
        assert sorted(np.abs(m).sum(axis=1).tolist()) == [1.0, 1.0, 1.0]

    def test_oscillatory_basis_at_origin(self):
        # rows of (phi, d1 phi, d2 phi) for {1, e^x1 cos x2, e^x1 sin x2}
        # at the origin are (1,0,0), (1,1,0), (0,0,1): determinant 1
        rec = C.instantiate("A.M56")
        m, det = qe.xi_matrix(rec.q_basis, (0.0, 0.0))
        assert np.allclose(m, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
        assert abs(det - 1.0) < 1e-14

    def test_repeated_element_degenerates(self):
        rec = C.instantiate("A.M06")
        basis = (rec.q_basis[0], rec.q_basis[0], rec.q_basis[2])
        _, det = qe.xi_matrix(basis, (0.0, 0.0))
        assert det == 0.0


class TestConformalTransformation:
    """Deforming by +phi multiplies the solution space by e^{phi}."""

    @pytest.mark.parametrize("fam,kw", [
        ("A.M06", {}), ("A.M34", {"c": 2.0}), ("A.M22", {"b1": -1.0, "b2": 2.0}),
        ("A.M12", {"a1": 2.0, "a2": 3.0}), ("A.M44", {"c": -0.5}),
    ])
    def test_deformed_solutions(self, fam, kw):
        rec = C.instantiate(fam, **kw)
        phi = LinearForm(0.3, -0.2)
        deformed = deform(rec.spec, phi, +1)
        grid = C.sample_grid(rec)
        boost = ex.exp(phi.expr())
        for psi in rec.q_basis:
            moved = ex.mul(boost, psi)
            assert qe.max_residual(deformed, moved, grid) <= 1e-8
