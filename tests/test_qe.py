"""Quasi-Einstein machinery: Hessian, residuals, basis reports, Xi matrix."""

import math

import numpy as np
import pytest

from affsurf import catalog as C
from affsurf import expr as ex
from affsurf import qe
from affsurf.connection import ChristoffelSpec, ricci_sym
from affsurf.projective import LinearForm, deform
from test_connection import christoffel_at, max_abs, ricci_sym_at, same_bits
from test_expr import parse_expr


@pytest.fixture(scope="module")
def records():
    return C.all_records()


def mutation_direction(record, grid):
    """A perturbation direction that provably leaves the solution span:
    x1 when x1 is not itself a solution for this model, else x1*x2."""
    cand = ex.x1
    if qe.max_residual(record.spec, (cand,), grid)[0] <= 1e-3:
        cand = ex.mul(ex.x1, ex.x2)
    return cand


def hessian_kernel(spec, phi):
    """Point function p -> (phi, H11, H12, H22) with
    (H phi)_ij = d_i d_j phi - G_ij^k d_k phi, read from the 2-jet of phi
    and the symbols at that point."""
    jet = ex.compile_jet(phi)

    def at(p):
        val, g1, g2, f11, f12, f22 = jet(*p)
        a, b, c, d, e, f = christoffel_at(spec, p)
        return (val, f11 - (a * g1 + b * g2),
                f12 - (c * g1 + d * g2), f22 - (e * g1 + f * g2))
    return at


def loop_max_residual(spec, phi, grid):
    """The quasi-Einstein residual of one scalar by a loop that evaluates
    the symbols and ricci_sym afresh at every point: the bit-identity
    oracle for the per-point rows that `qe.max_residual` reads."""
    hess = hessian_kernel(spec, phi)

    def entries():
        for p in grid:
            val, h11, h12, h22 = hess(p)
            r11, r12, r22 = ricci_sym(spec.symbols_at(p))
            yield h11 + val * r11
            yield h12 + val * r12
            yield h22 + val * r22
    return max_abs(entries())


def oracle_records():
    """Every catalog record, plus one whose symbols overflow to NaN
    residuals (`verify B.N14 --kappa 1e300`)."""
    return C.all_records() + [C.instantiate("B.N14", kappa=1e300)]


def hessian(spec, phi, p):
    """(H phi)_ij at a point."""
    _, h11, h12, h22 = hessian_kernel(spec, phi)(p)
    return np.array([[h11, h12], [h12, h22]])


def qe_residual(spec, phi, p):
    """H phi + phi * rho_s at a point; zero exactly on solutions."""
    return hessian(spec, phi, p) + ex.compile_jet(phi)(*p)[0] * ricci_sym_at(spec, p)


class TestHessian:
    def test_parabolic_chart_solution(self):
        rec = C.instantiate("A.M46")
        phi = parse_expr("x2^2 + 2*x1")
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
        assert qe.max_residual(rec.spec, (phi,), grid)[0] <= 1e-8

    def test_hyperbolic_solution(self):
        rec = C.instantiate("B.N43")
        phi = ex.div(ex.x2, ex.x1)
        grid = C.sample_grid(rec)
        assert qe.max_residual(rec.spec, (phi,), grid)[0] <= 1e-8

    def test_nan_residual_fails_closed(self):
        # inf - inf = NaN at the five grid points with x1 = 1; the builtin
        # max would drop those and report a denormal
        rec = C.instantiate("A.M06")
        big = ex.mul(ex.exp(ex.mul(ex.const(700), ex.x1)), ex.exp(ex.mul(ex.const(700), ex.x1)))
        r, = qe.max_residual(rec.spec, (ex.sub(big, big),), C.sample_grid(rec))
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
            rep = qe.verify_q_basis(rec, C.sample_grid(rec))
            assert rep.passed, (rec.ref.label(), rep.residuals)
            assert abs(rep.xi_det) > 1e-10, rec.ref.label()

    def test_report_json(self):
        rec = C.instantiate("A.M22", b1=-1.0, b2=2.0)
        rep = qe.verify_q_basis(rec, C.sample_grid(rec))
        d = rep.to_json()
        assert d["pass"] and len(d["residuals"]) == 3 and "xi_det" in d

    def test_dependent_basis_fails(self):
        """A basis with a repeated element solves the equation but spans less
        than E(Q): its report fails on xi_det alone, in `passed` and JSON."""
        rec = C.instantiate("A.M22", b1=-1.0, b2=2.0)
        phi0, phi1, _ = rec.q_basis
        repeated = C.ModelRecord(rec.ref, rec.spec, (phi0, phi1, phi0), rec.killing_basis,
                                 rec.expected, rec.maps, rec.base_point, rec.notes)
        rep = qe.verify_q_basis(repeated, C.sample_grid(rec))
        assert not rep.passed and rep.to_json()["pass"] is False
        assert all(r <= qe.RESIDUAL_TOL for r in rep.residuals)
        assert abs(rep.xi_det) <= qe.XI_DET_FLOOR

    def test_mutation_sensitivity(self, records):
        for rec in records:
            if not rec.q_basis:
                continue
            grid = C.sample_grid(rec)
            mu = mutation_direction(rec, grid)
            perturbed = ex.add(rec.q_basis[0], ex.mul(ex.const(1e-2), mu))
            assert qe.max_residual(rec.spec, (perturbed,), grid)[0] > 1e-4, rec.ref.label()


class TestSharedRows:
    """verify_q_basis builds one row of symbols and rho_s per grid point and
    every basis element reads it; the residuals equal the per-element loop
    bit for bit, NaN slots included."""

    def test_every_record(self):
        nan_models = []
        n = 0
        for rec in oracle_records():
            if not rec.q_basis:
                continue
            grid = C.sample_grid(rec)
            want = [loop_max_residual(rec.spec, q, grid) for q in rec.q_basis]
            assert same_bits(qe.verify_q_basis(rec, grid).residuals, want), rec.ref.label()
            # one scalar at a time gives the same residuals
            assert same_bits([qe.max_residual(rec.spec, (q,), grid)[0] for q in rec.q_basis],
                             want), rec.ref.label()
            if any(math.isnan(r) for r in want):
                nan_models.append(rec.ref.label())
            n += 1
        assert n == 68
        assert nan_models == ["B.N14(kappa=1e+300)"]

    def test_ricci_once_per_point(self, monkeypatch):
        """A constant spec's row is evaluated once for the whole grid; an
        inverse-x1 or linear-x1 spec's once per grid point, its symbols and
        rho_s from one symbols_at."""
        calls, made, read = [], [], []
        symbols_at = ChristoffelSpec.symbols_at

        def symbols_spy(spec, p):
            calls.append(p)
            made.append(symbols_at(spec, p))
            return made[-1]

        def spy(symbols):
            read.append(symbols)
            return ricci_sym(symbols)
        monkeypatch.setattr(qe, "ricci_sym", spy)
        monkeypatch.setattr(ChristoffelSpec, "symbols_at", symbols_spy)
        for label, params, kind in (("A.M46", {}, "constant"),
                                    ("B.N16", {"sign": 1.0}, "inverse-x1"),
                                    ("A.M54t", {"c": 1.0}, "linear-x1")):
            rec = C.instantiate(label, **params)
            grid = C.sample_grid(rec)
            for seen in (calls, made, read):
                seen.clear()
            qe.verify_q_basis(rec, grid)
            want = grid[:1] if kind == "constant" else grid
            assert rec.spec.kind == kind and len(rec.q_basis) == 3, label
            assert calls == want, label
            # rho_s of each row is computed from that row's symbols
            assert len(read) == len(made) and all(r is m for r, m in zip(read, made)), label


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
            assert qe.max_residual(deformed, (moved,), grid)[0] <= 1e-8
