"""Killing fields: residuals, flows, group laws, completeness probes."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsurf import catalog as C
from affsurf import connection
from affsurf import expr as ex
from affsurf import killing as K
from affsurf import qe
from affsurf.connection import ChristoffelSpec
from affsurf.integrate import Blowup, ReachedHorizon
from test_connection import max_abs, same_bits
from test_expr import outcome
from test_integrate import dense_eval
from test_qe import loop_max_residual, oracle_records


@pytest.fixture(scope="module")
def records():
    return C.all_records()


def killing_residual(spec, X, p):
    """Max component of the Killing defect over coordinate-field pairs."""
    return K.max_killing_residual(spec, (X,), [p])[0]


def loop_defects(spec, X, p, jets=None):
    """The 8 Killing defect components at p, in (i, j, k) order, by the
    summed index loop (jets: X's compiled component 2-jets, when given)."""
    jets = jets or (ex.compile_jet(X.c1), ex.compile_jet(X.c2))
    J = [jet(*p) for jet in jets]  # J[k] = 2-jet of X^{k+1}
    vals = (J[0][0], J[1][0])
    d = [(Jk[1], Jk[2]) for Jk in J]  # d[k][m] = d_{m+1} X^{k+1}
    dd = [((Jk[3], Jk[4]), (Jk[4], Jk[5])) for Jk in J]  # dd[k][i][j]
    g, dg = spec.symbols_at(p)  # g[i][j][k], dg[m][i][j][k]
    out = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                val = dd[k][i][j]
                for m in range(2):
                    val += vals[m] * dg[m][i][j][k]
                    val -= g[i][j][m] * d[k][m]
                    val += d[m][j] * g[i][m][k]
                    val += d[m][i] * g[m][j][k]
                out.append(val)
    return out


def loop_max_killing_residual(spec, X, grid):
    """The Killing residual of one field by a loop that evaluates the
    symbols afresh at every point and sums the defect by the index loop:
    the bit-identity oracle for the grid kernel that `verify_killing_basis`
    hands every field's jets and the shared per-point symbols."""
    jets = (ex.compile_jet(X.c1), ex.compile_jet(X.c2))
    return max_abs(v for p in grid for v in loop_defects(spec, X, p, jets))


@functools.lru_cache(maxsize=None)
def emitted_defects():
    """`(J0, J1, G, dG) -> the 8 defect components at a point`, from the
    defect expressions K._DEFECTS that the grid kernel folds."""
    lines = ["def defects(J0, J1, G, dG):", f"    {K._JETS[0]} = J0", f"    {K._JETS[1]} = J1",
             f"    {connection._SYMBOLS} = G, dG", f"    return ({', '.join(K._DEFECTS)},)"]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["defects"]


class TestDefectKernel:
    """The defect expressions of the grid kernel equal the summed loop
    component for component, NaN positions included, and the kernel's
    residual is their max_abs."""

    @staticmethod
    def check(spec, X, grid):
        defects = emitted_defects()
        jets = (ex.compile_jet(X.c1), ex.compile_jet(X.c2))
        want = [loop_defects(spec, X, p, jets) for p in grid]
        for p, w in zip(grid, want):
            got = defects(jets[0](*p), jets[1](*p), *spec.symbols_at(p))
            assert same_bits(got, w), p
        worst = np.abs(want)
        worst = math.nan if np.isnan(worst).any() else float(worst.max())
        r, = K.max_killing_residual(spec, (X,), grid)
        assert r == worst or (math.isnan(r) and math.isnan(worst))
        return r

    def test_catalog_bases(self, records):
        for rec in records:
            for X in rec.killing_basis:
                self.check(rec.spec, X, C.sample_grid(rec))

    def test_overflow_fails_closed(self):
        # symbols 1e200 and 2e200 times a derivative of 1e200 overflow to
        # inf, and the defect's differences of them are NaN
        rec = C.instantiate("A.M34", c=1e200)
        grid = C.sample_grid(rec)
        for X in rec.killing_basis:
            self.check(rec.spec, X, grid)
        X = ex.VectorFieldExpr(ex.mul(ex.const(1e200), ex.x2), ex.x2)
        r = self.check(rec.spec, X, grid)
        assert math.isnan(r) and not r <= K.RESIDUAL_TOL


class TestResidual:
    def test_translation_on_constant_symbols(self):
        rec = C.instantiate("A.M12", a1=2.0, a2=3.0)
        assert killing_residual(rec.spec, C.D2, (0.4, -0.9)) == 0.0

    def test_scaling_on_lorentzian_hyperbolic(self):
        rec = C.instantiate("B.N33")
        X = ex.VectorFieldExpr(ex.x1, ex.x2)
        assert killing_residual(rec.spec, X, (1.5, 0.7)) <= 1e-14

    def test_non_affine_field_fails(self):
        rec = C.instantiate("A.M06")
        X = ex.VectorFieldExpr(ex.power(ex.x1, 2), ex.const(0))
        assert killing_residual(rec.spec, X, (1.0, 0.0)) == 2.0

    def test_nan_defect_fails_closed(self):
        # e^{700x1}e^{700x1} - e^{700x1}e^{700x1} is inf - inf = NaN at the
        # five grid points with x1 = 1
        rec = C.instantiate("A.M06")
        big = ex.mul(ex.exp(ex.mul(ex.const(700), ex.x1)), ex.exp(ex.mul(ex.const(700), ex.x1)))
        X = ex.VectorFieldExpr(ex.sub(big, big), ex.const(0))
        r, = K.max_killing_residual(rec.spec, (X,), C.sample_grid(rec))
        assert math.isnan(r) and not r <= K.RESIDUAL_TOL

    def test_catalog_bases_pass_everywhere(self, records):
        for rec in records:
            grid = C.sample_grid(rec, 10)
            res, ok = K.verify_killing_basis(rec, grid)
            assert ok, (rec.ref.label(), res)


class TestSharedSymbols:
    """verify_killing_basis evaluates the symbols once per grid point for all
    of a record's fields; the residuals equal the per-field loop bit for bit,
    NaN slots included."""

    def test_every_record(self):
        nan_models = []
        for rec in oracle_records():
            grid = C.sample_grid(rec)
            want = [loop_max_killing_residual(rec.spec, X, grid) for X in rec.killing_basis]
            res, ok = K.verify_killing_basis(rec, grid)
            assert same_bits(res, want), rec.ref.label()
            # one field at a time gives the same residuals
            assert same_bits([K.max_killing_residual(rec.spec, (X,), grid)[0]
                              for X in rec.killing_basis], want), rec.ref.label()
            assert ok == all(r <= K.RESIDUAL_TOL for r in want), rec.ref.label()
            if any(math.isnan(r) for r in want):
                nan_models.append(rec.ref.label())
        assert nan_models == ["B.N14(kappa=1e+300)"]

    def test_symbols_once_per_point(self, monkeypatch):
        """A constant spec's symbols are evaluated once for the whole grid;
        an inverse-x1 or linear-x1 spec's once per grid point."""
        calls = []
        symbols_at = ChristoffelSpec.symbols_at

        def spy(spec, p):
            calls.append(p)
            return symbols_at(spec, p)
        monkeypatch.setattr(ChristoffelSpec, "symbols_at", spy)
        for label, params, kind, dim in (("A.M06", {}, "constant", 6),
                                         ("B.N16", {"sign": 1.0}, "inverse-x1", 6),
                                         ("A.M54t", {"c": 1.0}, "linear-x1", 4)):
            rec = C.instantiate(label, **params)
            grid = C.sample_grid(rec)
            calls.clear()
            K.verify_killing_basis(rec, grid)
            assert rec.spec.kind == kind and len(rec.killing_basis) == dim, label
            assert calls == (grid[:1] if kind == "constant" else grid), label


@functools.lru_cache(maxsize=None)
def kernel_records():
    return tuple(oracle_records())


@st.composite
def drawn_grids(draw):
    """(record index into kernel_records(), grid): up to six points drawn
    inside the record's sample_grid box."""
    idx = draw(st.integers(0, len(kernel_records()) - 1))
    half_plane = kernel_records()[idx].mtype == "B"
    us = st.floats(0.25, 4.0) if half_plane else st.floats(-1.0, 1.0)
    vs = st.floats(-2.0, 2.0) if half_plane else st.floats(-1.0, 1.0)
    return idx, draw(st.lists(st.tuples(us, vs), max_size=6))


class TestGridKernels:
    """The Killing and quasi-Einstein grid kernels equal the per-point loops
    (loop_max_killing_residual, loop_max_residual) bit for bit on drawn
    grids of every oracle record, NaN and exceptions included, and return
    NaN at the first NaN as max_abs does, before a later point could raise."""

    @settings(max_examples=150, deadline=None)
    @given(drawn_grids())
    @example((-1, [(0.25, -2.0), (1.0, 0.5), (4.0, 2.0)]))  # B.N14(kappa=1e300): NaN
    @example((-1, [(2.0, 0.0)]))  # B.N14(kappa=1e300): a jet overflows
    def test_against_loops(self, case):
        idx, grid = case
        rec = kernel_records()[idx]
        spec, fields, phis = rec.spec, rec.killing_basis, rec.q_basis
        assert (outcome(lambda: K.max_killing_residual(spec, fields, grid), ())
                == outcome(lambda: [loop_max_killing_residual(spec, X, grid) for X in fields], ()))
        assert (outcome(lambda: qe.max_residual(spec, phis, grid), ())
                == outcome(lambda: [loop_max_residual(spec, q, grid) for q in phis], ()))

    def test_nan_example_is_nan(self):
        rec = kernel_records()[-1]
        assert rec.ref.label() == "B.N14(kappa=1e+300)"
        grid = [(0.25, -2.0), (1.0, 0.5), (4.0, 2.0)]
        assert math.isnan(K.max_killing_residual(rec.spec, rec.killing_basis, grid)[3])
        assert all(math.isnan(r) for r in qe.max_residual(rec.spec, rec.q_basis, grid))

    def test_nan_before_a_domain_error(self):
        # log(x2) raises DomainError at the second point, which the kernels
        # never reach: the first point's residual is already NaN
        rec = C.instantiate("B.N14", kappa=1e300)
        X = rec.killing_basis[3]
        X = ex.VectorFieldExpr(ex.add(X.c1, ex.log(ex.x2)), X.c2)
        phi = ex.log(ex.x2)
        grid = [(1.0, 1.0), (1.0, -1.0)]
        with pytest.raises(ex.DomainError):
            K.max_killing_residual(rec.spec, (X,), grid[1:])
        with pytest.raises(ex.DomainError):
            qe.max_residual(rec.spec, (phi,), grid[1:])
        r, = K.max_killing_residual(rec.spec, (X,), grid)
        assert math.isnan(r) and math.isnan(loop_max_killing_residual(rec.spec, X, grid))
        r, = qe.max_residual(rec.spec, (phi,), grid)
        assert math.isnan(r) and math.isnan(loop_max_residual(rec.spec, phi, grid))

    def test_empty_grid(self):
        rec = C.instantiate("B.N16", sign=1.0)
        assert K.max_killing_residual(rec.spec, rec.killing_basis, []) == (0.0,) * 6
        assert K._defect_kernel()(None, []) == 0.0
        assert qe._residual_kernel()(None, []) == 0.0


class TestKillingJetRank:
    """The 1-jets (X^1, d_1 X^1, d_2 X^1, X^2, d_1 X^2, d_2 X^2) of the basis
    fields at the base point are independent: an affine Killing field is
    fixed by its 1-jet at a point, so the rank of their matrix is the
    dimension of the Killing algebra, read from linear algebra alone."""

    @staticmethod
    def jet_matrix(basis, p):
        return np.array([ex.compile_jet(X.c1)(*p)[:3] + ex.compile_jet(X.c2)(*p)[:3]
                         for X in basis])

    def test_rank_is_dim_killing(self, records):
        for rec in records:
            m = self.jet_matrix(rec.killing_basis, rec.base_point)
            assert np.linalg.matrix_rank(m) == rec.expected.dim_killing, rec.ref.label()

    def test_repeated_field_loses_rank(self):
        rec = C.instantiate("A.M46")
        basis = rec.killing_basis[:-1] + rec.killing_basis[:1]
        m = self.jet_matrix(basis, rec.base_point)
        assert np.linalg.matrix_rank(m) == rec.expected.dim_killing - 1


class TestFlows:
    def test_vertical_translation(self):
        tr = K.flow_integrate(C.D2, (1.0, 0.0), 10.0)
        assert isinstance(tr.status, ReachedHorizon)
        assert np.allclose(tr.states[:, 0], 1.0)
        assert np.allclose(tr.states[:, 1], tr.times)

    def test_quadratic_field_escapes_backward(self):
        # flow of (2 x1 x2, x2^2) through (1, -1) is (t^-2, -t^-1) shifted:
        # finite-time escape one unit backward
        rec = C.instantiate("B.N13", sign=1)
        X = rec.killing_basis[0]
        tr = K.flow_integrate(X, (1.0, -1.0), -10.0, edge=0.0)
        assert isinstance(tr.status, Blowup)
        assert tr.status.t_lo <= -1.0 <= tr.status.t_hi
        fwd = K.flow_integrate(X, (1.0, -1.0), 10.0, edge=0.0)
        assert isinstance(fwd.status, ReachedHorizon)

    def test_scaling_flow_stays_in_half_plane(self):
        X = ex.VectorFieldExpr(ex.x1, ex.x2)
        tr = K.flow_integrate(X, (1.0, 1.0), 50.0, edge=0.0)
        assert not tr.escaped
        back = K.flow_integrate(X, (1.0, 1.0), -50.0, edge=0.0)
        assert isinstance(back.status, ReachedHorizon)

    def test_closed_form_witness_path(self):
        rec = C.instantiate("B.N13", sign=1)
        X = rec.killing_basis[0]
        tr = K.flow_integrate(X, (1.0, -1.0), 0.9, edge=0.0)
        for t in (0.2, 0.5, 0.85):
            s = 1.0 + t  # xi(s) = (s^-2, -s^-1), xi(1) = (1, -1)
            got = dense_eval(tr, t)
            assert abs(got[0] - s ** -2) < 1e-6 and abs(got[1] + 1.0 / s) < 1e-6


class TestCombination:
    def test_matches_weighted_sum_of_basis_fields(self, records):
        rng = np.random.default_rng(7)
        for rec in records:
            basis = rec.killing_basis
            compiled = [(ex.compile_scalar(X.c1), ex.compile_scalar(X.c2)) for X in basis]
            for _ in range(2):
                v = rng.normal(size=len(basis))
                coeffs = tuple(float(x) for x in v / np.linalg.norm(v))
                Y = K.combination(basis, coeffs)
                g1, g2 = ex.compile_scalar(Y.c1), ex.compile_scalar(Y.c2)
                for p in C.sample_grid(rec):
                    want1 = sum(c * f1(*p) for c, (f1, _) in zip(coeffs, compiled))
                    want2 = sum(c * f2(*p) for c, (_, f2) in zip(coeffs, compiled))
                    got1, got2 = g1(*p), g2(*p)
                    assert abs(got1 - want1) <= 1e-12 * (1 + abs(want1)), (rec.ref.label(), p)
                    assert abs(got2 - want2) <= 1e-12 * (1 + abs(want2)), (rec.ref.label(), p)


class TestGroupLawConsistency:
    """Composing the catalog flows of the rank-1 Killing-complete family
    reproduces its four-parameter transformation group."""

    @staticmethod
    def transform(c, a, b, c1, d, p):
        u, v = p
        return (math.exp(a - c * d) * u + b * math.exp(-c * d) + c1 * math.exp(v - c * d),
                v + d)

    @pytest.mark.parametrize("c", [-0.5, 1 / 3, 2.0])
    def test_flows_match_group(self, c):
        rec = C.instantiate("A.M34", c=c)
        # basis order: d1, x1 d1, e^{x2} d1, d2 - c x1 d1 corresponding to
        # group parameters b, a, c1, d
        params = {"b": 0.3, "a": -0.4, "c1": 0.25, "d": 0.6}
        by_index = {0: "b", 1: "a", 2: "c1", 3: "d"}
        p0 = (0.7, -0.2)
        for idx, name in by_index.items():
            s = params[name]
            tr = K.flow_integrate(rec.killing_basis[idx], p0, s)
            got = tuple(tr.states[-1])
            kw = {"a": 0.0, "b": 0.0, "c1": 0.0, "d": 0.0, name: s}
            want = self.transform(c, kw["a"], kw["b"], kw["c1"], kw["d"], p0)
            assert np.allclose(got, want, atol=1e-9), (name, got, want)
        # composite: flow b for s then flow d for t equals T(0,s,0,t)
        s, t = 0.5, 0.7
        mid = tuple(K.flow_integrate(rec.killing_basis[0], p0, s).states[-1])
        got = tuple(K.flow_integrate(rec.killing_basis[3], mid, t).states[-1])
        want = self.transform(c, 0.0, s, 0.0, t, p0)
        assert np.allclose(got, want, atol=1e-9)


class TestProbe:
    def test_rank_one_complete_family(self):
        rep = K.killing_completeness_probe(C.instantiate("A.M34", c=1 / 3))
        assert rep.complete and rep.verdict == "matches-theorem"

    def test_lorentzian_hyperbolic_incomplete_with_witness(self):
        rep = K.killing_completeness_probe(C.instantiate("B.N33"))
        assert not rep.complete and rep.verdict == "matches-theorem"
        assert any(isinstance(w.status, Blowup) for w in rep.witnesses)

    def test_hyperbolic_plane_complete(self):
        rep = K.killing_completeness_probe(C.instantiate("B.N43"))
        assert rep.complete and rep.verdict == "matches-theorem"

    def test_flat_half_plane_incomplete_by_domain_exit(self):
        from affsurf.integrate import LeftDomain
        rep = K.killing_completeness_probe(C.instantiate("B.N06"))
        assert not rep.complete
        assert rep.verdict == "matches-theorem"
        assert any(isinstance(w.status, LeftDomain) for w in rep.witnesses)

    def test_unbounded_runs_count_as_complete(self):
        rec = C.instantiate("B.N14", kappa=2.0)
        rep = K.killing_completeness_probe(rec, init_set=K.default_flow_inits(rec)[:1],
                                           n_combos=0)
        assert rep.complete and rep.horizon == 60.0
        assert rep.unbounded_runs == 3 and not rep.witnesses

    def test_report_json(self):
        rep = K.killing_completeness_probe(C.instantiate("B.N13", sign=1))
        d = rep.to_json()
        assert d["verdict"] == "matches-theorem" and d["complete"] is False
        assert d["witnesses"]
