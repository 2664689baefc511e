"""Projective deformation, flattening, immersions, map verification."""

import math

import numpy as np
import pytest

from affsurf import catalog as C
from affsurf import expr as ex
from affsurf import geodesic as G
from affsurf import projective as P
from affsurf import qe
from affsurf.catalog import ModelRecord
from affsurf.connection import ChristoffelSpec, curvature, ricci, ricci_sym
from affsurf.expr import PlaneMap, Point
from affsurf.projective import flatten_report
from affsurf.qe import xi_matrix
from test_connection import christoffel_at, max_abs, ricci_at, same_bits
from test_qe import loop_max_residual, oracle_records


# ---------------------------------------------------------------------------
# oracles: the straightening immersion and the Jacobian of a plane map


def immersion(record: ModelRecord) -> PlaneMap:
    """Factor the solution basis as e^{phi} span{1, phi1, phi2} with phi
    from the flattening, normalized so phi1, phi2 vanish at the base point
    with unit Jacobian there; returns (phi1, phi2).  Rejects models whose
    solution space is trivial."""
    if not record.q_basis:
        raise ValueError(f"{record.ref.label()} has a trivial solution space")
    rep = flatten_report(record, C.sample_grid(record))
    phi_expr = rep.phi.expr() if rep.qe_sign > 0 else ex.mul(ex.const(-1), rep.phi.expr())
    inv = ex.exp(ex.mul(ex.const(-1), phi_expr))
    psis = [ex.mul(q, inv) for q in record.q_basis]
    m, det = xi_matrix(psis, record.base_point)
    if abs(det) < 1e-12:
        raise RuntimeError(f"{record.ref.label()}: basis degenerate at the base point")
    coeff = np.linalg.solve(m.T, np.eye(3))  # columns: combos hitting e1, e2, e3
    phi1 = ex.add(*(ex.mul(ex.const(float(coeff[i, 1])), psis[i]) for i in range(3)))
    phi2 = ex.add(*(ex.mul(ex.const(float(coeff[i, 2])), psis[i]) for i in range(3)))
    return PlaneMap(phi1, phi2)


def map_at(pm: PlaneMap, p: Point) -> Point:
    """The image of the point p under pm."""
    return ex.evaluate(pm.f1, p), ex.evaluate(pm.f2, p)


def line_image_residual(pm: PlaneMap, points) -> float:
    """Deviation of the image of a curve from a straight line: total least
    squares fit, max perpendicular distance normalized by the spread along
    the fitted line.  A geodesic of a straightened model gives ~0; a circle
    gives order one."""
    img = np.array([map_at(pm, (float(p[0]), float(p[1]))) for p in points])
    if len(img) < 3:
        raise ValueError("need at least 3 samples")
    centered = img - img.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    along = centered @ vt[0]
    across = centered @ vt[1]
    spread = float(along.max() - along.min())
    if spread <= 1e-14:
        raise ValueError("degenerate image: all samples coincide")
    return float(np.max(np.abs(across))) / spread


def jacobian(pm: PlaneMap, p: Point):
    """((d1 f1, d2 f1), (d1 f2, d2 f2)) at p, read from the 2-jets."""
    _, j11, j12, *_ = ex.compile_jet(pm.f1)(*p)
    _, j21, j22, *_ = ex.compile_jet(pm.f2)(*p)
    return (j11, j12), (j21, j22)


@pytest.fixture(scope="module")
def constant_records():
    return [r for r in C.all_records() if r.spec.kind == "constant"]


def jacobian_nonsingular_on(pm, grid, tol=1e-9):
    for p in grid:
        (j11, j12), (j21, j22) = jacobian(pm, p)
        det = j11 * j22 - j12 * j21
        scale = max(1e-30, abs(j11) + abs(j12) + abs(j21) + abs(j22))
        if abs(det) <= tol * scale * scale:
            return False
    return True


def pullback(pm: PlaneMap, target, p: Point):
    """The target symbols pulled back through pm at p, with the joint map
    jet looked up at that point."""
    return P.pullback_connection(ex.compile_jet(pm.f1, pm.f2), target, p)


def einsum_pullback(pm, target, p):
    """The pulled-back symbols by the array formula: J, H and J^-1 as arrays
    and the G~_ab^c J^a_i J^b_j contraction as an einsum."""
    jets = [ex.compile_jet(fc)(*p) for fc in (pm.f1, pm.f2)]
    J = np.array([jet[1:3] for jet in jets])
    H = np.array([((h11, h12), (h12, h22)) for *_, h11, h12, h22 in jets])
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    if abs(det) < 1e-14:
        raise ValueError(f"map is not immersive at {p}")
    a, b, c, d, e, f = christoffel_at(target, (jets[0][0], jets[1][0]))
    gt = np.array([[[a, b], [c, d]], [[c, d], [e, f]]])
    out = np.zeros((2, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        Jinv = np.array([[J[1, 1], -J[0, 1]], [-J[1, 0], J[0, 0]]]) / det
        for i in range(2):
            for j in range(2):
                vec = H[:, i, j] + np.einsum("abc,a,b->c", gt, J[:, i], J[:, j])
                for k in range(2):
                    out[i, j, k] = Jinv[k, 0] * vec[0] + Jinv[k, 1] * vec[1]
    return (out[0, 0, 0], out[0, 0, 1], out[0, 1, 0], out[0, 1, 1], out[1, 1, 0], out[1, 1, 1])


def loop_flatten_report(record, grid):
    """(rho~ max, curvature~ max, residual of e^{+phi}, residual of e^{-phi})
    by loops that evaluate the flat symbols afresh for ricci and for
    curvature, and the original symbols afresh for each sign: the
    bit-identity oracle for the tables `flatten_report` shares."""
    phi, flat = P.flatten(record.spec)
    rho_max = max_abs(v for p in grid for v in ricci(flat.symbols_at(p)))
    curv_max = max_abs(v for p in grid for v in curvature(flat.symbols_at(p)))
    plus = loop_max_residual(record.spec, ex.exp(phi.expr()), grid)
    minus = loop_max_residual(record.spec, ex.exp(ex.mul(ex.const(-1), phi.expr())), grid)
    return rho_max, curv_max, plus, minus


def loop_map_deviation(record, entry, grid):
    """A map's max deviation with both map jets looked up at every point:
    the bit-identity oracle for the jets `verify_map_entry` looks up once."""
    target = C.instantiate_ref(entry.target).spec
    return max_abs(u - v for p in grid
                   for u, v in zip(pullback(entry.plane_map, target, p),
                                   christoffel_at(record.spec, p)))


class TestSharedTables:
    """flatten_report and verify_affine_maps equal their per-point loops bit
    for bit, NaN slots included."""

    def test_flatten_every_constant_record(self, constant_records):
        # the hostile parameters break down in floating point: NaN at 5e-324
        hostile = [C.instantiate("A.M44", c=5e-324), C.instantiate("A.M32", c=5e-324),
                   C.instantiate("A.M44", c=-1e16)]
        nan_models = []
        for rec in constant_records + hostile:
            grid = C.sample_grid(rec)
            rho_max, curv_max, plus, minus = loop_flatten_report(rec, grid)
            rep = P.flatten_report(rec, grid)
            sign = 1 if plus <= minus else -1
            assert same_bits([rep.rho_tilde_max, rep.curvature_tilde_max, rep.qe_residual],
                             [rho_max, curv_max, plus if sign > 0 else minus]), rec.ref.label()
            assert rep.qe_sign == sign, rec.ref.label()
            if math.isnan(rho_max):
                nan_models.append(rec.ref.label())
        assert len(nan_models) == 2

    def test_flat_data_once(self, monkeypatch):
        """The flat connection, constant like the record's, has its Ricci
        and curvature evaluated once for the whole grid, and the record's
        QE row once; a one-point grid costs the same."""
        counts = {}

        def spy(name, fn):
            def counted(*args):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args)
            return counted
        monkeypatch.setattr(P, "ricci", spy("ricci", ricci))
        monkeypatch.setattr(P, "curvature", spy("curvature", curvature))
        monkeypatch.setattr(qe, "ricci_sym", spy("ricci_sym", ricci_sym))
        monkeypatch.setattr(ChristoffelSpec, "symbols_at",
                            spy("symbols_at", ChristoffelSpec.symbols_at))
        rec = C.instantiate("A.M46")
        for grid in (C.sample_grid(rec), C.sample_grid(rec, 1)):
            counts.clear()
            assert P.flatten_report(rec, grid).passed
            assert counts == {"ricci": 1, "curvature": 1, "ricci_sym": 1, "symbols_at": 2}

    def test_every_map(self):
        count = 0
        for rec in oracle_records():
            grid = C.sample_grid(rec)
            for entry, rep in zip(rec.maps, P.verify_affine_maps(rec, grid)):
                want = loop_map_deviation(rec, entry, grid)
                assert same_bits(rep.max_deviation, want), (rec.ref.label(), entry.name)
                count += 1
        assert count == 44
        # the overflow control: J^-1's zero entries times inf give NaN
        rec = C.instantiate("A.M34", c=1e200)
        big = ex.const(1e60)
        entry = C.AffineMapEntry("scale", ex.PlaneMap(ex.mul(big, ex.x1), ex.mul(big, ex.x2)),
                                 rec.ref)
        grid = C.sample_grid(rec)
        want = loop_map_deviation(rec, entry, grid)
        assert math.isnan(want) and same_bits(P.verify_map_entry(rec, entry, grid).max_deviation, want)


    def test_source_symbols_once_per_grid(self, monkeypatch):
        """A map check evaluates a constant source spec's symbols once for
        the whole grid and an inverse-x1 source spec's once per point; the
        target's are read once per point, at that point's image."""
        seen = []
        symbols_at = ChristoffelSpec.symbols_at

        def spy(spec, p):
            seen.append((spec, p))
            return symbols_at(spec, p)
        monkeypatch.setattr(ChristoffelSpec, "symbols_at", spy)
        for label, kind in (("A.M46", "constant"), ("B.N56", "inverse-x1")):
            rec = C.instantiate(label)
            grid = C.sample_grid(rec)
            seen.clear()
            assert [rep.passed for rep in P.verify_affine_maps(rec, grid)] == [True]
            source = [p for spec, p in seen if spec is rec.spec]
            assert rec.spec.kind == kind and len(grid) == 25, label
            assert source == (grid[:1] if kind == "constant" else grid), label
            assert len(seen) - len(source) == len(grid), label


class TestDeform:
    def test_formula_on_flat(self):
        rec = C.instantiate("A.M06")
        out = P.deform(rec.spec, P.LinearForm(1.0, 0.0), +1)
        assert out.coeffs == (2.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def test_minus_deformation_flattens_rank_one(self):
        for c in (-2.0, 1 / 3, 2.0):
            rec = C.instantiate("A.M34", c=c)
            flat = P.deform(rec.spec, P.LinearForm(0.0, c), -1)
            assert np.allclose(ricci_at(flat, (0.2, -0.4)), 0, atol=1e-14)

    def test_round_trip_exact(self):
        rec = C.instantiate("A.M22", b1=-1.0, b2=2.0)
        phi = P.LinearForm(0.37, -1.25)
        assert P.deform(P.deform(rec.spec, phi, +1), phi, -1).coeffs == rec.spec.coeffs

    def test_rejects_half_plane_kind(self):
        rec = C.instantiate("B.N43")
        with pytest.raises(ValueError):
            P.deform(rec.spec, P.LinearForm(1.0, 0.0), +1)


class TestFlatten:
    def test_rank_one_family_linear_form(self):
        for c in (-2.0, 1 / 3, 2.0):
            phi, flat = P.flatten(C.instantiate("A.M34", c=c).spec)
            assert phi.a1 == 0.0 and abs(phi.a2 - c) < 1e-12
            assert np.allclose(ricci_at(flat, (0.0, 0.0)), 0, atol=1e-12)

    def test_flat_plane_trivial(self):
        phi, _ = P.flatten(C.instantiate("A.M06").spec)
        assert (phi.a1, phi.a2) == (0.0, 0.0)

    def test_rank_two_cubic_root(self):
        rec = C.instantiate("A.M12", a1=2.0, a2=3.0)
        rep = P.flatten_report(rec, C.sample_grid(rec))
        assert rep.rho_tilde_max <= 1e-10
        assert rep.qe_residual <= 1e-8

    def test_oscillatory_rank_two_swap_branch(self):
        # G_11^2 = 0, G_22^1 != 0 exercises the coordinate-swap branch
        rec = C.instantiate("A.M22", b1=-1.0, b2=2.0)
        rep = P.flatten_report(rec, C.sample_grid(rec))
        assert rep.passed
        assert abs(rep.phi.a1 + 1.0) < 1e-9 and abs(rep.phi.a2 - 2.0) < 1e-9

    @pytest.mark.parametrize("c", [1e-12, -1e-6, 1e-6, 3e-6, 1.0])
    def test_triple_root_taken_exactly(self, c):
        # A.M44 takes the swap branch with lam = 1/c, and its rescaled cubic
        # is (a1 - 1)^3 for every c: np.roots puts the root at
        # 1.0000065704250627, and lam magnified that error past FLAT_TOL
        rec = C.instantiate("A.M44", c=c)
        rep = P.flatten_report(rec, C.sample_grid(rec))
        assert (abs(rep.phi.a1), rep.phi.a2) == (0.0, 1.0)
        assert (rep.rho_tilde_max, rep.curvature_tilde_max, rep.qe_residual) == (0.0, 0.0, 0.0)
        assert rep.passed

    def test_triple_root_of_the_cubic(self):
        # a = 2, d = 1 give the cubic (a1 - 1)^3 = a1^3 - 3a1^2 + 3a1 - 1,
        # and a = 3 the cubic a1^2 (a1 - 3), whose double root np.roots solves
        assert P._branch1((2.0, 1.0, 0.0, 1.0, 0.0, 0.0)) == (1.0, 0.0)
        assert P._branch1((3.0, 1.0, 0.0, 0.0, 0.0, 0.0)) == (0.0, 0.0)

    def test_postcondition_triple_across_catalog(self, constant_records):
        for rec in constant_records:
            rep = P.flatten_report(rec, C.sample_grid(rec))
            assert rep.rho_tilde_max <= 1e-10, rec.ref.label()
            assert rep.curvature_tilde_max <= 1e-10, rec.ref.label()
            assert rep.qe_residual <= 1e-8, rec.ref.label()


class TestImmersion:
    def test_oscillatory_chart(self):
        pm = immersion(C.instantiate("A.M56"))
        got = map_at(pm, (0.5, 0.3))
        want = (math.exp(0.5) * math.cos(0.3) - 1.0, math.exp(0.5) * math.sin(0.3))
        assert np.allclose(got, want, atol=1e-12)

    def test_flat_plane_identity(self):
        pm = immersion(C.instantiate("A.M06"))
        assert np.allclose(map_at(pm, (0.4, -0.2)), (0.4, -0.2), atol=1e-14)

    def test_trivial_solution_space_rejected(self):
        with pytest.raises(ValueError):
            immersion(C.instantiate("B.N13", sign=1))

    def test_jacobian_nonsingular_on_grid(self, constant_records):
        for rec in constant_records:
            if not rec.q_basis:
                continue
            pm = immersion(rec)
            assert jacobian_nonsingular_on(pm, C.sample_grid(rec)), rec.ref.label()

    def test_base_point_normalization(self, constant_records):
        for rec in constant_records[:6]:
            pm = immersion(rec)
            assert np.allclose(map_at(pm, rec.base_point), (0.0, 0.0), atol=1e-12)
            (j11, j12), (j21, j22) = jacobian(pm, rec.base_point)
            assert np.allclose([[j11, j12], [j21, j22]], np.eye(2), atol=1e-9)


LINE_IMAGE_MODELS = [
    ("A.M54", {"c": 2.0}), ("A.M34", {"c": 1 / 3}), ("A.M12", {"a1": 2.0, "a2": 3.0}),
    ("A.M22", {"b1": -1.0, "b2": 2.0}), ("A.M42", {"sign": 1.0}),
]


class TestLineImages:
    def test_twenty_random_geodesics_are_straightened(self):
        rng = np.random.default_rng(20240815)
        checked = 0
        for fam, kw in LINE_IMAGE_MODELS:
            rec = C.instantiate(fam, **kw)
            pm = immersion(rec)
            for _ in range(4):
                th = rng.uniform(0.0, 2.0 * math.pi)
                tr = G.geodesic_integrate(rec.spec, (0.0, 0.0),
                                          (math.cos(th), math.sin(th)), 0.8)
                res = line_image_residual(pm, [s[:2] for s in tr.states])
                assert res <= 1e-6, (rec.ref.label(), th, res)
                checked += 1
        assert checked == 20

    def test_circle_negative_control(self):
        pm = immersion(C.instantiate("A.M06"))
        circle = [(math.cos(t), math.sin(t)) for t in np.linspace(0.0, 2.0, 50)]
        assert line_image_residual(pm, circle) > 1e-3

    def test_degenerate_image_reported(self):
        pm = immersion(C.instantiate("A.M06"))
        with pytest.raises(ValueError):
            line_image_residual(pm, [(1.0, 1.0)] * 10)


class TestPullback:
    def test_parabolic_chart_recovers_source(self):
        rec = C.instantiate("A.M46")
        entry = rec.maps[0]
        target = C.instantiate_ref(entry.target)
        for p in [(0.0, 0.0), (0.7, -0.3)]:
            pulled = pullback(entry.plane_map, target.spec, p)
            assert np.allclose(pulled, rec.spec.coeffs, atol=1e-12)

    def test_log_chart_recovers_half_plane_symbols(self):
        rec = C.instantiate("B.N56")
        entry = rec.maps[0]
        target = C.instantiate_ref(entry.target)
        for p in [(0.5, 0.0), (2.0, -1.0)]:
            pulled = pullback(entry.plane_map, target.spec, p)
            assert np.allclose(pulled, christoffel_at(rec.spec, p), atol=1e-12)

    def test_identity_map_gives_zeros(self):
        rec = C.instantiate("A.M06")
        pm = ex.PlaneMap(ex.x1, ex.x2)
        assert pullback(pm, rec.spec, (0.3, 0.4)) == (0, 0, 0, 0, 0, 0)

    def test_singular_jacobian_rejected(self):
        rec = C.instantiate("A.M06")
        pm = ex.PlaneMap(ex.x1, ex.x1)
        with pytest.raises(ValueError):
            pullback(pm, rec.spec, (0.3, 0.4))


class TestPullbackMatchesArrayFormula:
    """pullback_connection equals the einsum formula bit for bit, NaN
    positions included."""

    @staticmethod
    def check(pm, target, grid):
        for p in grid:
            got = pullback(pm, target, p)
            assert same_bits(got, einsum_pullback(pm, target, p)), p

    def test_every_catalog_map(self):
        count = 0
        for rec in C.all_records():
            for entry in rec.maps:
                self.check(entry.plane_map, C.instantiate_ref(entry.target).spec,
                           C.sample_grid(rec))
                count += 1
        assert count >= 40

    def test_random_maps(self):
        # generic floats, where the grouping (G~ J^a) J^b and the division
        # J / det are visible in the last bits
        rng = np.random.default_rng(17)
        for _ in range(60):
            c = [ex.const(float(v)) for v in rng.uniform(-2, 2, size=6)]
            pm = ex.PlaneMap(ex.add(ex.mul(c[0], ex.x1), ex.mul(c[1], ex.x2), ex.mul(c[2], ex.x1, ex.x2)),
                             ex.add(ex.mul(c[3], ex.x1), ex.mul(c[4], ex.x2), ex.mul(c[5], ex.x2, ex.x2)))
            target = ChristoffelSpec(tuple(rng.uniform(-3, 3, size=6)))
            self.check(pm, target, [tuple(rng.uniform(-1, 1, size=2)) for _ in range(5)])

    def test_overflow_fails_closed(self):
        # target symbols 1e200 and 2e200 times a Jacobian of 1e60 twice
        # overflow to inf; J^-1's zero entries times inf are NaN
        rec = C.instantiate("A.M34", c=1e200)
        big = ex.const(1e60)
        entry = C.AffineMapEntry("scale", ex.PlaneMap(ex.mul(big, ex.x1), ex.mul(big, ex.x2)),
                                 rec.ref)
        grid = C.sample_grid(rec)
        self.check(entry.plane_map, rec.spec, grid)
        rep = P.verify_map_entry(rec, entry, grid)
        assert math.isnan(rep.max_deviation) and not rep.passed


class TestMapVerification:
    def test_all_catalog_maps_pass(self):
        count = 0
        for rec in C.all_records():
            for rep in P.verify_affine_maps(rec, C.sample_grid(rec)):
                assert rep.passed, rep.to_json()
                count += 1
        assert count >= 40

    def test_embedding_into_rank_one_target(self):
        rec = C.instantiate("A.M24", c=1 / 3)
        rep, = P.verify_affine_maps(rec, C.sample_grid(rec))
        assert rep.passed and rep.target == "A.M34(c=0.333333)"

    def test_half_plane_isomorphism(self):
        rec = C.instantiate("B.N34", kappa=2.0)
        rep, = P.verify_affine_maps(rec, C.sample_grid(rec))
        assert rep.passed and rep.target == "A.M44(c=0)"

    def test_transposed_components_fail_for_curved_targets(self):
        # swapping the output components composes with a linear map of the
        # target; that is an affine symmetry for the flat plane, so the
        # mutation is a genuine control only when the target is curved
        for fam, kw in [("A.M14", {}), ("A.M24", {"c": 1 / 3}), ("A.M44", {"c": 2.0}),
                        ("A.M54", {"c": 2.0}), ("B.N14", {"kappa": 2.0}),
                        ("B.N24", {"kappa": 2.0, "theta": 3.0}), ("B.N34", {"kappa": 2.0})]:
            rec = C.instantiate(fam, **kw)
            entry = rec.maps[0]
            swapped = C.AffineMapEntry(entry.name, ex.PlaneMap(
                entry.plane_map.f2, entry.plane_map.f1), entry.target)
            rep = P.verify_map_entry(rec, swapped, C.sample_grid(rec))
            assert not rep.passed, (fam, rep.max_deviation)

    def test_nonlinear_bump_fails_for_every_map(self):
        # the bump must avoid the targets' affine symmetry directions
        # (powers of x1 can land exactly on a Killing flow of the target);
        # sin(x1) is transverse to all of them
        bump = ex.mul(ex.const(0.01), ex.sin(ex.x1))
        for rec in C.all_records():
            grid = C.sample_grid(rec)
            for entry in rec.maps:
                mutated = C.AffineMapEntry(entry.name, ex.PlaneMap(
                    ex.add(entry.plane_map.f1, bump), entry.plane_map.f2), entry.target)
                rep = P.verify_map_entry(rec, mutated, grid)
                assert not rep.passed, (rec.ref.label(), entry.name)
