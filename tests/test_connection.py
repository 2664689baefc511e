"""Connections: symbol evaluation, curvature, Ricci, rank.

The curvature path is cross-checked against an independent oracle that
assembles R_ijk^l from finite differences of the symbol values
(`christoffel_at`, the test-side oracle for symbols_at's G) plus the
quadratic terms written out longhand, and bit for bit against the numpy
(einsum) formulas it replaced.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsurf import catalog as C
from affsurf import connection
from affsurf import killing as K
from affsurf import projective as P
from affsurf import qe
from affsurf.connection import (KINDS, ChristoffelSpec, curvature, curvature_at, over_grid,
                                ricci, ricci_sym)
from affsurf.expr import DomainError


@pytest.fixture(scope="module")
def records():
    return C.all_records()


def same_bits(got, want) -> bool:
    """Equal bit for bit, signs of zeros included, NaN matching NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def max_abs(values) -> float:
    """The oracle of the fail-closed fold `connection.max_abs`: the largest
    absolute value (0.0 for none), NaN as soon as one value is NaN."""
    worst = 0.0
    for v in values:
        a = abs(v)
        if a > worst:
            worst = a
        elif a != a:
            return math.nan
    return float(worst)


def ricci_at(spec, p):
    """rho as a 2x2 array."""
    return np.reshape(ricci(spec.symbols_at(p)), (2, 2))


def ricci_sym_at(spec, p):
    """The symmetrized Ricci tensor as a 2x2 array."""
    r11, r12, r22 = ricci_sym(spec.symbols_at(p))
    return np.array([[r11, r12], [r12, r22]])


def check_half_plane(spec, p):
    if spec.kind == "inverse-x1" and p[0] <= 0.0:
        raise DomainError(f"x1 must be positive for an inverse-x1 connection, got {p[0]}")


def christoffel_at(spec, p):
    """The six symbol values at a point, in (a, b, c, d, e, f) order, by
    kind."""
    check_half_plane(spec, p)
    a, b, c, d, e, f = spec.coeffs
    if spec.kind == "constant":
        return a, b, c, d, e, f
    if spec.kind == "inverse-x1":
        u = p[0]
        return a / u, b / u, c / u, d / u, e / u, f / u
    return a, b, c, d, e * p[0], f


def abcdef(symbols):
    """The symbols G of symbols_at's (G, dG) in (a, b, c, d, e, f) order."""
    G = symbols[0]
    return (*G[0][0], *G[0][1], *G[1][1])


def gamma_matrices(spec, p):
    """Symbols as an array G[i, j, k] = Gamma_ij^k."""
    a, b, c, d, e, f = christoffel_at(spec, p)
    return np.array([[[a, b], [c, d]], [[c, d], [e, f]]])


def dchristoffel_at(spec, p):
    """Exact (d/dx1, d/dx2) of the six symbols at a point, in (a, b, c, d,
    e, f) order, by kind."""
    check_half_plane(spec, p)
    zero = (0.0,) * 6
    if spec.kind == "constant":
        return zero, zero
    if spec.kind == "inverse-x1":
        u2 = p[0] * p[0]
        return tuple(-v / u2 for v in spec.coeffs), zero
    return (0.0, 0.0, 0.0, 0.0, spec.coeffs[4], 0.0), zero


def index_form(six):
    a, b, c, d, e, f = six
    return (((a, b), (c, d)), ((c, d), (e, f)))


def oracle_symbols(spec, p):
    """(G, dG) as symbols_at gives them, assembled from christoffel_at and
    dchristoffel_at."""
    return index_form(christoffel_at(spec, p)), tuple(index_form(d) for d in dchristoffel_at(spec, p))


def ricci_rank(spec, p, tol=1e-9):
    """Number of singular values of the symmetrized Ricci tensor exceeding
    tol * max(1, largest singular value)."""
    s = np.linalg.svd(ricci_sym_at(spec, p), compute_uv=False)
    cutoff = tol * max(1.0, float(s[0]) if len(s) else 1.0)
    return int(np.sum(s > cutoff))


def einsum_curvature(spec, p, symbols=None):
    """R[i, j, k, l] by the array formula: d_i G_jk^l - d_j G_ik^l, then one
    outer-product term G_iq^l G_jk^q - G_jq^l G_ik^q per q, of the symbols
    (G, dG) given, else of spec's at p.  The outer product is a broadcast
    product: np.einsum adds each product to a 0.0, which turns -0.0 to 0.0."""
    G, dG = spec.symbols_at(p) if symbols is None else symbols
    g, dg = np.array(G), np.array(dG)
    with np.errstate(over="ignore", invalid="ignore"):
        r = dg - dg.transpose(1, 0, 2, 3)
        for q in range(2):
            t = g[:, q, :][:, None, None, :] * g[:, :, q][None, :, :, None]
            r = r + (t - t.transpose(1, 0, 2, 3))
    return r


def einsum_ricci(spec, p, symbols=None):
    return np.einsum("ijki->jk", einsum_curvature(spec, p, symbols))


def einsum_ricci_sym(spec, p, symbols=None):
    rho = einsum_ricci(spec, p, symbols)
    with np.errstate(over="ignore"):
        return 0.5 * (rho + rho.T)


def oracle_curvature(spec, p, h=1e-6):
    """R_ijk^l from central differences of the symbols; independent of the
    analytic-derivative path in the library."""
    def gamma(q):
        a, b, c, d, e, f = christoffel_at(spec, q)
        return np.array([[[a, b], [c, d]], [[c, d], [e, f]]])

    g = gamma(p)
    dg = np.zeros((2, 2, 2, 2))
    for m in range(2):
        hi = list(p)
        lo = list(p)
        hi[m] += h
        lo[m] -= h
        dg[m] = (gamma(tuple(hi)) - gamma(tuple(lo))) / (2 * h)
    return loop_curvature(g, dg)


def loop_curvature(g, dg):
    """R_ijk^l = d_i G_jk^l - d_j G_ik^l + sum_q (G_iq^l G_jk^q - G_jq^l G_ik^q)
    summed longhand, from g[i, j, k] = G_ij^k and dg[m, i, j, k] = d_m G_ij^k."""
    r = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    v = dg[i, j, k, l] - dg[j, i, k, l]
                    for q in range(2):
                        v += g[i, q, l] * g[j, k, q] - g[j, q, l] * g[i, k, q]
                    r[i, j, k, l] = v
    return r


class TestChristoffelAt:
    """The symbol values that symbols_at gives at a point."""

    def test_flat_plane(self):
        rec = C.instantiate("A.M06")
        assert abcdef(rec.spec.symbols_at((3.0, -1.0))) == (0, 0, 0, 0, 0, 0)

    def test_hyperbolic_plane_scaling(self):
        rec = C.instantiate("B.N43")
        assert abcdef(rec.spec.symbols_at((2.0, 5.0))) == (-0.5, 0.0, 0.0, -0.5, 0.5, 0.0)

    def test_half_plane_boundary(self):
        rec = C.instantiate("B.N43")
        with pytest.raises(DomainError):
            rec.spec.symbols_at((0.0, 0.0))

    def test_torsion_symmetry_by_storage(self):
        spec = ChristoffelSpec((1, 2, 3, 4, 5, 6))
        g = np.array(spec.symbols_at((0.2, 0.4))[0])
        assert np.array_equal(g[0, 1], g[1, 0])

    def test_linear_x1_kind(self):
        rec = C.instantiate("A.M54t", c=2.0)
        a, b, c, d, e, f = abcdef(rec.spec.symbols_at((3.0, 7.0)))
        assert (a, b, c, d) == (0, 0, 0, 0)
        assert e == 5.0 * 3.0 and f == 4.0


def _leaves(t):
    if isinstance(t, tuple):
        for s in t:
            yield from _leaves(s)
    else:
        yield t


class TestSymbolsAt:
    @pytest.mark.parametrize("kind", ["constant", "inverse-x1", "linear-x1"])
    def test_agrees_with_gamma_matrices_and_derivatives(self, kind):
        spec = ChristoffelSpec((1.5, -2.0, 0.25, 3.0, -0.75, 0.5), kind)
        for p in [(0.7, -0.4), (1.3, 0.9), (2.0, 0.0)]:
            G, dG = spec.symbols_at(p)
            assert np.array_equal(np.array(G), gamma_matrices(spec, p))
            for m, six in enumerate(dchristoffel_at(spec, p)):
                a, b, c, d, e, f = six
                assert dG[m] == (((a, b), (c, d)), ((c, d), (e, f)))
            leaves = list(_leaves((G, dG)))
            assert len(leaves) == 24 and all(type(v) is float for v in leaves)

    def test_half_plane_boundary(self):
        spec = ChristoffelSpec((1, 0, 0, 0, 0, 0), "inverse-x1")
        with pytest.raises(DomainError):
            spec.symbols_at((0.0, 1.0))


class TestOverGrid:
    """A constant spec's connection data is evaluated once for a whole grid,
    the other kinds' once per point, and an empty grid evaluates none."""

    @pytest.mark.parametrize("kind", ["constant", "inverse-x1", "linear-x1"])
    def test_evaluations(self, kind):
        spec = ChristoffelSpec((1.5, -2.0, 0.25, 3.0, -0.75, 0.5), kind)
        grid = [(0.7, -0.4), (1.3, 0.9), (2.0, 0.0)]
        seen = []

        def fn(p):
            seen.append(p)
            return ricci_sym(spec.symbols_at(p))
        assert over_grid(spec, grid, fn) == [ricci_sym(spec.symbols_at(p)) for p in grid]
        assert seen == (grid[:1] if kind == "constant" else grid)
        seen.clear()
        assert over_grid(spec, [], fn) == [] and seen == []

    def test_checks_on_an_empty_grid(self):
        rec = C.instantiate("A.M46")
        assert qe.verify_q_basis(rec, []).residuals == (0.0, 0.0, 0.0)
        assert K.verify_killing_basis(rec, []) == ((0.0,) * 6, True)
        rep = P.flatten_report(rec, [])
        assert (rep.rho_tilde_max, rep.curvature_tilde_max, rep.qe_residual) == (0.0, 0.0, 0.0)


class TestCurvature:
    def test_flat_plane_zero(self):
        rec = C.instantiate("A.M06")
        assert np.all(curvature_at(rec.spec, (0.3, 0.8)) == 0)

    def test_m46_flat(self):
        rec = C.instantiate("A.M46")
        assert np.allclose(curvature_at(rec.spec, (0.3, 0.8)), 0, atol=1e-14)

    @pytest.mark.parametrize("fam,kw", [
        ("A.M34", {"c": 1.0}), ("A.M12", {"a1": 2.0, "a2": 3.0}),
        ("B.N43", {}), ("B.N14", {"kappa": 2.0}), ("A.M54t", {"c": 1.5}),
    ])
    def test_against_fd_oracle(self, fam, kw):
        rec = C.instantiate(fam, **kw)
        for p in [(0.7, -0.4), (1.3, 0.9)]:
            got = curvature_at(rec.spec, p)
            want = oracle_curvature(rec.spec, p)
            assert np.allclose(got, want, atol=1e-7), (fam, p)
        assert np.any(curvature_at(rec.spec, (0.7, -0.4)) != 0) or fam == "A.M06"

    def test_matches_summed_loop_exactly(self, records):
        # curvature_at adds the q terms in the loop's order, so the values
        # agree bit for bit, on the flattened specs too
        specs = [(r, r.spec) for r in records]
        specs += [(r, P.flatten(r.spec)[1]) for r in records if r.spec.kind == "constant"]
        for rec, spec in specs:
            for p in C.sample_grid(rec):
                a, b, c, d, e, f = dchristoffel_at(spec, p)[0]
                dg = np.zeros((2, 2, 2, 2))
                dg[0] = [[[a, b], [c, d]], [[c, d], [e, f]]]
                want = loop_curvature(gamma_matrices(spec, p), dg)
                assert np.array_equal(curvature_at(spec, p), want), (rec.ref.label(), p)

    def test_antisymmetry_in_first_pair(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            spec = ChristoffelSpec(tuple(rng.uniform(-2, 2, size=6)))
            r = curvature_at(spec, (0.0, 0.0))
            assert np.allclose(r, -np.transpose(r, (1, 0, 2, 3)), atol=1e-12)
        for _ in range(25):
            spec = ChristoffelSpec(tuple(rng.uniform(-2, 2, size=6)), "inverse-x1")
            for p in [(0.5, -1.0), (2.0, 0.7)]:
                r = curvature_at(spec, p)
                assert np.allclose(r, -np.transpose(r, (1, 0, 2, 3)), atol=1e-12)


class TestMatchesArrayFormulas:
    """Curvature, Ricci and symmetrized Ricci equal the array (einsum)
    formulas bit for bit, NaN positions included, in both the tuple and the
    array forms."""

    @staticmethod
    def check(spec, p):
        R = einsum_curvature(spec, p)
        assert same_bits(curvature(spec.symbols_at(p)), R.ravel()), p
        assert same_bits(curvature_at(spec, p), R), p
        rho = einsum_ricci(spec, p)
        assert same_bits(ricci(spec.symbols_at(p)), rho.ravel()), p
        assert same_bits(ricci_at(spec, p), rho), p
        rs = einsum_ricci_sym(spec, p)
        assert same_bits(ricci_sym(spec.symbols_at(p)), [rs[0, 0], rs[0, 1], rs[1, 1]]), p
        assert same_bits(ricci_sym_at(spec, p), rs), p

    def test_catalog_and_flattened_specs(self, records):
        specs = [(r, r.spec) for r in records]
        specs += [(r, P.flatten(r.spec)[1]) for r in records if r.spec.kind == "constant"]
        for rec, spec in specs:
            for p in C.sample_grid(rec):
                self.check(spec, p)

    @pytest.mark.parametrize("kind", ["constant", "inverse-x1", "linear-x1"])
    def test_random_specs(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(40):
            scale = 10.0 ** rng.integers(-3, 4, size=6)
            spec = ChristoffelSpec(tuple(rng.uniform(-2, 2, size=6) * scale), kind)
            for p in [(0.3, -1.2), (1.7, 0.4)]:
                self.check(spec, p)

    def test_overflow_fails_closed(self):
        # symbols 1e200 and 2e200: the quadratic terms overflow to inf and
        # their differences are NaN
        rec = C.instantiate("A.M34", c=1e200)
        grid = C.sample_grid(rec)
        for p in grid:
            self.check(rec.spec, p)
        assert np.isnan(ricci_sym(rec.spec.symbols_at(grid[0]))).any()
        residuals = qe.max_residual(rec.spec, rec.q_basis, grid)
        assert len(residuals) == len(rec.q_basis) and all(math.isnan(r) for r in residuals)


@st.composite
def drawn_specs_and_points(draw):
    """A spec of any kind with moderate or arbitrary finite coefficients,
    and a point whose x1 is moderate, arbitrary or NaN."""
    moderate = st.floats(-4.0, 4.0)
    anything = st.floats(allow_nan=False, allow_infinity=False)
    coeffs = tuple(draw(st.one_of(moderate, anything)) for _ in range(6))
    x1 = draw(st.one_of(moderate, anything, st.just(math.nan)))
    return ChristoffelSpec(coeffs, draw(st.sampled_from(KINDS))), (x1, draw(moderate))


class TestDrawnPoints:
    """On drawn specs and points of all three kinds, symbols_at equals the
    symbols assembled from christoffel_at and dchristoffel_at, and
    curvature, ricci and ricci_sym equal the einsum and the summed-loop
    formulas on those symbols, bit for bit, NaN positions included.  Where
    the oracle raises DomainError off the half-plane, symbols_at raises it
    with the same message; where it raises ZeroDivisionError because
    x1 * x1 underflows to 0.0, symbols_at raises DomainError naming the
    underflow."""

    @settings(max_examples=400, deadline=None)
    @given(drawn_specs_and_points())
    def test_against_oracles(self, case):
        spec, p = case
        try:
            want = oracle_symbols(spec, p)
        except DomainError as err:
            with pytest.raises(DomainError) as raised:
                spec.symbols_at(p)
            assert str(raised.value) == str(err)
            return
        except ZeroDivisionError:
            with pytest.raises(DomainError, match="underflows to 0.0"):
                spec.symbols_at(p)
            return
        got = spec.symbols_at(p)
        leaves = list(_leaves(got))
        assert len(leaves) == 24 and all(type(v) is float for v in leaves)
        assert same_bits(leaves, list(_leaves(want)))
        with np.errstate(all="ignore"):
            R = loop_curvature(np.array(want[0]), np.array(want[1]))
            rho = np.array([[0.0 + R[0, j, k, 0] + R[1, j, k, 1] for k in (0, 1)] for j in (0, 1)])
            rho_s = 0.5 * (rho + rho.T)
            einsum = (einsum_curvature(spec, p, want), einsum_ricci(spec, p, want),
                      einsum_ricci_sym(spec, p, want))
        for oracle in ((R, rho, rho_s), einsum):
            assert same_bits(curvature(got), oracle[0].ravel())
            assert same_bits(ricci(got), oracle[1].ravel())
            assert same_bits(ricci_sym(got), [oracle[2][0, 0], oracle[2][0, 1], oracle[2][1, 1]])


class TestUnderflowingX1:
    """An inverse-x1 spec raises DomainError, not ZeroDivisionError, at
    0 < x1 < LEAST, where x1 * x1 underflows to 0.0; from LEAST up, and at
    a NaN x1, its symbols keep their bits."""

    LEAST = 1.5717277847026288e-162  # the least x1 with x1 * x1 > 0.0
    spec = ChristoffelSpec((1.5, -2.0, 0.25, 3.0, -0.75, 0.5), "inverse-x1")

    def test_least_square(self):
        assert self.LEAST * self.LEAST > 0.0
        below = math.nextafter(self.LEAST, 0.0)
        assert below * below == 0.0

    @pytest.mark.parametrize("x1", [5e-324, 1e-200, math.nextafter(LEAST, 0.0)])
    def test_underflow_is_a_domain_error(self, x1):
        with pytest.raises(DomainError, match=f"underflows to 0.0 .* at x1 = {re.escape(str(x1))}$"):
            self.spec.symbols_at((x1, 0.5))
        with pytest.raises(ZeroDivisionError):
            oracle_symbols(self.spec, (x1, 0.5))

    @pytest.mark.parametrize("x1", [LEAST, 1e-100, math.nan])
    def test_other_points_keep_their_bits(self, x1):
        got = list(_leaves(self.spec.symbols_at((x1, 0.5))))
        assert same_bits(got, list(_leaves(oracle_symbols(self.spec, (x1, 0.5)))))


class TestRicci:
    def test_frozen_value_rank_one_family(self):
        # hand evaluation of sum_i (G_ip^i G_jk^p - G_jp^i G_ik^p) for the
        # c = 1 member: the only nonzero entry is rho_22 = 3 - 1 = 2
        rec = C.instantiate("A.M34", c=1.0)
        for p in [(0.0, 0.0), (1.2, -0.7)]:
            assert np.allclose(ricci_at(rec.spec, p), [[0, 0], [0, 2]], atol=1e-14)

    def test_flat_families_zero(self):
        for fam in ("A.M06", "A.M16", "A.M26", "A.M36", "A.M46", "A.M56"):
            rec = C.instantiate(fam)
            assert np.allclose(ricci_at(rec.spec, (0.4, -0.9)), 0, atol=1e-14)

    def test_constant_symbols_give_symmetric_ricci(self):
        rng = np.random.default_rng(11)
        grid = [(u, v) for u in np.linspace(-1, 1, 10) for v in np.linspace(-1, 1, 10)]
        for _ in range(50):
            spec = ChristoffelSpec(tuple(rng.uniform(-3, 3, size=6)))
            for p in grid[::7]:
                rho = ricci_at(spec, p)
                assert abs(rho[0, 1] - rho[1, 0]) <= 1e-12

    def test_symmetrization(self):
        spec = ChristoffelSpec((0.3, -1.0, 0.2, 0.9, 1.1, -0.4), "inverse-x1")
        p = (0.8, 0.3)
        rho = ricci_at(spec, p)
        rs = ricci_sym_at(spec, p)
        assert np.allclose(rs, 0.5 * (rho + rho.T))


class TestRank:
    def test_rank_two_family(self):
        rec = C.instantiate("A.M12", a1=2.0, a2=3.0)
        assert ricci_rank(rec.spec, (0.0, 0.0)) == 2

    def test_rank_one_embedding_target(self):
        rec = C.instantiate("A.M44", c=0.0)
        assert ricci_rank(rec.spec, (0.0, 0.0)) == 1

    def test_rank_zero_flat(self):
        rec = C.instantiate("A.M06")
        assert ricci_rank(rec.spec, (0.0, 0.0)) == 0

    def test_rank_matches_expectation_across_catalog(self):
        for rec in C.all_records():
            want = rec.expected.ricci_rank
            if want is None:
                continue
            p = rec.base_point
            assert ricci_rank(rec.spec, p) == want, rec.ref.label()

    def test_flat_detection_for_half_plane_six_families(self):
        for rec in C.all_records("B"):
            if rec.expected.dim_killing != 6:
                continue
            p = (0.9, -0.3)
            assert ricci_rank(rec.spec, p) == 0
            assert np.allclose(curvature_at(rec.spec, p), 0, atol=1e-12), rec.ref.label()


#: floats of every class: NaN, signed zeros and infinities, subnormals
EDGE_FLOATS = (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, -1.5, 1.5)


def fold_outcome(fn, values):
    """fn(values) as float.hex ("nan" for any NaN), or the exception it raised
    as (type, message)."""
    try:
        v = fn(values)
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return type(err), str(err)
    assert type(v) is float
    return "nan" if v != v else v.hex()


class TestMaxAbs:
    """connection.max_abs, the fold that _max_abs_kernel writes, against
    the Python loop it replaced: the same value bit for bit, NaN at the
    first NaN, and the same exception where the values raise first."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), max_size=12))
    @example([])
    @example([-0.0])
    @example([5e-324, -5e-324, -0.0])
    @example([1.0, math.nan, math.inf])
    @example([-math.inf, math.nan])
    def test_drawn_lists(self, values):
        assert fold_outcome(connection.max_abs, values) == fold_outcome(max_abs, values)

    @staticmethod
    def raising(values, exc):
        yield from values
        raise exc

    def test_raise_after_the_first_nan_is_not_reached(self):
        for fn in (connection.max_abs, max_abs):
            assert math.isnan(fn(self.raising([1.0, math.nan, 2.0], DomainError("late"))))

    def test_raise_before_any_nan_propagates(self):
        for fn in (connection.max_abs, max_abs):
            with pytest.raises(ZeroDivisionError, match="^early$"):
                fn(self.raising([1.0, -3.0], ZeroDivisionError("early")))
