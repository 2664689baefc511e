"""Atlas construction: guards, counts, samples, expression hygiene."""

import numpy as np
import pytest

from affsurf import catalog as C
from affsurf import expr as ex
from test_connection import christoffel_at
from test_expr import field_at, parse_expr


def all_catalog_exprs():
    seen = []
    for rec in C.all_records():
        seen.extend(rec.q_basis)
        for k in rec.killing_basis:
            seen.extend([k.c1, k.c2])
        for m in rec.maps:
            seen.extend([m.plane_map.f1, m.plane_map.f2])
    return seen


class TestFamilies:
    def test_counts(self):
        assert len(C.families("A")) == 15
        assert len(C.families("B")) == 14
        assert len(C.families("aux")) == 1

    def test_sample_records_instantiate(self):
        recs = C.all_records()
        assert len(recs) == 73
        for rec in recs:
            assert len(rec.killing_basis) == rec.expected.dim_killing
            assert len(rec.q_basis) in (0, 3)

    def test_trivial_solution_spaces(self):
        assert C.instantiate("B.N13", sign=1).q_basis == ()
        assert C.instantiate("B.N23", c=0.5).q_basis == ()

    def test_dimension_ranges(self):
        for rec in C.all_records("A"):
            assert rec.expected.dim_killing in (2, 4, 6)
        for rec in C.all_records("B"):
            assert rec.expected.dim_killing in (2, 3, 4, 6)


class TestGuards:
    def test_m24_guard_message(self):
        with pytest.raises(C.GuardError, match="c ∉ \\{0, -1\\} violated"):
            C.instantiate("A.M24", c=0)

    @pytest.mark.parametrize("fam,kw", [
        ("A.M24", {"c": -1.0}), ("A.M34", {"c": 0.0}),
        ("A.M12", {"a1": 0.0, "a2": 3.0}), ("A.M12", {"a1": -1.0, "a2": 2.0}),
        ("A.M22", {"b1": 1.0, "b2": 0.0}), ("A.M32", {"c": 0.0}),
        ("A.M42", {"sign": 0.5}), ("B.N26", {"c": 0.0}),
        ("B.N66", {"c": -1.0}), ("B.N14", {"kappa": -1.0}),
        ("B.N24", {"kappa": -3.0, "theta": 3.0}), ("B.N24", {"kappa": 1.0, "theta": 0.0}),
        ("B.N34", {"kappa": 0.0}), ("B.N16", {"sign": 2.0}),
    ])
    def test_guard_violations(self, fam, kw):
        with pytest.raises(C.GuardError):
            C.instantiate(fam, **kw)

    @pytest.mark.parametrize("fam,kw,message", [
        ("A.M12", {"a1": 0.0, "a2": 3.0}, "A.M12: a1*a2 ≠ 0 violated"),
        ("A.M12", {"a1": -1.0, "a2": 2.0}, "A.M12: a1+a2 ≠ 1 violated"),
        ("A.M24", {"c": -1.0}, "A.M24: c ∉ {0, -1} violated"),
        ("A.M34", {"c": 0.0}, "A.M34: c ∉ {0, -1} violated"),
        ("B.N66", {"c": 0.0}, "B.N66: c ∉ {0, -1} violated"),
        ("A.M32", {"c": 0.0}, "A.M32: c ≠ 0 violated"),
        ("B.N26", {"c": 0.0}, "B.N26: c ≠ 0 violated"),
        ("B.N34", {"kappa": 0.0}, "B.N34: κ ≠ 0 violated"),
        ("B.N14", {"kappa": 0.0}, "B.N14: κ ∉ {0, -1} violated"),
        ("A.M22", {"b1": 1.0, "b2": 0.0}, "A.M22: b1 ≠ 1 violated"),
        ("A.M42", {"sign": 0.5}, "A.M42: sign ∈ {+1, -1} violated"),
        ("B.N16", {"sign": 2.0}, "B.N16: sign ∈ {+1, -1} violated"),
        ("B.N13", {"sign": 0.0}, "B.N13: sign ∈ {+1, -1} violated"),
        ("B.N24", {"kappa": 1.0, "theta": 0.0}, "B.N24: θ ≠ 0 violated"),
        ("B.N24", {"kappa": -3.0, "theta": 3.0}, "B.N24: κ ∉ {0, -θ} violated"),
        # θ is checked first, although the guard text lists κ first
        ("B.N24", {"kappa": 0.0, "theta": 0.0}, "B.N24: θ ≠ 0 violated"),
    ])
    def test_guard_messages(self, fam, kw, message):
        with pytest.raises(C.GuardError) as err:
            C.instantiate(fam, **kw)
        assert str(err.value) == message

    def test_parameter_and_family_messages(self):
        cases = [(lambda: C.ref("A.M24"), "A.M24: missing parameter 'c'"),
                 (lambda: C.ref("A.M06", c=1.0), "A.M06: unknown parameter(s) ['c']"),
                 (lambda: C.ref("A.M12", a1=2.0, a2=3.0, b=1.0),
                  "A.M12: unknown parameter(s) ['b']"),
                 (lambda: C.ref("A.M99"), "unknown family 'A.M99'"),
                 (lambda: C.instantiate("A.M99", c=1.0), "unknown family 'A.M99'"),
                 (lambda: C.standard_samples("B.N99"), "unknown family 'B.N99'"),
                 (lambda: C.instantiate_ref(C.ModelRef("A.M99")), "unknown family 'A.M99'"),
                 (lambda: C.parse_family_token("B.N99"), "unknown family 'B.N99'")]
        for call, message in cases:
            with pytest.raises(C.GuardError) as err:
                call()
            assert str(err.value) == message

    def test_missing_and_unknown_params(self):
        with pytest.raises(C.GuardError):
            C.ref("A.M24")
        with pytest.raises(C.GuardError):
            C.ref("A.M06", c=1.0)

    def test_samples_respect_guards(self):
        for fam in C.FAMILIES:
            for params in C.standard_samples(fam):
                C.instantiate(fam, **params)


class TestCoefficients:
    def test_m54_display(self):
        rec = C.instantiate("A.M54", c=2.0)
        assert rec.spec.coeffs == (1.0, 0.0, 0.0, 0.0, 5.0, 4.0)

    def test_n16_display_and_basis(self):
        rec = C.instantiate("B.N16", sign=1)
        assert rec.spec.coeffs == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        assert rec.spec.kind == "inverse-x1"
        rendered = [ex.render(q) for q in rec.q_basis]
        assert rendered == ["1", "x2", "x1^2 + x2^2"]

    def test_n13_sign_convention(self):
        # the label sign is opposite to the stored e-coefficient
        assert C.instantiate("B.N13", sign=1).spec.coeffs == (-1.5, 0.0, 0.0, -0.5, -0.5, 0.0)
        assert C.instantiate("B.N13", sign=-1).spec.coeffs == (-1.5, 0.0, 0.0, -0.5, 0.5, 0.0)

    def test_n43_scaled_by_inverse_x1(self):
        rec = C.instantiate("B.N43")
        assert christoffel_at(rec.spec, (2.0, 5.0)) == (-0.5, 0.0, 0.0, -0.5, 0.5, 0.0)

    def test_m12_shared_denominator(self):
        rec = C.instantiate("A.M12", a1=2.0, a2=3.0)
        assert rec.spec.coeffs == (1.5, 0.5, 1.5, 1.5, 1.5, 2.5)

    def test_dim2_bases(self):
        rec = C.instantiate("A.M12", a1=2.0, a2=3.0)
        assert [ (ex.render(k.c1), ex.render(k.c2)) for k in rec.killing_basis ] == \
            [("1", "0"), ("0", "1")]

    def test_m34_killing_basis_form(self):
        import math
        rec = C.instantiate("A.M34", c=2.0)
        p = (0.7, 0.4)
        vals = [field_at(k, p) for k in rec.killing_basis]
        assert vals[0] == (1.0, 0.0)
        assert vals[1] == (0.7, 0.0)
        assert vals[2] == (math.exp(0.4), 0.0)
        assert vals[3] == (-2.0 * 0.7, 1.0)

    def test_n33_killing_span_contains_quadratic_field(self):
        rec = C.instantiate("B.N33")
        c1, c2 = rec.killing_basis[0].c1, rec.killing_basis[0].c2
        assert ex.evaluate(c1, (2.0, 3.0)) == 12.0      # 2*x1*x2
        assert ex.evaluate(c2, (2.0, 3.0)) == 13.0      # x2^2 + x1^2


class TestRoundTrip:
    def test_every_catalog_expression_round_trips(self):
        for e in all_catalog_exprs():
            assert parse_expr(ex.render(e)) == e


class TestDerivativeProperty:
    def test_thousand_fd_pairs(self):
        """1000 (expression, point) pairs from catalog bases and grids:
        exact derivative within 1e-6 relative of a central difference."""
        rng = np.random.default_rng(20240815)
        records = C.all_records()
        checked = 0
        while checked < 1000:
            rec = records[int(rng.integers(len(records)))]
            pool = list(rec.q_basis) or [k.c1 for k in rec.killing_basis]
            e = pool[int(rng.integers(len(pool)))]
            grid = C.sample_grid(rec)
            p = grid[int(rng.integers(len(grid)))]
            axis = int(rng.integers(1, 3))
            d = ex.diff(e, axis)
            got = ex.evaluate(d, p)
            h = 1e-5
            lo, hi = list(p), list(p)
            lo[axis - 1] -= h
            hi[axis - 1] += h
            want = (ex.evaluate(e, tuple(hi)) - ex.evaluate(e, tuple(lo))) / (2 * h)
            assert abs(got - want) <= 1e-6 * (1 + abs(got)), (rec.ref.label(), ex.render(e), p)
            checked += 1


class TestJsonDump:
    def test_record_serializes(self):
        rec = C.instantiate("B.N24", kappa=0.5, theta=0.25)
        d = rec.to_json()
        assert d["spec"]["kind"] == "inverse-x1"
        assert d["expected"]["geodesically_complete"] == "not-classified"
        assert d["maps"][0]["target"]["family"] == "A.M34"

    def test_family_aliases(self):
        assert C.parse_family_token("B.N13p") == ("B.N13", {"sign": 1.0})
        assert C.parse_family_token("B.N13plus") == ("B.N13", {"sign": 1.0})
        assert C.parse_family_token("B.N13m") == ("B.N13", {"sign": -1.0})
        with pytest.raises(C.GuardError):
            C.parse_family_token("B.N99")
