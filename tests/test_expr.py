"""Expression core: parsing, rendering, differentiation, evaluation."""

import gc
import math
from fractions import Fraction
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsurf import catalog as C
from affsurf import connection
from affsurf import expr as ex
from affsurf import integrate, killing, qe
from affsurf.expr import (DomainError, Exponent, ScalarExpr, _func, add, const, mul, neg, power,
                          x1, x2)


# ---------------------------------------------------------------------------
# the infix parser: the round-trip oracle for `render`, which the catalog
# JSON uses, and a compact way to write test expressions

_FUNCS = ("exp", "log", "sin", "cos", "arctan")


class ParseError(ValueError):
    """Syntax or identifier error; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def arctan(arg) -> ScalarExpr:
    return _func("arctan", arg)


def parse_expr(text: str, params: Mapping[str, float] | None = None) -> ScalarExpr:
    """Parse the infix grammar:

        expr   := ['-'] term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := base ('^' exponent)?
        base   := number | ident | '(' expr ')' | func '(' expr ')'
        func in {exp, log, sin, cos, arctan}

    Identifiers are x1, x2 or named parameters supplied via `params`
    (bound to constants at parse time).  Exponents are numbers, signed
    rationals like (-3/2), or parameter names.
    """
    p = _Parser(text, dict(params or {}))
    e = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError(f"unexpected input {text[p.pos]!r}", p.pos)
    return e


class _Parser:
    def __init__(self, text: str, params: dict):
        self.text = text
        self.pos = 0
        self.params = params

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_expr(self) -> ScalarExpr:
        terms = []
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        t = self.parse_term()
        terms.append(t if sign > 0 else neg(t))
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            t = self.parse_term()
            terms.append(t if op == "+" else neg(t))
        return add(*terms)

    def parse_term(self) -> ScalarExpr:
        factors = [self.parse_factor()]
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            f = self.parse_factor()
            factors.append(f if op == "*" else power(f, -1))
        return mul(*factors)

    def parse_factor(self) -> ScalarExpr:
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            return power(base, self.parse_exponent())
        return base

    def parse_base(self) -> ScalarExpr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if ch.isdigit() or ch == ".":
            return const(self.parse_number())
        if ch.isalpha() or ch == "_":
            start = self.pos
            name = self.parse_ident()
            if name in _FUNCS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return _func(name, arg)
            if name == "x1":
                return x1
            if name == "x2":
                return x2
            if name in self.params:
                return const(self.params[name])
            raise ParseError(f"unknown identifier {name!r}", start)
        raise ParseError("expected a number, identifier or '('", self.pos)

    def parse_ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def parse_number(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            probe = self.pos + 1
            if probe < len(text) and text[probe] in "+-":
                probe += 1
            if probe < len(text) and text[probe].isdigit():
                self.pos = probe
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
        tok = text[start:self.pos]
        if tok.count(".") == 0 and "e" not in tok and "E" not in tok:
            return Fraction(int(tok))
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"bad number {tok!r}", start) from None

    def parse_exponent(self) -> Exponent:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                self.pos += 1
                sign = -1
            num = self.parse_number()
            if self.peek() == "/":
                self.pos += 1
                den = self.parse_number()
                if not isinstance(num, Fraction) or not isinstance(den, Fraction):
                    raise ParseError("rational exponent must be integer/integer", self.pos)
                num = Fraction(num, den)
            self.expect(")")
            return sign * num if isinstance(num, Fraction) else sign * float(num)
        if ch.isdigit() or ch == ".":
            return self.parse_number()
        if ch.isalpha():
            start = self.pos
            name = self.parse_ident()
            if name in self.params:
                v = self.params[name]
                return Fraction(v) if isinstance(v, (int, Fraction)) else float(v)
            raise ParseError(f"unknown identifier {name!r}", start)
        raise ParseError("expected an exponent", self.pos)



def plain_diff(e: ScalarExpr, axis: int) -> ScalarExpr:
    """The differentiation rule without `diff`'s per-call memo: a node the
    tree holds more than once is differentiated again at each occurrence.
    The structural-equality oracle for `diff`."""
    if isinstance(e, ex.Const):
        return ex.ZERO
    if isinstance(e, ex.Coord):
        return ex.ONE if e.axis == axis else ex.ZERO
    if isinstance(e, ex.Sum):
        return add(*(plain_diff(t, axis) for t in e.terms))
    if isinstance(e, ex.Prod):
        parts = []
        fs = e.factors
        for i in range(len(fs)):
            parts.append(mul(*fs[:i], plain_diff(fs[i], axis), *fs[i + 1:]))
        return add(*parts)
    if isinstance(e, ex.Pow):
        p = e.exponent
        return mul(const(p), power(e.base, p - 1), plain_diff(e.base, axis))
    if isinstance(e, ex.Func):
        du = plain_diff(e.arg, axis)
        u = e.arg
        if e.name == "exp":
            return mul(ex.exp(u), du)
        if e.name == "log":
            return mul(power(u, -1), du)
        if e.name == "sin":
            return mul(ex.cos(u), du)
        if e.name == "cos":
            return mul(const(-1), ex.sin(u), du)
        if e.name == "arctan":
            return mul(power(add(ex.ONE, power(u, 2)), -1), du)
    raise TypeError(f"not a ScalarExpr: {e!r}")


def jet_trees(e, d=ex.diff):
    """(e, d1 e, d2 e, d1 d1 e, d1 d2 e, d2 d2 e), the trees `compile_jet`
    differentiates, by the rule d."""
    d1, d2 = d(e, 1), d(e, 2)
    return (e, d1, d2, d(d1, 1), d(d1, 2), d(d2, 2))


def catalog_components(rec):
    """Every q-basis element, Killing-field component and map component
    of a record."""
    return (list(rec.q_basis) + [c for X in rec.killing_basis for c in (X.c1, X.c2)]
            + [f for m in rec.maps for f in (m.plane_map.f1, m.plane_map.f2)])


def central_fd(e, axis, p, h=1e-5):
    lo = list(p)
    hi = list(p)
    lo[axis - 1] -= h
    hi[axis - 1] += h
    return (ex.evaluate(e, tuple(hi)) - ex.evaluate(e, tuple(lo))) / (2 * h)


class TestParse:
    def test_product_of_functions(self):
        e = parse_expr("exp(x1)*cos(x2)")
        assert e == ex.mul(ex.exp(ex.x1), ex.cos(ex.x2))

    def test_x_log_x(self):
        e = parse_expr("x1*log(x1)")
        assert e == ex.mul(ex.x1, ex.log(ex.x1))

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1^(1/2")
        assert err.value.offset == 7

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("x1 + kappa")

    def test_parameter_binding(self):
        e = parse_expr("x1^kappa", params={"kappa": -1.0})
        assert ex.evaluate(e, (2.0, 0.0)) == 0.5

    def test_division_folds_to_fraction(self):
        assert parse_expr("3/4") == ex.const(Fraction(3, 4))

    def test_rational_exponent(self):
        e = parse_expr("x1^(-3/2)")
        assert e == ex.power(ex.x1, Fraction(-3, 2))


CATALOG_LIKE = [
    "exp(x1)*cos(x2)",
    "x1*log(x1)",
    "x2/x1 + log(x1)",
    "x1^(1/2) - 2*x2^3",
    "(x2^2 + 2*x1)*exp(x2)",
    "arctan(x2/x1)",
    "exp(0.25*x2)*sin(x2)",
    "1 - x1 + 3/4*x2",
    "x1^(0.75)*x2",
]


@pytest.mark.parametrize("text", CATALOG_LIKE)
def test_round_trip(text):
    e = parse_expr(text)
    assert parse_expr(ex.render(e)) == e


@st.composite
def small_exprs(draw, depth=0):
    if depth >= 3:
        leaf = draw(st.sampled_from(["x1", "x2", "const"]))
        if leaf == "const":
            return ex.const(Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))))
        return ex.x1 if leaf == "x1" else ex.x2
    kind = draw(st.sampled_from(["leaf", "sum", "prod", "pow", "func"]))
    if kind == "leaf":
        return draw(small_exprs(depth=3))
    if kind == "sum":
        return ex.add(draw(small_exprs(depth=depth + 1)), draw(small_exprs(depth=depth + 1)))
    if kind == "prod":
        return ex.mul(draw(small_exprs(depth=depth + 1)), draw(small_exprs(depth=depth + 1)))
    if kind == "pow":
        return ex.power(draw(small_exprs(depth=depth + 1)),
                        draw(st.sampled_from([2, 3, Fraction(1, 2), Fraction(-1, 1), 0.37])))
    fn = draw(st.sampled_from([ex.exp, ex.sin, ex.cos, arctan]))
    return fn(draw(small_exprs(depth=depth + 1)))


@settings(max_examples=120, deadline=None)
@given(small_exprs())
def test_round_trip_generated(e):
    assert parse_expr(ex.render(e)) == e


class TestEvaluate:
    def test_exp_cos_at_origin(self):
        assert ex.evaluate(parse_expr("exp(x1)*cos(x2)"), (0.0, 0.0)) == 1.0

    def test_negative_power(self):
        assert ex.evaluate(ex.power(ex.x1, -1), (2.0, 0.0)) == 0.5

    def test_log_domain_error(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.log(ex.x1), (-1.0, 0.0))

    def test_fractional_power_of_negative(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.power(ex.x1, Fraction(1, 2)), (-4.0, 0.0))

    def test_zero_to_negative_power(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.power(ex.x1, -2), (0.0, 0.0))


class TestDiff:
    def test_product_rule_value(self):
        d = ex.diff(parse_expr("x1*log(x1)"), 1)
        for u in (0.5, 1.0, 2.0, 3.7):
            assert d and abs(ex.evaluate(d, (u, 0.0)) - (math.log(u) + 1)) < 1e-12

    def test_chain_rule_value(self):
        c = 0.7
        e = ex.mul(ex.exp(ex.mul(ex.const(c), ex.x2)), ex.sin(ex.x2))
        d = ex.diff(e, 2)
        for v in (-1.0, 0.0, 0.4):
            want = math.exp(c * v) * (c * math.sin(v) + math.cos(v))
            assert abs(ex.evaluate(d, (0.0, v)) - want) < 1e-12

    def test_independence(self):
        assert ex.diff(arctan(ex.x2), 1) == ex.ZERO

    def test_diff_closed_and_simplified_stable(self):
        for text in CATALOG_LIKE:
            e = parse_expr(text)
            d = ex.diff(e, 1)
            assert isinstance(d, ex.ScalarExpr)
            # constructors already simplify; re-rendering must round trip
            assert parse_expr(ex.render(d)) == d

    @pytest.mark.parametrize("text", CATALOG_LIKE)
    @pytest.mark.parametrize("axis", [1, 2])
    def test_against_central_difference(self, text, axis):
        e = parse_expr(text)
        d = ex.diff(e, axis)
        for p in [(0.5, 0.25), (1.5, -0.75), (2.0, 1.0)]:
            want = central_fd(e, axis, p)
            got = ex.evaluate(d, p)
            assert abs(got - want) <= 1e-6 * (1 + abs(got))

    def test_equals_plain_rule_on_catalog(self):
        # the jet trees of every catalog component, and the shared sources
        # compile_jet emits from them, character for character
        checked = 0
        for rec in C.all_records():
            for e in catalog_components(rec):
                got, want = jet_trees(e), jet_trees(e, plain_diff)
                assert got == want, (rec.ref.label(), e)
                assert ex._emit_shared(got) == ex._emit_shared(want), (rec.ref.label(), e)
                checked += 1
        assert checked > 800

    def test_each_node_once_per_call(self, monkeypatch):
        # d1 of a product repeats its factors in every Leibniz term; each
        # distinct compound node is differentiated once, which visits each
        # of its operands once
        d1 = ex.diff(parse_expr("exp(x1)*sin(x1*x2)*log(x1)*x2^3"), 1)
        distinct = {id(t): t for t in _nodes(d1)}
        visits = []
        recurse = ex._diff

        def spy(t, axis, done):
            visits.append(t)
            return recurse(t, axis, done)
        monkeypatch.setattr(ex, "_diff", spy)
        assert ex.diff(d1, 1) == plain_diff(d1, 1)
        assert len(visits) == 1 + sum(len(_operands(t)) for t in distinct.values())
        assert len(visits) < len(list(_nodes(d1)))


def _operands(t):
    """The direct operands of an expression node."""
    return getattr(t, "terms", ()) + getattr(t, "factors", ()) + tuple(
        getattr(t, a) for a in ("base", "arg") if hasattr(t, a))


def _nodes(t):
    """Every node of a tree, once per place it occurs."""
    yield t
    for c in _operands(t):
        yield from _nodes(c)


@settings(max_examples=120, deadline=None)
@given(small_exprs())
def test_diff_equals_plain_rule_generated(e):
    assert jet_trees(e) == jet_trees(e, plain_diff)


class TestDataProtocol:
    """The package's data classes (`ex.Data`) compare, hash and print as
    frozen dataclasses did: equal only within one class, field by field."""

    def test_repr_of_every_node_kind(self):
        tree = ex.Sum((ex.Const(Fraction(1, 2)),
                       ex.Prod((ex.Coord(1), ex.Pow(ex.Coord(2), Fraction(1, 2)))),
                       ex.Func("exp", ex.Pow(ex.Coord(1), -0.5))))
        assert repr(tree) == (
            "Sum(terms=(Const(value=Fraction(1, 2)), Prod(factors=(Coord(axis=1), "
            "Pow(base=Coord(axis=2), exponent=Fraction(1, 2)))), Func(name='exp', "
            "arg=Pow(base=Coord(axis=1), exponent=-0.5))))")

    def test_kinds_with_the_same_fields_differ(self):
        t = (x1, x2)
        assert ex.Sum(t) != ex.Prod(t) and not ex.Sum(t) == ex.Prod(t)
        assert ex.Sum(t) == ex.Sum(t) and hash(ex.Sum(t)) == hash(ex.Sum(t))
        assert ex.VectorFieldExpr(x1, x2) != ex.PlaneMap(x1, x2)

    def test_records_compare_by_value(self):
        for a, b in zip(C.all_records(), C.all_records(), strict=True):
            assert a is not b and a == b and hash(a) == hash(b), a.ref.label()

    def test_statuses_compare_by_value_within_a_class(self):
        assert integrate.LeftDomain(1.0) == integrate.LeftDomain(1.0)
        assert hash(integrate.Blowup(1.0, 2.0)) == hash(integrate.Blowup(1.0, 2.0))
        assert integrate.LeftDomain(1.0) != integrate.Unbounded(1.0)
        assert integrate.ReachedHorizon(1.0) != integrate.LeftDomain(1.0)

    def test_probe_reports_never_share_witnesses(self):
        a, b = (killing.ProbeReport("A.M06", "killing", True, 1.0, True) for _ in range(2))
        a.witnesses.append(None)
        assert a.witnesses is not b.witnesses and b.witnesses == []


class TestCompile:
    def test_matches_interpreter(self):
        e = parse_expr("exp(0.3*x2)*sin(x2) + x1^(5/3)*log(x1) - arctan(x1*x2)")
        f = ex.compile_scalar(e)
        for p in [(0.5, -1.0), (1.0, 0.0), (2.5, 2.0)]:
            assert abs(f(*p) - ex.evaluate(e, p)) < 1e-14

    def test_domain_error_propagates(self):
        f = ex.compile_scalar(ex.log(ex.x1))
        with pytest.raises(ex.DomainError):
            f(-1.0, 0.0)
        g = ex.compile_scalar(ex.power(ex.x1, Fraction(1, 2)))
        with pytest.raises(ex.DomainError):
            g(-1.0, 0.0)
        h = ex.compile_scalar(ex.power(ex.x1, -1))
        with pytest.raises(ZeroDivisionError):
            h(0.0, 0.0)

    def test_overflow_raises(self):
        f = ex.compile_scalar(ex.exp(ex.x1))
        with pytest.raises(OverflowError):
            f(1e4, 0.0)

    def test_non_finite_constants(self):
        # constant folding of huge parameters can reach inf; the compiled
        # form must evaluate it as the interpreter does, not fail on a name
        for v in (math.inf, -math.inf):
            e = ex.mul(ex.const(v), ex.x1)
            assert ex.compile_scalar(e)(2.0, 0.0) == ex.evaluate(e, (2.0, 0.0)) == v
        assert math.isnan(ex.compile_scalar(ex.add(ex.const(math.nan), ex.x1))(1.0, 0.0))

    @pytest.mark.parametrize("compile_value", [
        ex.compile_scalar, lambda e: (lambda x, y: ex.compile_jet(e)(x, y)[0])],
        ids=["scalar", "jet"])
    def test_cache_tells_signed_zeros_apart(self, compile_value):
        # 0.0 == -0.0, but the compiled sums keep the sign: a tree that
        # differs from a cached one only there must not get its code
        pos = ex.Sum((ex.Const(0.0), ex.Const(-0.0)))
        neg = ex.Sum((ex.Const(-0.0), ex.Const(-0.0)))
        assert math.copysign(1.0, compile_value(pos)(1.0, 1.0)) == 1.0
        assert math.copysign(1.0, compile_value(neg)(1.0, 1.0)) == -1.0
        assert ex.Const(0.0) == ex.Const(Fraction(0)) != ex.Const(-0.0)


class TestCompileJet:
    def test_bit_identical_to_compile_scalar_on_catalog(self):
        # every q-basis element, Killing-field component and map component,
        # at the standard grid points of its record
        checked = 0
        for rec in C.all_records():
            grid = C.sample_grid(rec)
            for e in catalog_components(rec):
                jet = ex.compile_jet(e)
                fs = [ex.compile_scalar(t) for t in jet_trees(e)]
                for p in grid:
                    got = [float(v).hex() for v in jet(*p)]
                    assert got == [float(f(*p)).hex() for f in fs], (rec.ref.label(), e, p)
                    checked += 1
        assert checked > 10_000

    def test_domain_error_propagates(self):
        with pytest.raises(ex.DomainError):
            ex.compile_jet(ex.log(ex.x1))(-1.0, 0.0)

    def test_components_of_a_polynomial(self):
        e = parse_expr("x1^3*x2 + 2*x2^2")
        assert ex.compile_jet(e)(2.0, 3.0) == (42.0, 36.0, 20.0, 36.0, 12.0, 4.0)


# The constant-folding rules as they stood before `_FUNCS`, copied verbatim:
# the oracle for folding through the table and through `_pow_value`.

def _pow_value(u: float, p) -> float:
    if isinstance(p, int):
        p = Fraction(p)
    pf = float(p)
    if isinstance(p, Fraction) and p.denominator == 1:
        if u == 0.0 and p < 0:
            raise DomainError("zero raised to a negative power")
        return u ** int(p)
    if u < 0.0:
        raise DomainError("negative base under a fractional power")
    if u == 0.0:
        if pf < 0:
            raise DomainError("zero raised to a negative power")
        return 0.0 if pf > 0 else 1.0
    return u ** pf


def _func_value(name: str, u: float) -> float:
    if name == "exp":
        return math.exp(u)
    if name == "log":
        if u <= 0.0:
            raise DomainError("log of a non-positive value")
        return math.log(u)
    if name == "sin":
        return math.sin(u)
    if name == "cos":
        return math.cos(u)
    if name == "arctan":
        return math.atan(u)
    raise ValueError(f"unknown function {name!r}")


def _try_fold_pow(v, p: Fraction):
    if isinstance(v, Fraction) and p.denominator == 1:
        if v == 0 and p < 0:
            return None
        return v ** int(p)
    try:
        return _pow_value(float(v), p)
    except (DomainError, OverflowError):
        return None


FOLD_BASES = (0.0, -0.0, 5e-324, 1.0, -1.0, 2.5, -2.5, 710.0, 1e308, -1e308,
              Fraction(0), Fraction(-8), Fraction(2))
FOLD_EXPONENTS = (Fraction(2), Fraction(3), Fraction(-1), Fraction(-2), Fraction(1, 2),
                  Fraction(-1, 2), Fraction(1, 3), Fraction(5, 3), Fraction(-3, 2),
                  2.0, -3.0, 0.5, -0.5, 2.5, 1e300, -1e300)


def fold_key(e):
    """A folded constant by value type and bits; any other node by its repr,
    which tells Fraction from float exponents and signed zeros apart."""
    if isinstance(e, ex.Const):
        return type(e.value), float(e.value).hex()
    return repr(e)


class TestFolding:
    @pytest.mark.parametrize("name", _FUNCS)
    def test_functions_fold_as_the_oracle(self, name):
        for v in FOLD_BASES:
            try:
                want = ex.Const(_func_value(name, float(v)))
            except (DomainError, OverflowError):
                want = ex.Func(name, ex.Const(v))
            assert fold_key(_func(name, ex.Const(v))) == fold_key(want), (name, v)

    def test_powers_fold_as_the_oracle(self):
        for v in FOLD_BASES:
            for p in FOLD_EXPONENTS:
                # power stores an integer-valued float exponent below 2**31 as a Fraction
                whole = isinstance(p, float) and p.is_integer() and abs(p) < 2**31
                q = Fraction(int(p)) if whole else p
                folded = _try_fold_pow(v, q) if isinstance(q, Fraction) else None
                want = ex.Pow(ex.Const(v), q) if folded is None else ex.Const(folded)
                assert fold_key(power(ex.Const(v), p)) == fold_key(want), (v, p)


class TestFuncTable:
    DERIVATIVES = {"exp": math.exp(0.5), "log": 2.0, "sin": math.cos(0.5),
                   "cos": -math.sin(0.5), "arctan": 0.8}

    def test_rows(self):
        assert tuple(ex._FUNCS) == _FUNCS

    @pytest.mark.parametrize("name", _FUNCS)
    def test_every_path_reads_the_row(self, name):
        value, derivative = ex._FUNCS[name]
        e, p = ex.Func(name, x1), (0.5, 0.25)
        d1 = ex.diff(e, 1)
        assert d1 == derivative(x1) and ex.diff(e, 2) == ex.ZERO
        jet = ex.compile_jet(e)(*p)
        assert ex.evaluate(e, p) == ex.compile_scalar(e)(*p) == jet[0] == value(0.5)
        assert ex.evaluate(d1, p) == ex.compile_scalar(d1)(*p) == jet[1]
        assert jet[1] == pytest.approx(self.DERIVATIVES[name], rel=1e-15) and jet[2] == 0.0
        assert ex._NAMESPACE[f"_{name}"] is value

    def test_namespace_holds_exactly_the_rows(self):
        # the tests' own eval(..., ex._NAMESPACE) adds __builtins__ to it
        names = set(ex._NAMESPACE) - {"__builtins__"}
        assert names == ({"_powf", "inf", "nan", "DomainError", "_RHS_ERRORS", "_isfinite", "_sqrt",
                          "_inf", "_float"} | {f"_{n}" for n in _FUNCS})

    @pytest.mark.parametrize("call", [lambda e: ex.evaluate(e, (0.5, 0.25)),
                                      lambda e: ex.diff(e, 1), ex.compile_scalar, ex.compile_jet],
                             ids=["evaluate", "diff", "compile_scalar", "compile_jet"])
    def test_unknown_name_raises_before_a_callable_exists(self, call):
        with pytest.raises(TypeError):
            call(ex.Func("tan", x1))


class TestOneNamespace:
    """Every generated function has _NAMESPACE itself as its globals, and
    compiling one leaves the names of _NAMESPACE as they were."""

    def compiles(self):
        """One fresh compile (past the caches) of each kind of generated
        code, each giving its functions."""
        e = add(mul(x1, x2), ex.exp(x2))
        return [lambda: [ex.compile_scalar.__wrapped__(e)],
                lambda: [ex.compile_jet.__wrapped__(e, x1)],
                lambda: integrate._field_code.__wrapped__(("u", "v"), ("w = u * v",),
                                                          ("w + c", "u"), ("c",))(2.0),
                lambda: [killing._defect_kernel.__wrapped__()],
                lambda: [qe._residual_kernel.__wrapped__()],
                lambda: [connection._max_abs_kernel((), "_v", [], ["_v"])],
                connection._curvature_family]

    def test_compiling_binds_no_name(self):
        for compile_one in self.compiles():
            names = set(ex._NAMESPACE)
            fns = compile_one()
            assert set(ex._NAMESPACE) == names
            assert [fn.__globals__ is ex._NAMESPACE for fn in fns] == [True] * len(fns)

    def test_the_code_in_use(self):
        field = killing._field_rhs(ex.VectorFieldExpr(x2, neg(x1)))
        fns = [ex.compile_jet(x1, x2), field.kernel, field._code[1], killing._defect_kernel(),
               qe._residual_kernel(), connection.max_abs, connection.curvature,
               connection.ricci, connection.ricci_sym]
        assert [fn.__globals__ is ex._NAMESPACE for fn in fns] == [True] * len(fns)
        assert connection.curvature.__module__ == "affsurf.connection"


#: points where a jet's values are signed zeros, subnormal, infinite or NaN,
#: or where it raises (x1 <= 0 is off every half-plane)
EDGE_POINTS = [(u, v) for u in (0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, -1.5)
               for v in (0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 0.5)]


class TestJointJet:
    """The joint 2-jet of a Killing field's or a map's two components is
    the two jets one after the other, by float.hex; where either raises,
    the joint jet raises the first exception, with the same message."""

    def test_catalog_fields_and_maps(self):
        checked, raised = 0, set()
        for rec in C.all_records():
            pairs = ([(X.c1, X.c2) for X in rec.killing_basis]
                     + [(m.plane_map.f1, m.plane_map.f2) for m in rec.maps])
            for a, b in pairs:
                joint, jet_a, jet_b = ex.compile_jet(a, b), ex.compile_jet(a), ex.compile_jet(b)
                for p in C.sample_grid(rec) + EDGE_POINTS:
                    got = outcome(joint, p)
                    assert got == outcome(lambda *q: jet_a(*q) + jet_b(*q), p), (rec.ref.label(), p)
                    if isinstance(got, tuple):
                        raised.add(got[0])
                checked += 1
        assert checked > 300
        assert raised == {ex.DomainError, ZeroDivisionError, OverflowError, ValueError}


# The Pow branch of `_emit` as it stood before the forms for the exponents
# +-1, copied verbatim: the oracle for the emitted powers.

def _emit_pow(e, sub):
    p = e.exponent
    b = sub(e.base)
    if isinstance(p, Fraction) and p.denominator == 1:
        n = int(p)
        if n > 0:
            return f"({b})**{n}"
        return f"(1.0 / ({b})**{-n})"  # ZeroDivisionError on a zero base
    return f"_powf({b}, {sub(ex.Const(p))})"


def oracle_emit(e) -> str:
    return _emit_pow(e, oracle_emit) if isinstance(e, ex.Pow) else ex._emit(e, oracle_emit)


POW_BASES = (2.5, 5e-324, 0.0, -0.0, -1.5, math.inf, -math.inf, math.nan)
#: a sum base x1 + x2 at x2 = -0.0 takes x1's value, its sign included
SUM = add(x1, x2)
EMITTED_POWERS = [ex.Pow(x1, Fraction(1)), power(x1, -1), power(SUM, -1), power(SUM, 3),
                  power(x1, -2), power(x1, Fraction(1, 2)), power(x1, Fraction(-3, 2)),
                  power(x1, 2.5), power(x1, -0.5), power(SUM, Fraction(1, 3)),
                  mul(power(x1, Fraction(5, 3)), power(SUM, -1))]


class TestEmittedPowers:
    """Powers under the exponents +-1 emit no pow call: the compiled values
    and exceptions of every power are the oracle's, bit for bit."""

    @pytest.mark.parametrize("e", EMITTED_POWERS, ids=repr)
    def test_scalar_as_the_oracle(self, e):
        want = eval(f"lambda x1, x2: ({oracle_emit(e)},)", ex._NAMESPACE)  # noqa: S307
        got = ex.compile_scalar(e)
        for b in POW_BASES:
            assert outcome(lambda *p: (got(*p),), (b, -0.0)) == outcome(want, (b, -0.0)), b

    @pytest.mark.parametrize("e", EMITTED_POWERS, ids=repr)
    def test_jet_as_the_oracle(self, e):
        srcs = ", ".join(oracle_emit(t) for t in jet_trees(e))
        want = eval(f"lambda x1, x2: ({srcs},)", ex._NAMESPACE)  # noqa: S307
        for b in POW_BASES:
            assert outcome(ex.compile_jet(e), (b, -0.0)) == outcome(want, (b, -0.0)), b

    def test_forms(self):
        assert ex._emit(ex.Pow(x1, Fraction(1))) == "(x1)"
        assert ex._emit(power(SUM, -1)) == "(1.0 / ((x1 + x2)))"
        assert ex._emit(power(x1, -2)) == "(1.0 / (x1)**2)"
        assert ex._emit(power(x1, 2.5)) == "_powf(x1, 2.5)"


def shared_and_plain(trees):
    """trees compiled to one tuple-valued function of (x1, x2) through
    _emit_shared and through plain _emit; the shared sources."""
    sources = ex._emit_shared(trees)
    shared, plain = (eval(f"lambda x1, x2: ({', '.join(srcs)},)", ex._NAMESPACE)  # noqa: S307
                     for srcs in (sources, [ex._emit(t) for t in trees]))
    return shared, plain, sources


def outcome(fn, p):
    """fn(*p) with every value as float.hex, or the exception it raised as
    (type, message)."""
    try:
        return [float(v).hex() for v in fn(*p)]
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


#: points outside every domain, or where the functions overflow
OUTSIDE = [(0.0, 0.0), (-0.0, 1.0), (-1.0, 0.5), (-2.5, -3.0), (800.0, -800.0),
           (1e200, 1e200), (-1e300, 2.0), (math.inf, 1.0), (1.0, math.nan)]


def assert_shared_agrees(trees, points):
    shared, plain, _ = shared_and_plain(trees)
    for p in points:
        assert outcome(shared, p) == outcome(plain, p), (trees, p)


class TestEmitShared:
    """Sources that evaluate a repeated subexpression once against the
    plain sources, bit for bit, exceptions included."""

    def test_killing_fields_of_every_record(self):
        rng = np.random.default_rng(10)
        named = 0
        for rec in C.all_records():
            basis = rec.killing_basis
            fields = list(basis) + [killing.combination(basis, rng.normal(size=len(basis)))
                                    for _ in range(3)]
            for X in fields:
                assert_shared_agrees((X.c1, X.c2), C.sample_grid(rec) + OUTSIDE)
                named += "_s0" in "".join(ex._emit_shared((X.c1, X.c2)))
        assert named > 50

    def test_jet_trees_of_the_catalog(self):
        named = 0
        for rec in C.all_records():
            for e in catalog_components(rec):
                trees = jet_trees(e)
                assert_shared_agrees(trees, C.sample_grid(rec) + OUTSIDE)
                named += "_s0" in "".join(ex._emit_shared(trees))
        assert named > 100

    def test_first_of_two_raising_subexpressions(self):
        # at (0, -1) both 1/x1 and log(x2) raise; 1/x1 comes first
        inv, lg = ex.power(ex.x1, -1), ex.log(ex.x2)
        trees = (ex.add(ex.x1, ex.mul(inv, lg)), ex.mul(lg, inv), ex.add(lg, inv))
        shared, plain, sources = shared_and_plain(trees)
        assert sources[1] == "(_s1 * _s0)"
        for p in ((0.0, -1.0), (0.0, 1.0), (1.0, -1.0), (2.0, 3.0)):
            assert outcome(shared, p) == outcome(plain, p)
        assert outcome(shared, (0.0, -1.0))[0] is ZeroDivisionError
        assert outcome(shared, (1.0, -1.0))[0] is ex.DomainError

    def test_no_cyclic_garbage(self):
        # the joint jet trees of every catalog Killing field and map
        joint = [jet_trees(a) + jet_trees(b) for rec in C.all_records()
                 for a, b in ([(X.c1, X.c2) for X in rec.killing_basis]
                              + [(m.plane_map.f1, m.plane_map.f2) for m in rec.maps])]
        gc.collect()
        gc.disable()
        try:
            for trees in joint:
                ex._emit_shared(trees)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_operands_of_a_repeat_are_not_named_alone(self):
        e = parse_expr("(x1 + x2)^2")
        assert ex._emit_shared((e, e)) == ["(_s0 := ((x1 + x2))**2)", "_s0"]


class TestSubstitute:
    def test_composition(self):
        e = parse_expr("x1^2 + x2")
        sub = ex.substitute(e, {1: ex.exp(ex.x2), 2: ex.x1})
        assert abs(ex.evaluate(sub, (3.0, 0.5)) - (math.exp(1.0) + 3.0)) < 1e-12


def field_at(vf: ex.VectorFieldExpr, p) -> tuple[float, float]:
    """The components (c1, c2) of vf at the point p."""
    return ex.evaluate(vf.c1, p), ex.evaluate(vf.c2, p)


class TestPullback:
    def test_identity(self):
        pm = ex.PlaneMap(ex.x1, ex.x2)
        vf = ex.VectorFieldExpr(parse_expr("x1^2"), ex.x2)
        pb, = ex.pullback_fields(pm, (vf,))
        assert field_at(pb, (2.0, 3.0)) == (4.0, 3.0)

    def test_exponential_chart(self):
        pm = ex.PlaneMap(parse_expr("exp(x1)"), parse_expr("x2*exp(x1)"))
        pb, = ex.pullback_fields(pm, (ex.VectorFieldExpr(ex.const(1), ex.const(0)),))
        got = field_at(pb, (0.5, 2.0))
        want = (math.exp(-0.5), -2.0 * math.exp(-0.5))
        assert abs(got[0] - want[0]) < 1e-12 and abs(got[1] - want[1]) < 1e-12
