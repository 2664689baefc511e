"""Closed-form scalar and vector-field expressions on the coordinate plane.

Expression trees over the coordinates x1, x2 built from sums, products,
rational/real powers and the transcendental functions exp, log, sin, cos,
arctan.  Sums and products are built by one fold (`add` and `mul`):
flatten, fold the constants, drop the unit, and for a product absorb a
zero.  They support exact symbolic differentiation (each distinct node
of a tree once per call), substitution, infix rendering, and compilation
to fast scalar callables.  Every other module evaluates these trees:
quasi-Einstein solution bases, affine Killing fields and embedding maps
are all stored in this form.
Each elementary function is one row of the table `_FUNCS`: its guarded
value, which constant folding, `evaluate` and compiled code all call, and
its derivative, which `diff` multiplies by the argument's.
Every pointwise check (quasi-Einstein, Killing, map pullback, the xi matrix,
Jacobians) reads compiled 2-jets, `compile_jet`, instead of differentiating
at each point.  A joint jet `compile_jet(a, b)` is the jets of a and b as
one function: a Killing field's two components and a map's two components
each have one.  Its 12 derivative trees are built with one `diff` memo per
axis, so a node the trees share is differentiated once, and one
`_emit_shared` over all of them evaluates a repeated subexpression once.
`_compile` is the one compiler of generated source: these jets, the step
loops and the grid kernels all run in the one dict `_NAMESPACE`, which no
compile copies and each leaves with the names it had.

Expressions are immutable values and safe to share across workers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Union

Exponent = Union[Fraction, float]
Point = tuple[float, float]

class DomainError(ValueError):
    """Evaluation left the natural domain (log of a non-positive value,
    negative base under a fractional power, division by zero)."""


_RHS_ERRORS = (DomainError, OverflowError, ZeroDivisionError, ValueError)


class Data:
    """Base of the package's data classes.  A subclass names its fields in
    `__slots__` and sets them in its own `__init__`; its instances compare
    equal only to instances of exactly the same class whose fields are
    equal in order, hash as the tuple of their fields and print as
    `Class(field=value, ...)`.  No method is generated per class, so
    defining one costs no more than any plain class."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self):
        return hash(_fields(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({args})"


def _fields(obj: Data) -> tuple:
    return tuple([getattr(obj, name) for name in obj.__slots__])


class ScalarExpr(Data):
    """Base class for expression nodes.  Use the module-level constructors
    (`add`, `mul`, `power`, `exp`, ...) rather than the node classes
    directly; they perform the conservative simplifications (constant
    folding and 0/1 elimination) that the rest of the code base relies on.
    Nodes are values: nothing assigns a field after construction."""

    __slots__ = ()

    # Operator sugar so catalog code can write e.g. `x1 * exp(c * x2)`.
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)


class Const(ScalarExpr):
    """Equal to another Const of the same value and, unlike ==, the same
    sign of zero: compiled code keeps that sign, so the compile caches
    must tell Const(0.0) from Const(-0.0)."""

    __slots__ = ("value",)

    def __init__(self, value: Union[Fraction, float]):
        self.value = value

    def __eq__(self, other):
        return other.__class__ is Const and _signed(self.value) == _signed(other.value)

    def __hash__(self):
        return hash((self.value,))


def _signed(v) -> tuple:
    return v, math.copysign(1.0, v) if v == 0 else 1.0


class Coord(ScalarExpr):
    __slots__ = ("axis",)

    def __init__(self, axis: int):  # 1 or 2
        self.axis = axis


class Sum(ScalarExpr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[ScalarExpr, ...]):
        self.terms = terms


class Prod(ScalarExpr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[ScalarExpr, ...]):
        self.factors = factors


class Pow(ScalarExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: ScalarExpr, exponent: Exponent):
        self.base, self.exponent = base, exponent


class Func(ScalarExpr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: ScalarExpr):  # name: a key of _FUNCS
        self.name, self.arg = name, arg


x1 = Coord(1)
x2 = Coord(2)
ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(v) -> Const:
    if isinstance(v, Const):
        return v
    if isinstance(v, Fraction):
        return Const(v)
    if isinstance(v, int):
        return Const(Fraction(v))
    return Const(float(v))


def _as_expr(v) -> ScalarExpr:
    return v if isinstance(v, ScalarExpr) else const(v)


def add(*terms) -> ScalarExpr:
    """Sum with flattening; constants fold into the first constant slot."""
    return _fold(Sum, terms)


def mul(*factors) -> ScalarExpr:
    """Product with flattening, zero absorption, unit elimination."""
    return _fold(Prod, factors)


def _fold(kind, operands) -> ScalarExpr:
    """add (kind Sum) and mul (kind Prod): an operand of that kind gives
    its own operands; the constants fold, in order, into the slot of the
    first, which goes when it is the unit (0 or 1) and anything is left
    beside it; a product with a zero constant is ZERO."""
    product = kind is Prod
    flat: list[ScalarExpr] = []
    for t in operands:
        t = _as_expr(t)
        if isinstance(t, kind):
            flat.extend(t.factors if product else t.terms)
        else:
            flat.append(t)
    out: list[ScalarExpr] = []
    const_pos = -1
    acc = None
    for t in flat:
        if isinstance(t, Const):
            if product and t.value == 0:
                return ZERO
            acc = t.value if acc is None else acc * t.value if product else acc + t.value
            if const_pos < 0:
                const_pos = len(out)
                out.append(t)  # placeholder, replaced below
        else:
            out.append(t)
    if const_pos >= 0:
        if acc == (1 if product else 0) and len(out) > 1:
            del out[const_pos]
        else:
            out[const_pos] = Const(acc)
    if not out:
        return ONE if product else ZERO
    if len(out) == 1:
        return out[0]
    return kind(tuple(out))


def neg(e) -> ScalarExpr:
    return mul(const(-1), _as_expr(e))


def sub(a, b) -> ScalarExpr:
    return add(_as_expr(a), neg(b))


def power(base, exponent) -> ScalarExpr:
    """Power node.  Rational exponents are stored exactly as Fractions;
    float exponents stay floats (real powers such as x1^kappa)."""
    base = _as_expr(base)
    if isinstance(exponent, float) and exponent.is_integer() and abs(exponent) < 2**31:
        exponent = Fraction(int(exponent))
    elif isinstance(exponent, int):
        exponent = Fraction(exponent)
    if isinstance(exponent, Fraction):
        if exponent == 1:
            return base
        if exponent == 0:
            return ONE
        if isinstance(base, Const):
            try:
                return Const(_pow_value(base.value, exponent))
            except (DomainError, OverflowError):
                pass
    return Pow(base, exponent)


def div(a, b) -> ScalarExpr:
    return mul(_as_expr(a), power(b, -1))


def _func(name: str, arg) -> ScalarExpr:
    arg = _as_expr(arg)
    if isinstance(arg, Const):
        try:
            return Const(_FUNCS[name][0](float(arg.value)))
        except (DomainError, OverflowError):
            pass
    return Func(name, arg)


def exp(arg) -> ScalarExpr:
    return _func("exp", arg)


def log(arg) -> ScalarExpr:
    return _func("log", arg)


def sin(arg) -> ScalarExpr:
    return _func("sin", arg)


def cos(arg) -> ScalarExpr:
    return _func("cos", arg)


def _guarded_log(u: float) -> float:
    if u <= 0.0:
        raise DomainError("log of a non-positive value")
    return math.log(u)


# name -> (value, derivative).  The value raises DomainError off its domain;
# compiled code calls it as `_name`.  The derivative maps u to d/du name(u).
_FUNCS: dict[str, tuple[Callable, Callable]] = {
    "exp": (math.exp, exp),
    "log": (_guarded_log, lambda u: power(u, -1)),
    "sin": (math.sin, cos),
    "cos": (math.cos, lambda u: neg(sin(u))),
    "arctan": (math.atan, lambda u: power(add(ONE, power(u, 2)), -1)),
}


# ---------------------------------------------------------------------------
# evaluation


def _pow_value(u, p: Exponent):
    """u**p; exact for a Fraction u under an integer p."""
    if isinstance(p, Fraction) and p.denominator == 1:
        if u == 0 and p < 0:
            raise DomainError("zero raised to a negative power")
        return u ** int(p)
    return _guarded_powf(float(u), float(p))


def evaluate(e: ScalarExpr, p: Point) -> float:
    """IEEE double evaluation at a point; raises DomainError rather than
    returning NaN when the point falls outside the natural domain."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Coord):
        return float(p[e.axis - 1])
    if isinstance(e, Sum):
        return math.fsum(evaluate(t, p) for t in e.terms)
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out *= evaluate(f, p)
        return out
    if isinstance(e, Pow):
        return _pow_value(evaluate(e.base, p), e.exponent)
    if isinstance(e, Func) and e.name in _FUNCS:
        return _FUNCS[e.name][0](evaluate(e.arg, p))
    raise TypeError(f"not a ScalarExpr: {e!r}")


# ---------------------------------------------------------------------------
# differentiation


def diff(e: ScalarExpr, axis: int, memo: dict | None = None) -> ScalarExpr:
    """Exact derivative with respect to x1 (axis=1) or x2 (axis=2).  Each
    distinct node is differentiated once per call: a node the tree holds
    more than once (the factors a Leibniz sum repeats) reuses its
    derivative.  Calls that pass one memo dict, all along one axis, share
    it: a node any of them differentiated is not differentiated again."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return _diff(e, axis, {} if memo is None else memo)


def _diff(e: ScalarExpr, axis: int, done: dict) -> ScalarExpr:
    """diff's recursion; done maps the identity of each compound node
    differentiated so far in the call to (node, derivative), and holding
    the node keeps its identity from being reused."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Coord):
        return ONE if e.axis == axis else ZERO
    hit = done.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Sum):
        out = add(*(_diff(t, axis, done) for t in e.terms))
    elif isinstance(e, Prod):
        parts = []
        fs = e.factors
        for i in range(len(fs)):
            parts.append(mul(*fs[:i], _diff(fs[i], axis, done), *fs[i + 1:]))
        out = add(*parts)
    elif isinstance(e, Pow):
        p = e.exponent
        out = mul(const(p), power(e.base, p - 1), _diff(e.base, axis, done))
    elif isinstance(e, Func) and e.name in _FUNCS:
        out = mul(_FUNCS[e.name][1](e.arg), _diff(e.arg, axis, done))
    else:
        raise TypeError(f"not a ScalarExpr: {e!r}")
    done[id(e)] = (e, out)
    return out


def substitute(e: ScalarExpr, repl: Mapping[int, ScalarExpr]) -> ScalarExpr:
    """Replace coordinates by expressions (used to compose with plane maps)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Coord):
        return repl.get(e.axis, e)
    if isinstance(e, Sum):
        return add(*(substitute(t, repl) for t in e.terms))
    if isinstance(e, Prod):
        return mul(*(substitute(f, repl) for f in e.factors))
    if isinstance(e, Pow):
        return power(substitute(e.base, repl), e.exponent)
    if isinstance(e, Func):
        return _func(e.name, substitute(e.arg, repl))
    raise TypeError(f"not a ScalarExpr: {e!r}")


# ---------------------------------------------------------------------------
# compilation (hot loops: flows, geodesics, grids)


@lru_cache(maxsize=None)
def compile_scalar(e: ScalarExpr) -> Callable[[float, float], float]:
    """Compile to a plain `f(x1, x2) -> float`.  Semantics match `evaluate`,
    including DomainError on domain violations, with one exception: a zero
    base under a negative integer power raises ZeroDivisionError, where
    `evaluate` raises DomainError."""
    return _compile([f"def _f(x1, x2): return {_emit(e)}"], "_f")


@lru_cache(maxsize=None)
def compile_jet(*es: ScalarExpr) -> Callable[[float, float], tuple[float, ...]]:
    """Compile the 2-jets of es to one `f(x1, x2) -> (e, d1 e, d2 e,
    d1 d1 e, d1 d2 e, d2 d2 e) for e in es`, concatenated in order.  Each
    component is the source `compile_scalar` emits for that derivative tree,
    except that a subexpression the 6 * len(es) trees repeat is evaluated
    once (`_emit_shared`), so the values and the first exception raised are
    those of the jets of es compiled one by one and called in order.  The
    trees are differentiated with one memo per axis, so a node the
    expressions or their derivatives share is differentiated once."""
    memos = {1: {}, 2: {}}
    trees = []
    for e in es:
        d1, d2 = diff(e, 1, memos[1]), diff(e, 2, memos[2])
        trees += (e, d1, d2, diff(d1, 1, memos[1]), diff(d1, 2, memos[2]), diff(d2, 2, memos[2]))
    return _compile([f"def _f(x1, x2): return ({', '.join(_emit_shared(trees))})"], "_f")


def _emit(e: ScalarExpr, sub: Callable[[ScalarExpr], str] | None = None) -> str:
    """Python source of e over x1, x2; its operands are emitted by sub
    (by _emit itself when None).  A power under the integer exponent 1 or
    -1 is `(b)` or `(1.0 / (b))`, without a pow call: b**1 is b for every
    float, signed zeros, inf and NaN included."""
    sub = sub or _emit
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Coord):
        return f"x{e.axis}"
    if isinstance(e, Sum):
        return "(" + " + ".join(sub(t) for t in e.terms) + ")"
    if isinstance(e, Prod):
        return "(" + " * ".join(sub(f) for f in e.factors) + ")"
    if isinstance(e, Pow):
        p = e.exponent
        b = sub(e.base)
        if isinstance(p, Fraction) and p.denominator == 1:
            n = int(p)
            raised = f"({b})" if abs(n) == 1 else f"({b})**{abs(n)}"
            return raised if n > 0 else f"(1.0 / {raised})"  # ZeroDivisionError on a zero base
        return f"_powf({b}, {sub(Const(p))})"
    if isinstance(e, Func) and e.name in _FUNCS:
        return f"_{e.name}({sub(e.arg)})"
    raise TypeError(f"not a ScalarExpr: {e!r}")


def _emit_shared(trees, consts: dict[str, str] | None = None) -> list[str]:
    """The sources `_emit` gives trees, except that a compound subexpression
    (sum, product, power or function) whose source occurs more than once
    across them is evaluated once: its first occurrence binds the value
    with `:=` to a name `_s0`, `_s1`, ..., and later occurrences read that
    name.  Python evaluates these sources left to right and none of them
    skips an operand, so the first occurrence in the text is the first one
    evaluated: values, NaNs, signed zeros and the first exception raised
    are those of the plain sources evaluated in order.  The names must be
    free wherever the sources are evaluated.
    Given a dict consts, every finite constant (powers' exponents too) is
    written as a name `c0`, `c1`, ..., one per distinct literal (so 0.0
    and -0.0 get two), and consts maps each literal to its name; inf and
    nan stay literal.  Repeats are still found on the literal sources."""
    plain: dict[int, str] = {}  # source by node identity; the trees keep every node alive

    def source(e):
        if isinstance(e, Const):  # not kept: an exponent's Const is made by _emit and freed
            return _emit(e)
        key = id(e)
        if key not in plain:
            plain[key] = _emit(e, source)
        return plain[key]

    seen: dict[str, int] = {}  # occurrences, not counting those inside a repeat

    def count(e):
        if isinstance(e, (Sum, Prod, Pow, Func)):
            text = source(e)
            seen[text] = seen.get(text, 0) + 1
            if seen[text] == 1:
                for operand in _operands(e):
                    count(operand)

    names: dict[str, str] = {}

    def shared(e):
        text = source(e)
        if isinstance(e, Const):
            if consts is None or not math.isfinite(e.value):
                return text
            return consts.setdefault(text, f"c{len(consts)}")
        if seen.get(text, 0) < 2:
            return _emit(e, shared)
        if text in names:
            return names[text]
        body = _emit(e, shared)  # operands first: they bind their own names
        names[text] = f"_s{len(names)}"
        return f"({names[text]} := {body})"

    for t in trees:
        count(t)
    out = [shared(t) for t in trees]
    del source, count, shared  # each walker refers to itself: emptying the cells ends the cycles
    return out


def _operands(e: ScalarExpr) -> tuple[ScalarExpr, ...]:
    """The operand trees of a compound node, in the order `_emit` writes them."""
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Prod):
        return e.factors
    return (e.base,) if isinstance(e, Pow) else (e.arg,)


def _guarded_powf(u: float, pf: float) -> float:
    """Real power under an exponent not stored as an integer Fraction."""
    if u < 0.0:
        raise DomainError("negative base under a fractional power")
    if u == 0.0:
        if pf < 0.0:
            raise DomainError("zero raised to a negative power")
        return 0.0
    return u ** pf


# the globals of all generated code, shared; inf and nan are the repr of those constants
_NAMESPACE = {f"_{name}": value for name, (value, _) in _FUNCS.items()}
_NAMESPACE.update(_powf=_guarded_powf, inf=math.inf, nan=math.nan, DomainError=DomainError,
                  _RHS_ERRORS=_RHS_ERRORS, _isfinite=math.isfinite, _sqrt=math.sqrt,
                  _inf=math.inf, _float=float)


def _compile(lines: list[str], name: str):
    """The object that the source lines bind to name, run in _NAMESPACE
    itself and taken back out of it, so every generated function has that
    one dict as its globals: the one place that compiles generated code
    (compiled expressions, step loops, grid kernels)."""
    exec("\n".join(lines), _NAMESPACE)  # noqa: S102 - generated from our own trees and tables
    return _NAMESPACE.pop(name)


def _indent(lines, depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


# ---------------------------------------------------------------------------
# rendering


def render(e: ScalarExpr) -> str:
    """Infix text of e, as the catalog JSON writes it.  The test suite's
    parser reads it back to a structurally equal tree for every tree
    produced by the constructors in this module."""
    return _render(e, 0)


def _render(e: ScalarExpr, level: int) -> str:
    # levels: 0 sum, 1 product, 2 power/atom
    if isinstance(e, Const):
        s = _render_const(e.value)
        if (s.startswith("-") or "/" in s) and level >= 1:
            return f"({s})"
        return s
    if isinstance(e, Coord):
        return f"x{e.axis}"
    if isinstance(e, Sum):
        sgn0, body0 = _split_negative(e.terms[0])
        parts = [f"-{body0}" if sgn0 else _render(e.terms[0], 1)]
        for t in e.terms[1:]:
            sgn, body = _split_negative(t)
            parts.append(f" - {body}" if sgn else f" + {_render(t, 1)}")
        s = "".join(parts)
        return f"({s})" if level >= 1 else s
    if isinstance(e, Prod):
        fs = e.factors
        if isinstance(fs[0], Const) and fs[0].value == -1 and len(fs) > 1:
            rest = fs[1] if len(fs) == 2 else Prod(fs[1:])
            s = "-" + _render(rest, 1)
            return f"({s})" if level >= 1 else s
        s = "*".join(_render(f, 2) for f in fs)
        return f"({s})" if level >= 2 else s
    if isinstance(e, Pow):
        return f"{_render(e.base, 2) if _atomic(e.base) else '(' + _render(e.base, 0) + ')'}^{_render_exponent(e.exponent)}"
    if isinstance(e, Func):
        return f"{e.name}({_render(e.arg, 0)})"
    raise TypeError(f"not a ScalarExpr: {e!r}")


def _atomic(e: ScalarExpr) -> bool:
    return isinstance(e, (Coord, Func)) or (isinstance(e, Const) and _render_const(e.value).replace(".", "").isdigit())


def _split_negative(t: ScalarExpr):
    """For rendering sums: detect a term with a negative leading constant
    and return (True, rendered absolute value)."""
    if isinstance(t, Const) and t.value < 0:
        return True, _render(Const(-t.value), 1)
    if isinstance(t, Prod) and isinstance(t.factors[0], Const) and t.factors[0].value < 0:
        c = t.factors[0].value
        rest = t.factors[1:]
        if c == -1 and rest:
            flipped = rest[0] if len(rest) == 1 else Prod(rest)
        else:
            flipped = Prod((Const(-c),) + rest)
        return True, _render(flipped, 1)
    return False, ""


def _render_const(v) -> str:
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return repr(v)


def _render_exponent(p: Exponent) -> str:
    if isinstance(p, Fraction):
        if p.denominator == 1:
            return str(p.numerator) if p >= 0 else f"({p.numerator})"
        sign = "-" if p < 0 else ""
        q = abs(p)
        return f"({sign}{q.numerator}/{q.denominator})"
    return f"({p!r})"


# ---------------------------------------------------------------------------
# vector fields and plane maps


class VectorFieldExpr(Data):
    """A vector field c1(x) d/dx1 + c2(x) d/dx2 in closed form."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1: ScalarExpr, c2: ScalarExpr):
        self.c1, self.c2 = c1, c2


class PlaneMap(Data):
    """A map (x1, x2) -> (f1, f2).  Used for the affine
    embeddings/isomorphisms between catalog models and for the
    straightening immersions built from quasi-Einstein bases."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: ScalarExpr, f2: ScalarExpr):
        self.f1, self.f2 = f1, f2


def pullback_fields(phi: PlaneMap, target_fields) -> tuple[VectorFieldExpr, ...]:
    """Pull vector fields back through an (immersive) plane map:
    X = J_phi^{-1} (Y o phi) for each Y of target_fields.  Exact; division
    by det(J) is symbolic.  J and 1 / det(J) are built once for all the
    fields, so the fields share those nodes."""
    j11, j12 = diff(phi.f1, 1), diff(phi.f1, 2)
    j21, j22 = diff(phi.f2, 1), diff(phi.f2, 2)
    inv_det = power(sub(mul(j11, j22), mul(j12, j21)), -1)
    repl = {1: phi.f1, 2: phi.f2}
    out = []
    for Y in target_fields:
        y1, y2 = substitute(Y.c1, repl), substitute(Y.c2, repl)
        out.append(VectorFieldExpr(mul(inv_det, sub(mul(j22, y1), mul(j12, y2))),
                                   mul(inv_det, sub(mul(j11, y2), mul(j21, y1)))))
    return tuple(out)
