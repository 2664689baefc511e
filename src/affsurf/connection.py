"""Torsion-free connections on the plane and the half-plane.

A connection is specified by six Christoffel coefficients (a, b, c, d, e, f)
keyed as

    G_11^1 = a,  G_11^2 = b,  G_12^1 = G_21^1 = c,
    G_12^2 = G_21^2 = d,  G_22^1 = e,  G_22^2 = f,

together with a scaling kind:

    "constant"    the six numbers themselves, on all of R^2;
    "inverse-x1"  the six numbers divided by x1, on the half-plane x1 > 0;
    "linear-x1"   G_22^1 = e * x1, all others constant, on all of R^2
                  (the auxiliary surface that completes the A.M54 family).

Torsion freeness is built into the storage (the two mixed symbols share one
slot).  `symbols_at` is the one evaluator of a connection at a point, and
the quasi-Einstein, Killing, flattening and map checks all read it.  It
writes out, per kind, the symbols G of a point and their exact derivatives
dG (a / u, -a / (u * u), e * u with u = x1, and literal 0.0 zeros), never
finite differences, and raises DomainError off the half-plane.
`curvature`, `ricci` and `ricci_sym` read those (G, dG), so a check that
needs several of them at a point evaluates the symbols there once.  They
are emitted at import as straight-line float arithmetic from the one
formula

    R_ijk^l = ((d_i G_jk^l - d_j G_ik^l) + (G_i0^l G_jk^0 - G_j0^l G_ik^0))
              + (G_i1^l G_jk^1 - G_j1^l G_ik^1),

rho_jk = 0.0 + R_0jk^0 + R_1jk^1 and rho_s_jk = 0.5 * (rho_jk + rho_kj),
each sum in the order a summed loop adds it.

A constant spec has the same symbols, curvature and Ricci tensor at every
point.  `over_grid` is the one place that uses this: each of the four
checks evaluates its per-point connection data over a grid there, once for
a constant spec and once per point for the other kinds.  `_max_abs_kernel`
writes the one fail-closed fold (the largest |v|, NaN at the first NaN):
the grid kernels of the quasi-Einstein and Killing checks, and `max_abs`
for the flattening and map checks.
"""

from __future__ import annotations

import numpy as np

from .expr import Data, DomainError, Point, _compile, _indent

Coeffs = tuple[float, float, float, float, float, float]

KINDS = ("constant", "inverse-x1", "linear-x1")

#: the symbols in index form at a point where all of them vanish
_ZERO = (((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))


class ChristoffelSpec(Data):
    __slots__ = ("coeffs", "kind")

    def __init__(self, coeffs: Coeffs, kind: str = "constant"):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.coeffs, self.kind = tuple(float(v) for v in coeffs), kind

    def symbols_at(self, p: Point):
        """(G, dG) in index form, as nested tuples of floats:
        G[i][j][k] = Gamma_ij^k and dG[m][i][j][k] = d_m Gamma_ij^k, the
        symbol values at p and their exact derivatives.  An inverse-x1 spec
        raises DomainError at x1 <= 0 and where x1 * x1 underflows to 0.0;
        a NaN x1 gives NaN symbols."""
        a, b, c, d, e, f = self.coeffs
        if self.kind == "constant":
            return (((a, b), (c, d)), ((c, d), (e, f))), (_ZERO, _ZERO)
        u = p[0]
        if self.kind == "linear-x1":
            return ((((a, b), (c, d)), ((c, d), (e * u, f))),
                    ((((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (e, 0.0))), _ZERO))
        if u <= 0.0:
            raise DomainError(f"x1 must be positive for an inverse-x1 connection, got {u}")
        w = u * u
        if w == 0.0:
            raise DomainError(f"x1 * x1 underflows to 0.0 for an inverse-x1 connection at x1 = {u}")
        c0, d0, c1, d1 = c / u, d / u, -c / w, -d / w
        return ((((a / u, b / u), (c0, d0)), ((c0, d0), (e / u, f / u))),
                ((((-a / w, -b / w), (c1, d1)), ((c1, d1), (-e / w, -f / w))), _ZERO))

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs), "kind": self.kind}


def over_grid(spec: ChristoffelSpec, grid, fn) -> list:
    """[fn(p) for p in grid], where fn(p) is connection data of spec at p
    (symbols, curvature, Ricci): for a constant spec fn runs once, at the
    first point, and its value stands for every point."""
    if spec.kind == "constant" and len(grid):
        return [fn(grid[0])] * len(grid)
    return [fn(p) for p in grid]


def _max_abs_kernel(params: tuple[str, ...], row: str, body: list[str], values: list[str]):
    """`(*params, rows) -> the largest |value| over rows` (0.0 for no rows),
    written out: each row is unpacked to `row`, `body` runs, and each value
    in turn is folded in by comparison, NaN returned at the first NaN value.
    The builtin max drops NaN (max(0.0, nan) is 0.0), which would let a NaN
    residual pass a tolerance check."""
    keep = ["if _v > _worst: _worst = _v", "elif -_v > _worst: _worst = -_v",
            "elif _v != _v: return nan"]
    lines = [f"def _kernel({', '.join((*params, '_rows'))}):", "    _worst = 0.0",
             f"    for {row} in _rows:", *_indent(body, 2)]
    for v in values:
        lines += _indent([f"_v = {v}", *keep], 2)
    return _compile(lines + ["    return _float(_worst)"], "_kernel")


#: `max_abs(values) -> float`: the largest |v| of an iterable of numbers,
#: 0.0 for none, NaN at the first NaN; the fold of the grid kernels
max_abs = _max_abs_kernel((), "_v", [], ["_v"])


def _nest(name: str, depth: int) -> str:
    """Unpacking target of nested pairs: _nest("g", 2) is "((g00, g01), (g10, g11))"."""
    if depth == 0:
        return name
    return f"({_nest(name + '0', depth - 1)}, {_nest(name + '1', depth - 1)})"


#: unpacking target of a point's (G, dG): g{i}{j}{k} = Gamma_ij^k and
#: dg{m}{i}{j}{k} = d_m Gamma_ij^k
_SYMBOLS = f"({_nest('g', 3)}, {_nest('dg', 4)})"


def _curvature_family():
    """(curvature, ricci, ricci_sym) of a point's symbols (G, dG), emitted
    from the one R_ijk^l of the module docstring, each sum in its order.
    Each is compiled on its own, which halves the compiler's peak memory."""
    def R(i, j, k, l):
        return (f"((dg{i}{j}{k}{l} - dg{j}{i}{k}{l}) + (g{i}0{l} * g{j}{k}0 - g{j}0{l} * g{i}{k}0))"
                f" + (g{i}1{l} * g{j}{k}1 - g{j}1{l} * g{i}{k}1)")

    def rho(j, k):
        return f"0.0 + ({R(0, j, k, 0)}) + ({R(1, j, k, 1)})"

    def emit(name, doc, body):
        fn = _compile([f"def {name}(symbols):", f'    """{doc} of the symbols (G, dG) of a point."""',
                       f"    {_SYMBOLS} = symbols", *_indent(body)], name)
        fn.__module__ = __name__
        return fn
    ij = ((0, 0), (0, 1), (1, 0), (1, 1))
    return (emit("curvature", "R_ijk^l, R(d_i, d_j) d_k = R_ijk^l d_l, (i, j, k, l)-major,",
                 [f"return ({', '.join(R(i, j, k, l) for i, j in ij for k, l in ij)},)"]),
            emit("ricci", "(rho_11, rho_12, rho_21, rho_22), rho(d_j, d_k) = trace of"
                          " z -> R(z, d_j) d_k,", [f"return {', '.join(rho(j, k) for j, k in ij)}"]),
            emit("ricci_sym", "(rho_s11, rho_s12, rho_s22) of the symmetrized Ricci tensor,",
                 [*(f"r{j}{k} = {rho(j, k)}" for j, k in ij),
                  "return 0.5 * (r00 + r00), 0.5 * (r01 + r10), 0.5 * (r11 + r11)"]))


curvature, ricci, ricci_sym = _curvature_family()


def curvature_at(spec: ChristoffelSpec, p: Point) -> np.ndarray:
    return np.reshape(curvature(spec.symbols_at(p)), (2, 2, 2, 2))
