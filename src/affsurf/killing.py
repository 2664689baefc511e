"""Affine Killing fields: residual verification, flows, completeness probe.

A vector field X is affine Killing for a connection when

    [X, del_Y Z] - del_Y [X, Z] - del_{[X,Y]} Z = 0

for all fields Y, Z.  With Y, Z running over the coordinate fields this
reduces, per component k and index pair (i, j), to

    X^m d_m G_ij^k - G_ij^m d_m X^k + d_i d_j X^k
        + d_j X^m G_im^k + d_i X^m G_mj^k = 0,

which is evaluated with exact derivatives of both X (the joint compiled
2-jet of its two components, `compile_jet(X.c1, X.c2)`) and the symbols,
over a grid (a single point is a grid of one point).  `max_killing_residual`
checks all of a record's fields on one grid: it evaluates the symbols once
per grid point for all of them, or once for the whole grid when they are
constant.

The completeness probe integrates every basis field plus a fixed set of
seeded random unit combinations, both directions, from a few interior
points, and declares the model incomplete when any flow escapes (blowup,
step collapse at a singular right-hand side, or crossing the half-plane
edge).  A combination is built as one expression, so every run integrates
one compiled vector field.  Reaching the horizon, or growing beyond the numeric range without
a finite-time signature, counts as evidence of completeness; the verdict
is numerical evidence, not proof, and is always reported next to the
expected flag.  The probe engine, `run_probe`, is shared with the geodesic
probe: each probe only builds its list of runs.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

from .catalog import ModelRecord
from .connection import _SYMBOLS, ChristoffelSpec, _max_abs_kernel, over_grid
from .expr import Data, Point, VectorFieldExpr, _emit_shared, add, compile_jet, const, mul
from .integrate import Field, Status, Trajectory, Unbounded, integrate
from .qe import RESIDUAL_TOL

PROBE_HORIZON = 20.0
#: a complete verdict is re-confirmed at this multiple of the horizon
CONFIRM_FACTOR = 3.0
N_RANDOM_COMBOS = 8
COMBO_SEED = 20240815


def max_killing_residual(spec: ChristoffelSpec, fields: tuple[VectorFieldExpr, ...],
                         grid) -> tuple[float, ...]:
    """Max component of the Killing defect over coordinate-field pairs and
    grid points of each field in fields, read from the joint compiled 2-jet
    of its two components; NaN when any component is NaN.  The symbols of a
    grid point are evaluated once for every field (once for the whole grid
    when the spec is constant, see `over_grid`)."""
    kernel = _defect_kernel()
    rows = list(zip(grid, over_grid(spec, grid, spec.symbols_at)))
    return tuple(kernel(compile_jet(X.c1, X.c2), rows) for X in fields)


#: names of the 2-jets Jk = (X^k, d_1 X^k, d_2 X^k, d_11 X^k, d_12 X^k, d_22 X^k)
#: of the components, which one joint jet of the field returns one after the
#: other, and over them and the symbols' (connection._SYMBOLS) the 8
#: defect components in (i, j, k) order, each the summed loop written out:
#: d_i d_j X^k, then for m = 0, 1 the terms X^m d_m G_ij^k, G_ij^m d_m X^k,
#: d_j X^m G_im^k, d_i X^m G_mj^k, zero symbols included (0.0 * inf stays NaN)
_JETS = tuple(f"(x{k}, d{k}0, d{k}1, dd{k}00, dd{k}01, dd{k}11)" for k in (0, 1))
_DEFECTS = tuple(f"dd{k}{min(i, j)}{max(i, j)}" + "".join(
    f" + x{m} * dg{m}{i}{j}{k} - g{i}{j}{m} * d{k}{m} + d{m}{j} * g{i}{m}{k} + d{m}{i} * g{m}{j}{k}"
    for m in (0, 1)) for i in (0, 1) for j in (0, 1) for k in (0, 1))


@lru_cache(maxsize=None)
def _defect_kernel():
    """`(jet, rows) -> residual`: the largest defect component of the field
    with joint component 2-jet jet (`compile_jet(X.c1, X.c2)`) over rows
    (p, (G, dG))."""
    return _max_abs_kernel(("_jet",), f"_p, {_SYMBOLS}",
                           [f"{_JETS[0][1:-1]}, {_JETS[1][1:-1]} = _jet(*_p)"], _DEFECTS)


def _field_rhs(X: VectorFieldExpr) -> Field:
    """The right-hand side y -> X(y): X's two components over x1, x2,
    emitted together so that a subexpression they repeat is evaluated once,
    with their finite constants as the Field's constants, so that fields
    of one shape (parameter samples, combinations) share one kernel."""
    consts: dict[str, str] = {}
    comps = tuple(_emit_shared((X.c1, X.c2), consts))
    return Field(("x1", "x2"), (), comps, tuple((name, float(text)) for text, name in consts.items()))


def flow_edge(record: ModelRecord) -> float | None:
    """The x1 edge that the Killing flows of record stop at: the half-plane's."""
    return 0.0 if record.mtype == "B" else None


def flow_integrate(X: VectorFieldExpr, p0: Point, t_end: float,
                   edge: float | None = None) -> Trajectory:
    """Integrate the flow x' = X(x) from p0 to signed time t_end, keeping
    x1 above edge when one is given."""
    return integrate(_field_rhs(X), p0, t_end, edge=edge)


def combination(basis, coeffs) -> VectorFieldExpr:
    """The Killing field sum_i c_i X_i as one expression."""
    c1 = add(*(mul(const(c), X.c1) for c, X in zip(coeffs, basis)))
    c2 = add(*(mul(const(c), X.c2) for c, X in zip(coeffs, basis)))
    return VectorFieldExpr(c1, c2)


class FlowWitness(Data):
    __slots__ = ("field_label", "coeffs", "init", "direction", "status")

    def __init__(self, field_label: str, coeffs: tuple[float, ...], init: tuple[float, float],
                 direction: str, status: Status):
        self.field_label, self.coeffs, self.init = field_label, coeffs, init
        self.direction, self.status = direction, status

    def to_json(self):
        return {"field": self.field_label, "coeffs": list(self.coeffs),
                "init": list(self.init), "direction": self.direction,
                **self.status.to_json()}


class ProbeReport(Data):
    __slots__ = ("model", "kind", "complete", "horizon", "expected", "witnesses", "unbounded_runs")

    def __init__(self, model: str, kind: str, complete: bool, horizon: float,
                 expected: bool | None, witnesses: list[FlowWitness] | None = None,
                 unbounded_runs: int = 0):  # kind: "killing" | "geodesic"
        self.model, self.kind, self.complete, self.horizon = model, kind, complete, horizon
        self.expected, self.unbounded_runs = expected, unbounded_runs
        self.witnesses = [] if witnesses is None else witnesses

    @property
    def verdict(self) -> str:
        if self.expected is None:
            return "not-classified"
        return "matches-theorem" if self.complete == self.expected else "contradicts-theorem"

    def to_json(self):
        return {"model": self.model, "probe": self.kind, "complete": self.complete,
                "horizon": self.horizon,
                "expected": "not-classified" if self.expected is None else self.expected,
                "verdict": self.verdict,
                "witnesses": [w.to_json() for w in self.witnesses],
                "unbounded_runs": self.unbounded_runs}


def default_flow_inits(record: ModelRecord) -> tuple[Point, ...]:
    """Two interior points per domain type.  The plane set includes a point
    with x2 = 0: some incomplete flows (the punctured-chart family) die only
    along that measure-zero ray and would be missed from generic points."""
    if record.mtype == "B":
        return ((1.0, 0.5), (2.0, -1.0))
    return ((0.3, -0.7), (0.5, 0.0))


def run_probe(record: ModelRecord, kind: str, runs, T: float, confirm_factor: float,
              edge: float | None) -> ProbeReport:
    """The probe engine behind both completeness probes.  Each run is
    (label, coeffs, init, rhs, y0) and is integrated forward and backward
    to the horizon, every run with the same x1 edge.  Incomplete as soon
    as one run escapes; a complete verdict is confirmed at confirm_factor
    times T when that exceeds T, each run extended from its horizon-T
    run."""
    expected = (record.expected.killing_complete if kind == "killing"
                else record.expected.geodesically_complete)
    horizons = (T, confirm_factor * T)
    kept: deque = deque()  # the horizon-T runs, in run order, to extend
    for confirming, horizon in enumerate(horizons):
        witnesses: list[FlowWitness] = []
        unbounded = 0
        for label, coeffs, init, rhs, y0 in runs:
            for t_end, dirname in ((horizon, "forward"), (-horizon, "backward")):
                tr = integrate(rhs, kept.popleft() if confirming else y0, t_end, edge=edge)
                if tr.escaped:
                    witnesses.append(FlowWitness(label, coeffs, init, dirname, tr.status))
                    continue
                if isinstance(tr.status, Unbounded):
                    unbounded += 1
                if not (confirming or witnesses):
                    kept.append(tr)
        if witnesses or not horizons[1] > T:
            break
    return ProbeReport(record.ref.label(), kind, complete=not witnesses, horizon=horizon,
                       expected=expected, witnesses=witnesses, unbounded_runs=unbounded)


def killing_completeness_probe(record: ModelRecord,
                               T: float = PROBE_HORIZON,
                               init_set=None,
                               n_combos: int = N_RANDOM_COMBOS,
                               seed: int = COMBO_SEED) -> ProbeReport:
    """Flow every Killing basis field and seeded random unit combinations
    from each initial point, both directions; half-plane flows stop at the
    edge x1 = 0.  Incomplete as soon as one flow escapes before the
    horizon; complete verdicts are re-confirmed at CONFIRM_FACTOR times the
    horizon."""
    inits = tuple(init_set) if init_set is not None else default_flow_inits(record)
    basis = record.killing_basis
    dim = len(basis)

    jobs = [(f"basis[{idx}]", tuple(1.0 if i == idx else 0.0 for i in range(dim)), X)
            for idx, X in enumerate(basis)]
    rng = np.random.default_rng(seed)
    for c in range(n_combos):
        v = rng.normal(size=dim)
        coeffs = tuple(float(x) for x in v / np.linalg.norm(v))
        jobs.append((f"combo[{c}]", coeffs, combination(basis, coeffs)))
    runs = []
    for label, coeffs, X in jobs:
        rhs = _field_rhs(X)
        runs.extend((label, coeffs, p0, rhs, p0) for p0 in inits)
    return run_probe(record, "killing", runs, T, CONFIRM_FACTOR, flow_edge(record))


def verify_killing_basis(record: ModelRecord, grid):
    """Max Killing residual per basis field over the grid."""
    res = max_killing_residual(record.spec, record.killing_basis, grid)
    return res, all(r <= RESIDUAL_TOL for r in res)
