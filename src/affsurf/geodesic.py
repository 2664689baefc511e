"""Geodesics: integration and completeness probing.

A geodesic satisfies  sigma-ddot^k + G_ij^k sigma-dot^i sigma-dot^j = 0;
the integrator propagates the first-order system on (x, v) with the shared
adaptive stepper.  The closed-form geodesics of most plane families, the
oracles for the integrator and for blowup times, live with the tests.

The completeness probe builds one run per initial condition and hands the
list to the probe engine it shares with the Killing-flow probe
(`killing.run_probe`).

Half-plane (B.*) models can be integrated and probed, but no completeness
ground truth is asserted for them: every probe on such a model reports the
expected flag as "not-classified".  Trajectories that cross x1 <= 1e-12
terminate as LeftDomain: the half-plane boundary is a chart edge, not an
explosion.
"""

from __future__ import annotations

import math

from .catalog import ModelRecord
from .connection import ChristoffelSpec
from .integrate import Field, Trajectory, integrate
from .killing import ProbeReport, run_probe

HORIZON = 50.0
#: a complete verdict is re-confirmed at this multiple of the horizon
CONFIRM_FACTOR = 4.0
#: half-plane geodesics stop where x1 falls to this edge
B_DOMAIN_EDGE = 1e-12

#: (prelude, components) of the first-order system on (x, v) = (u, w, v1, v2),
#: (v, -G(x)(v, v)), per symbol kind; the six symbols are the constants
#: a..f, so all specs of one kind share one kernel
_QUADRATIC = ("q11 = v1 * v1", "q12 = 2.0 * v1 * v2", "q22 = v2 * v2")
_GEODESIC_SOURCES = {
    "constant": (_QUADRATIC, ("v1", "v2",
                              "-(a * q11 + c * q12 + e * q22)",
                              "-(b * q11 + d * q12 + f * q22)")),
    "inverse-x1": (("if u <= 0.0:", "    raise DomainError('left the half-plane')") + _QUADRATIC,
                   ("v1", "v2",
                    "-(a * q11 + c * q12 + e * q22) / u",
                    "-(b * q11 + d * q12 + f * q22) / u")),
    "linear-x1": (_QUADRATIC, ("v1", "v2",
                               "-(a * q11 + c * q12 + e * u * q22)",
                               "-(b * q11 + d * q12 + f * q22)")),
}


def _make_rhs(spec: ChristoffelSpec) -> Field:
    """The geodesic right-hand side of spec as a Field over (u, w, v1, v2)."""
    prelude, comps = _GEODESIC_SOURCES[spec.kind]
    return Field(("u", "w", "v1", "v2"), prelude, comps, tuple(zip("abcdef", spec.coeffs)))


def _edge(spec: ChristoffelSpec) -> float | None:
    return B_DOMAIN_EDGE if spec.kind == "inverse-x1" else None


def geodesic_integrate(spec: ChristoffelSpec, x0, v0, t_end: float) -> Trajectory:
    """Integrate the geodesic from x0 with velocity v0 to signed time t_end."""
    return integrate(_make_rhs(spec), (*x0, *v0), t_end, edge=_edge(spec))


# ---------------------------------------------------------------------------
# completeness probe


def default_geodesic_inits(record: ModelRecord):
    """Eight unit directions plus the velocity samples the closed forms are
    exercised at (b = 0 rays included deliberately)."""
    dirs = []
    for k in range(8):
        th = math.pi * k / 4.0
        dirs.append((math.cos(th), math.sin(th)))
    extra = [(0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)]
    return [record.base_point], dirs + extra


def geodesic_completeness_probe(record: ModelRecord,
                                T: float = HORIZON,
                                init_set=None) -> ProbeReport:
    """Integrate every initial condition both directions and declare the
    model complete when nothing escapes before the horizon; complete
    verdicts are re-confirmed at CONFIRM_FACTOR times the horizon (the
    defaults give 50 then 200).  Verdicts are compared against the
    expected flag (None for half-plane families)."""
    if init_set is None:
        bases, vels = default_geodesic_inits(record)
        init_set = [(b, v) for b in bases for v in vels]
    rhs = _make_rhs(record.spec)
    runs = [(f"geodesic a={v0[0]:g} b={v0[1]:g}", tuple(v0), tuple(x0), rhs, (*x0, *v0))
            for x0, v0 in init_set]
    return run_probe(record, "geodesic", runs, T, CONFIRM_FACTOR, _edge(record.spec))
