"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to runtime
calibration.  Total runtime is a few minutes on a laptop.
"""

import math

import numpy as np
import pytest

from affsurf import catalog as C
from affsurf import expr as ex
from affsurf import geodesic as G
from affsurf import killing as K
from affsurf import projective as P
from affsurf import qe
from affsurf.connection import curvature_at
from test_connection import ricci_rank
from test_geodesic import closed_form_geodesic, escape_time
from test_integrate import dense_eval
from test_projective import immersion, line_image_residual
from test_qe import mutation_direction

AB_SAMPLES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)]


@pytest.fixture(scope="module")
def records():
    return C.all_records()


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS  ({detail})")


def test_criterion_1_qe_bases_and_mutations(records):
    """Every catalog solution basis verifies to 1e-8; perturbed bases fail
    at 1e-4 or worse."""
    n_models = n_elements = 0
    for rec in records:
        if not rec.q_basis:
            continue
        grid = C.sample_grid(rec)
        rep = qe.verify_q_basis(rec, grid)
        assert rep.passed, (rec.ref.label(), rep.residuals)
        assert abs(rep.xi_det) > 1e-10, rec.ref.label()
        mu = mutation_direction(rec, grid)
        mutated = ex.add(rec.q_basis[0], ex.mul(ex.const(1e-2), mu))
        assert qe.max_residual(rec.spec, (mutated,), grid)[0] > 1e-4, rec.ref.label()
        n_models += 1
        n_elements += len(rec.q_basis)
    assert n_models == 67  # all samples except the trivial-solution families
    _report(1, f"{n_elements} basis elements over {n_models} models, tol 1e-8; mutations > 1e-4")


def test_criterion_2_geodesic_oracles():
    """Integrator matches every closed form to sup error 1e-6 on the inner
    80 percent of its validity window."""
    fams = ([("A.M06", {}), ("A.M16", {}), ("A.M26", {}), ("A.M36", {}),
             ("A.M46", {}), ("A.M56", {}), ("A.M14", {})]
            + [("A.M24", p) for p in C.standard_samples("A.M24")]
            + [("A.M34", p) for p in C.standard_samples("A.M34")]
            + [("A.M44", p) for p in C.standard_samples("A.M44")]
            + [("A.M54t", p) for p in C.standard_samples("A.M54t")])
    worst = 0.0
    n_curves = 0
    for fam, kw in fams:
        rec = C.instantiate(fam, **kw)
        rhs = G._make_rhs(rec.spec)
        for a, b in AB_SAMPLES:
            cf = closed_form_geodesic(rec, a, b)
            lo, hi = cf.inner_window()
            f = cf.compiled()
            for t_end in (hi, lo):
                if abs(t_end) < 1e-9:
                    continue
                tr = G.geodesic_integrate(rec.spec, rec.base_point, (a, b), t_end)
                assert tr.status.to_json()["status"] == "reached-horizon", (fam, kw, a, b)
                for t in np.linspace(0.0, t_end, 50)[1:]:
                    xy = dense_eval(tr, rhs, float(t))[:2]
                    want = f(float(t))
                    worst = max(worst, abs(xy[0] - want[0]), abs(xy[1] - want[1]))
            n_curves += 1
    # the special rank-2 curves
    for fam, kw, ab in [("A.M32", {"c": 2.0}, (1.0, 0.0)),
                        ("A.M32", {"c": -0.5}, (1.0, 0.0)),
                        ("A.M42", {"sign": 1.0}, (1.0, 0.0)),
                        ("A.M42", {"sign": -1.0}, (1.0, 0.0)),
                        ("A.M12", {"a1": 2.0, "a2": 3.0}, (1 / 6, 1 / 6))]:
        rec = C.instantiate(fam, **kw)
        rhs = G._make_rhs(rec.spec)
        cf = closed_form_geodesic(rec, *ab)
        lo, hi = cf.inner_window()
        f = cf.compiled()
        for t_end in (hi, lo):
            tr = G.geodesic_integrate(rec.spec, rec.base_point, ab, t_end)
            for t in np.linspace(0.0, t_end, 50)[1:]:
                xy = dense_eval(tr, rhs, float(t))[:2]
                want = f(float(t))
                worst = max(worst, abs(xy[0] - want[0]), abs(xy[1] - want[1]))
        n_curves += 1
    assert worst <= 1e-6
    _report(2, f"{n_curves} curves, sup gap {worst:.2e} <= 1e-6")


def test_criterion_3_blowup_brackets():
    """Quadrant-chart geodesic (1,1) escapes forward at t* = 1 and the
    log-chart geodesic (1,1) escapes backward at t* = -1, with brackets of
    width at most 1e-3."""
    m26 = C.instantiate("A.M26")
    et = escape_time(m26.spec, (0.0, 0.0), (1.0, 1.0))
    fwd = et["forward"]["bracket"]
    assert fwd is not None and fwd[0] <= 1.0 <= fwd[1]
    assert fwd[1] - fwd[0] <= 1e-3
    assert 0.999 <= fwd[0] and fwd[1] <= 1.001
    m16 = C.instantiate("A.M16")
    et = escape_time(m16.spec, (0.0, 0.0), (1.0, 1.0))
    back = et["backward"]["bracket"]
    assert back is not None and back[0] <= -1.0 <= back[1]
    assert back[1] - back[0] <= 1e-3
    assert -1.001 <= back[0] and back[1] <= -0.999
    _report(3, f"forward bracket {fwd}, backward bracket {back}")


@pytest.mark.slow
def test_criterion_4_geodesic_completeness_table(records):
    """Geodesic probe verdict equals the classification flag for every
    plane-family record; the complete set is exactly the flat plane, the
    parabolic chart, the c = -1/2 member of A.M34 and the b1 = -1 members
    of A.M22."""
    complete_labels = []
    for rec in records:
        if rec.mtype == "B":
            continue
        rep = G.geodesic_completeness_probe(rec)
        assert rep.verdict == "matches-theorem", (rec.ref.label(), rep.complete)
        if rep.complete and rec.mtype == "A":
            complete_labels.append(rec.ref.label())
    assert sorted(complete_labels) == sorted(
        ["A.M06", "A.M46", "A.M34(c=-0.5)", "A.M22(b1=-1,b2=2)"])
    _report(4, f"all plane records agree; complete set = {sorted(complete_labels)}")


@pytest.mark.slow
def test_criterion_5_killing_completeness_tables(records):
    """Killing probe verdict equals the classification flag for every
    record, with the documented exception that the flat half-plane B.N06
    carries the honest flag (incomplete: its translation field leaves the
    domain in finite time), where the summary table in the source lists it
    as complete; the probe and flag agree with the witness construction."""
    from affsurf.integrate import Blowup, LeftDomain
    reports = {}
    for rec in records:
        rep = K.killing_completeness_probe(rec)
        assert rep.verdict == "matches-theorem", (rec.ref.label(), rep.complete,
                                                  rec.expected.killing_complete)
        reports[rec.ref.label()] = rep
    n = len(reports)

    def probed(fam, **kw):
        """The report of the record loop above for this model."""
        return reports[C.instantiate(fam, **kw).ref.label()]

    # named checks from the classification statements
    assert probed("B.N43").complete
    assert probed("B.N56").complete
    for fam, kw in [("B.N13", {"sign": 1.0}), ("B.N13", {"sign": -1.0}),
                    ("B.N23", {"c": 2.0}), ("B.N33", {})]:
        rep = probed(fam, **kw)
        assert not rep.complete
        assert any(isinstance(w.status, Blowup) for w in rep.witnesses), fam
    # the flat half-plane: incomplete by domain exit of a translation flow
    rep = probed("B.N06")
    assert not rep.complete
    assert any(isinstance(w.status, LeftDomain) for w in rep.witnesses)
    _report(5, f"{n} records agree (B.N06 flag per the flow witness; see notes)")


def test_criterion_6_flattening(records):
    """Every constant-symbol model flattens: deformed Ricci and curvature
    at most 1e-10 and one of e^{+phi}, e^{-phi} solves the quasi-Einstein
    equation to 1e-8."""
    n = 0
    for rec in records:
        if rec.spec.kind != "constant":
            continue
        rep = P.flatten_report(rec, C.sample_grid(rec))
        assert rep.rho_tilde_max <= 1e-10, rec.ref.label()
        assert rep.curvature_tilde_max <= 1e-10, rec.ref.label()
        assert rep.qe_residual <= 1e-8, rec.ref.label()
        n += 1
    _report(6, f"{n} models flattened, both tolerances held")


def test_criterion_7_affine_map_verification(records):
    """All nine plane-to-plane maps and all ten half-plane maps pass the
    pullback comparison at 1e-8; mutated maps fail.  Transposing the output
    components is asserted to fail wherever it is a genuine mutation
    (curved targets); for flat targets it composes with a linear symmetry
    of the target and cannot fail, so a transverse nonlinear bump serves as
    the universal control."""
    seen = {}
    for rec in records:
        for rep in P.verify_affine_maps(rec, C.sample_grid(rec)):
            assert rep.passed, rep.to_json()
            seen.setdefault(rep.name, 0)
            seen[rep.name] += 1
    theta = {n for n in seen if n.startswith("Theta")}
    psi = {n for n in seen if n.startswith("Psi")}
    assert theta == {"Theta16", "Theta26", "Theta36", "Theta46", "Theta56",
                     "Theta14", "Theta24", "Theta44", "Theta54"}
    assert psi == {"Psi06", "Psi16", "Psi26", "Psi36", "Psi46", "Psi56", "Psi66",
                   "Psi14", "Psi24", "Psi34"}

    curved_target = [("A.M14", {}), ("A.M24", {"c": 1 / 3}), ("A.M44", {"c": 2.0}),
                     ("A.M54", {"c": 2.0}), ("B.N14", {"kappa": 2.0}),
                     ("B.N24", {"kappa": 2.0, "theta": 3.0}), ("B.N34", {"kappa": 2.0})]
    for fam, kw in curved_target:
        rec = C.instantiate(fam, **kw)
        entry = rec.maps[0]
        swapped = C.AffineMapEntry(entry.name, ex.PlaneMap(
            entry.plane_map.f2, entry.plane_map.f1), entry.target)
        assert not P.verify_map_entry(rec, swapped, C.sample_grid(rec)).passed, fam
    bump = ex.mul(ex.const(0.01), ex.sin(ex.x1))
    for rec in records:
        grid = C.sample_grid(rec)
        for entry in rec.maps:
            mutated = C.AffineMapEntry(entry.name, ex.PlaneMap(
                ex.add(entry.plane_map.f1, bump), entry.plane_map.f2), entry.target)
            assert not P.verify_map_entry(rec, mutated, grid).passed, (rec.ref.label(), entry.name)
    _report(7, f"{sum(seen.values())} map instances pass at 1e-8; mutations fail")


def test_criterion_8_rank_and_flatness_ledger(records):
    """Ricci rank matches the dimension class for every plane record, and
    the six-dimensional half-plane families are exactly flat."""
    n = 0
    for rec in records:
        if rec.expected.ricci_rank is not None:
            for p in C.sample_grid(rec)[::6]:
                assert ricci_rank(rec.spec, p) == rec.expected.ricci_rank, rec.ref.label()
            n += 1
        if rec.mtype == "B" and rec.expected.dim_killing == 6:
            p = (0.8, -0.6)
            assert ricci_rank(rec.spec, p) == 0
            assert np.max(np.abs(curvature_at(rec.spec, p))) <= 1e-12
    _report(8, f"rank checked on {n} records; flat detection on the dim-6 half-plane families")


def test_criterion_9_line_images():
    """Twenty random geodesics across five straightened models have
    collinear images to 1e-6; a circle control exceeds 1e-3."""
    rng = np.random.default_rng(20240815)
    models = [("A.M54", {"c": 2.0}), ("A.M34", {"c": 1 / 3}),
              ("A.M12", {"a1": 2.0, "a2": 3.0}), ("A.M22", {"b1": -1.0, "b2": 2.0}),
              ("A.M42", {"sign": 1.0})]
    worst = 0.0
    n = 0
    for fam, kw in models:
        rec = C.instantiate(fam, **kw)
        pm = immersion(rec)
        for _ in range(4):
            th = float(rng.uniform(0.0, 2.0 * math.pi))
            tr = G.geodesic_integrate(rec.spec, (0.0, 0.0),
                                      (math.cos(th), math.sin(th)), 0.8)
            res = line_image_residual(pm, [s[:2] for s in tr.states])
            worst = max(worst, res)
            n += 1
    assert n == 20 and worst <= 1e-6
    pm06 = immersion(C.instantiate("A.M06"))
    circle = [(math.cos(t), math.sin(t)) for t in np.linspace(0.0, 2.0, 50)]
    control = line_image_residual(pm06, circle)
    assert control > 1e-3
    _report(9, f"20 geodesics, worst residual {worst:.2e}; circle control {control:.2e}")
