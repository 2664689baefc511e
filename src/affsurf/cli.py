"""Command-line interface.

Subcommands: catalog, verify, geodesic, flow, flatten, table, plot.
All configuration flows through flags (no config files, no environment),
and a fixed seed makes every JSON byte-identical across runs.

Exit codes: 0 success, 1 verification mismatch, 2 usage or guard error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import catalog as cat
from . import geodesic as geo
from . import killing as kil
from . import output as out
from . import projective as proj
from . import qe
from .catalog import GuardError

#: every parameter name of the catalog's families, in the order they first
#: appear there, but sign (read from words like "+" or "minus") last
_PARAM_FLAGS = tuple(sorted(dict.fromkeys(name for fam in cat.FAMILIES.values()
                                          for name in fam.param_names), key="sign".__eq__))

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="affsurf",
                                 description="homogeneous affine surface toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list model families and expected flags")
    p.add_argument("--type", choices=("A", "B", "aux"), default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--records", action="store_true",
                   help="dump full records at the standard parameter samples")
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("verify", help="verify one model or the whole atlas")
    p.add_argument("family", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--grid", type=int, default=5)
    _add_param_flags(p)
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("geodesic", help="integrate a geodesic both directions")
    p.add_argument("family")
    _add_param_flags(p)
    p.add_argument("--init", required=True, help="x1,x2,v1,v2")
    p.add_argument("--T", type=float, default=geo.HORIZON)
    p.add_argument("--csv", dest="csv_path", default=None)
    p.add_argument("--svg", dest="svg_path", default=None)
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("flow", help="integrate a Killing field flow both directions")
    p.add_argument("family")
    _add_param_flags(p)
    p.add_argument("--init", required=True, help="x1,x2")
    p.add_argument("--field", type=int, default=0, help="index into the Killing basis")
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--csv", dest="csv_path", default=None)
    p.add_argument("--svg", dest="svg_path", default=None)
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("flatten", help="flatten a constant-symbol model")
    p.add_argument("family")
    _add_param_flags(p)
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("table", help="probe verdicts against a classification table")
    p.add_argument("--theorem", required=True, choices=("1.5", "1.7", "1.10"),
                   help="1.5: Killing completeness, plane families; "
                        "1.7: geodesic completeness, plane families; "
                        "1.10: Killing completeness, half-plane families")
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--seed", type=int, default=kil.COMBO_SEED)
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("plot", help="render a trajectory CSV as an SVG polyline")
    p.add_argument("--csv", dest="csv_path", required=True)
    p.add_argument("--svg", dest="svg_path", required=True)
    return ap


def _add_param_flags(p):
    for name in _PARAM_FLAGS:
        p.add_argument(f"--{name}", type=str, default=None)


def _collect_params(args, family: str) -> dict:
    fam = cat.FAMILIES[family]
    params = {}
    for name in _PARAM_FLAGS:
        raw = getattr(args, name, None)
        if raw is None:
            continue
        if name not in fam.param_names:
            raise GuardError(f"{family} takes no parameter --{name}")
        if name == "sign":
            raw = {"+": "1", "-": "-1", "+1": "1", "plus": "1", "minus": "-1"}.get(raw, raw)
        params[name] = float(raw)
        if not math.isfinite(params[name]):
            raise GuardError(f"--{name} must be finite, got {raw}")
    return params


def _check_horizon(T: float) -> None:
    if not (math.isfinite(T) and T > 0):
        raise GuardError(f"--T must be finite and positive, got {T}")


def _parse_init(text: str, form: str) -> list[float]:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != len(form.split(",")):
        raise GuardError(f"--init must be {form}")
    if not all(math.isfinite(v) for v in vals):
        raise GuardError(f"--init must be finite, got {text}")
    return vals


def _resolve_model(args) -> cat.ModelRecord:
    family, preset = cat.parse_family_token(args.family)
    params = dict(preset)
    params.update(_collect_params(args, family))
    return cat.instantiate(family, **params)


def _emit(payload: dict, json_path: str | None) -> None:
    text = out.dump_json(payload)
    if json_path:
        _write(json_path, text)
    else:
        sys.stdout.write(text)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalog(args) -> int:
    if args.records:
        fams, preset = [f.name for f in cat.families(args.type)], {}
        if args.family:
            family, preset = cat.parse_family_token(args.family)
            fams = [family]
        # an alias such as B.N13p keeps only the samples with its preset
        records = [cat.instantiate(fam, **params).to_json() for fam in fams
                   for params in cat.standard_samples(fam) if preset.items() <= params.items()]
        _emit({"count": len(records), "records": records}, args.json_path)
        return EXIT_OK
    if args.family:
        fam = cat.FAMILIES[cat.parse_family_token(args.family)[0]]
        _emit({**fam.to_json(), "samples": list(cat.standard_samples(fam.name))},
              args.json_path)
        return EXIT_OK
    fams = cat.families(args.type)
    _emit({"count": len(fams), "families": [f.to_json() for f in fams]}, args.json_path)
    return EXIT_OK


def _verify_one(record: cat.ModelRecord, n_grid: int) -> dict:
    grid = cat.sample_grid(record, n_grid)
    entry: dict = {"model": record.ref.label(), "pass": True}
    if record.q_basis:
        rep = qe.verify_q_basis(record, grid)
        entry["qe"] = rep.to_json()
        entry["pass"] &= rep.passed
    kres, kok = kil.verify_killing_basis(record, grid)
    entry["killing_residuals"] = list(kres)
    entry["pass"] &= kok
    if record.spec.kind == "constant":
        frep = proj.flatten_report(record, grid)
        entry["flatten"] = frep.to_json()
        entry["pass"] &= frep.passed
    maps = proj.verify_affine_maps(record, grid)
    if maps:
        entry["maps"] = [m.to_json() for m in maps]
        entry["pass"] &= all(m.passed for m in maps)
    entry["pass"] = bool(entry["pass"])
    return entry


def cmd_verify(args) -> int:
    if args.all:
        if args.family or any(getattr(args, name) is not None for name in _PARAM_FLAGS):
            raise GuardError("verify --all takes no family or family parameter")
        records = cat.all_records()
    else:
        if not args.family:
            raise GuardError("verify needs a family or --all")
        records = [_resolve_model(args)]
    if args.grid < 1:
        raise GuardError(f"--grid must be at least 1, got {args.grid}")
    results = [_verify_one(r, args.grid) for r in records]
    ok = all(r["pass"] for r in results)
    _emit({"results": results, "pass": ok}, args.json_path)
    return EXIT_OK if ok else EXIT_MISMATCH


def _trajectory_command(args, record, vals, run, extra=lambda fwd, back: {}) -> int:
    """Run to T and to -T, write the forward run's CSV/SVG and emit the
    JSON; extra(fwd, back) gives the command's own keys."""
    fwd, back = run(args.T), run(-args.T)
    payload = {"model": record.ref.label(), "init": vals, "T": args.T,
               "forward": fwd.status.to_json(), "backward": back.status.to_json(),
               **extra(fwd, back)}
    if args.csv_path:
        _write(args.csv_path, out.trajectory_csv(fwd))
    if args.svg_path:
        _write(args.svg_path, out.svg_polyline(fwd.states[:, :2]))
    _emit(payload, args.json_path)
    return EXIT_OK


def cmd_geodesic(args) -> int:
    record = _resolve_model(args)
    vals = _parse_init(args.init, "x1,x2,v1,v2")
    _check_horizon(args.T)
    x0, v0 = (vals[0], vals[1]), (vals[2], vals[3])
    return _trajectory_command(args, record, vals,
                               lambda t_end: geo.geodesic_integrate(record.spec, x0, v0, t_end))


def cmd_flow(args) -> int:
    record = _resolve_model(args)
    vals = _parse_init(args.init, "x1,x2")
    _check_horizon(args.T)
    if not 0 <= args.field < len(record.killing_basis):
        raise GuardError(f"--field must be in [0, {len(record.killing_basis) - 1}]")
    X = record.killing_basis[args.field]
    return _trajectory_command(
        args, record, vals,
        lambda t_end: kil.flow_integrate(X, tuple(vals), t_end, edge=kil.flow_edge(record)),
        lambda fwd, back: {"field": args.field, "escape": fwd.escaped or back.escaped})


def cmd_flatten(args) -> int:
    record = _resolve_model(args)
    if record.spec.kind != "constant":
        raise GuardError(f"{record.ref.label()} is not a constant-symbol model")
    rep = proj.flatten_report(record, cat.sample_grid(record))
    _emit(rep.to_json(), args.json_path)
    return EXIT_OK if rep.passed else EXIT_MISMATCH


def cmd_table(args) -> int:
    if args.T is not None:
        _check_horizon(args.T)
    if args.seed < 0:
        raise GuardError(f"--seed must be a non-negative integer, got {args.seed}")
    records = (cat.all_records("B") if args.theorem == "1.10"
               else [r for r in cat.all_records() if r.mtype != "B"])
    if args.theorem == "1.7":
        T = args.T if args.T is not None else geo.HORIZON
        rows = [geo.geodesic_completeness_probe(rec, T=T) for rec in records]
    else:
        T = args.T if args.T is not None else kil.PROBE_HORIZON
        rows = [kil.killing_completeness_probe(rec, T=T, seed=args.seed) for rec in records]
    agree = all(r.verdict in ("matches-theorem", "not-classified") for r in rows)
    keys = ("model", "complete", "expected", "verdict")
    payload = {"table": args.theorem,
               "rows": [{k: row[k] for k in keys} for row in (r.to_json() for r in rows)],
               "agree": agree}
    _emit(payload, args.json_path)
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_plot(args) -> int:
    with open(args.csv_path) as fh:
        text = fh.read()
    _write(args.svg_path, out.svg_from_csv(text))
    return EXIT_OK


_COMMANDS = {
    "catalog": cmd_catalog,
    "verify": cmd_verify,
    "geodesic": cmd_geodesic,
    "flow": cmd_flow,
    "flatten": cmd_flatten,
    "table": cmd_table,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # non-finite values fail checks or reach the handlers below anyway
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError, MemoryError) as err:  # max_steps, overflow, memory
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
