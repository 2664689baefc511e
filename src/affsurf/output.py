"""Deterministic emitters: JSON reports, trajectory CSV, SVG curve plots.

Identical inputs give byte-identical outputs: floats are written with
repr (non-finite ones as the strings "nan", "inf", "-inf"), JSON keys are
sorted, and the SVG is a pure function of the CSV columns it plots.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .integrate import Trajectory


def _jsonable(obj):
    """Plain JSON values from numpy ones; non-finite floats become the
    strings "nan", "inf" and "-inf", so a failing residual is still written
    as strict JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    return obj.item() if isinstance(obj, np.generic) else obj


def dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    """Columns t,x1,x2 for flows and t,x1,x2,v1,v2 for geodesics."""
    with_velocity = traj.states.shape[1] >= 4
    header = "t,x1,x2,v1,v2" if with_velocity else "t,x1,x2"
    lines = [header]
    for t, y in zip(traj.times, traj.states):
        cols = [repr(float(t)), repr(float(y[0])), repr(float(y[1]))]
        if with_velocity:
            cols += [repr(float(y[2])), repr(float(y[3]))]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str):
    """The header and the rows of a trajectory CSV.  ValueError unless
    there is a header and at least one row, every row is as wide as the
    header and every value is finite."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines:
        raise ValueError("trajectory CSV has no header")
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if not rows:
        raise ValueError("trajectory CSV has no data rows")
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise ValueError(f"trajectory CSV row {i} has {len(row)} values "
                             f"for {len(header)} columns")
        if not all(map(math.isfinite, row)):
            raise ValueError(f"trajectory CSV row {i} holds a non-finite value")
    return header, np.array(rows)


def svg_polyline(points) -> str:
    """A single polyline fitted into a 640 x 480 viewBox with a 5% margin,
    with axis labels x1 and x2; y grows upward."""
    width, height = 640, 480
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("no points to plot")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    margin = 0.05 * span
    lo = lo - margin
    hi = hi + margin
    span = hi - lo

    def sx(v):
        return (v - lo[0]) / span[0] * width

    def sy(v):
        return height - (v - lo[1]) / span[1] * height

    coords = " ".join(f"{sx(p[0]):.3f},{sy(p[1]):.3f}" for p in pts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">\n'
        f'  <rect width="{width}" height="{height}" fill="white"/>\n'
        f'  <polyline fill="none" stroke="black" stroke-width="1.5" points="{coords}"/>\n'
        f'  <text x="{width - 30}" y="{height - 8}" font-size="14">x1</text>\n'
        f'  <text x="8" y="16" font-size="14">x2</text>\n'
        f"</svg>\n"
    )


def svg_from_csv(text: str) -> str:
    header, rows = parse_trajectory_csv(text)
    i1, i2 = header.index("x1"), header.index("x2")
    return svg_polyline(rows[:, (i1, i2)])
