"""Names and order statistics shared by the runner, the worker and the
tracer.  Standard library only: the runner loads it without affsurf."""

from __future__ import annotations

import math
import statistics

WORKLOADS = ("atlas-verify", "killing-probe", "geodesic-probe")

#: input variants per record that the seed picks from: one of two default
#: points (killing-probe), one of two extra directions (geodesic-probe).
#: atlas-verify's points come from the seed directly; every record passes
#: on any of them.
VARIANTS = {"atlas-verify": 1, "killing-probe": 2, "geodesic-probe": 2}


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def tail_level(n: int) -> int:
    """The highest percentile, in steps of 5, with at least ten of n samples
    beyond it: p85 for 73 samples, p75 for 40, p70 for 34.  Falls back to the median
    when there are fewer than 20 samples."""
    best = 50
    for p in range(50, 100, 5):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def percentile(xs, p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile: a weighted mean of the
    order statistics, with weights from a Beta(p(n+1), (1-p)(n+1)) law.
    Record times come in clusters (records of one family cost about the
    same), and a nearest-rank percentile jumps across the gap between two
    clusters when the seed moves one record: over five seeds of
    geodesic-probe the plain median spread by 11% between the quartiles,
    this one by 4%."""
    if not xs:
        return 0.0
    ys = sorted(xs)
    n = len(ys)
    if n == 1:
        return float(ys[0])
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = _beta_cdf(a, b, [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * y for i, y in enumerate(ys)))


def _beta_cdf(a: float, b: float, xs: list[float], steps: int = 20000) -> list[float]:
    """The Beta(a, b) distribution function at the increasing points xs,
    by the trapezoid rule on `steps` intervals (a, b >= 1 here)."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 1.0 if (x <= 0.0 and a == 1.0) or (x >= 1.0 and b == 1.0) else 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    out, total, j, prev = [], 0.0, 0, pdf(0.0)
    h = 1.0 / steps
    for x in xs:
        while (j + 1) * h <= x + 1e-12:
            j += 1
            cur = pdf(j * h)
            total += 0.5 * h * (prev + cur)
            prev = cur
        out.append(total)
    out[-1] = 1.0 if xs[-1] >= 1.0 else out[-1]
    return out
