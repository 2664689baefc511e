"""Determinism self-check of the counts the benchmark reports.

    python3 perfbench/selfcheck.py

For each workload, two traced passes and one untraced pass run in fresh
processes at seed SEED.  Every count metric of the traced passes must
repeat exactly.  An untraced pass installs no wrappers, so its step counts
cannot be observed; instead its output (every residual, escape time and
witness, floats included) must hash to the same digest as the traced
passes', and its expr.compile_misses (read from compile_scalar.cache_info,
no wrapper needed) must match.

Then the full A.M46 Killing probe runs traced at the probe's defaults
(default seed, both default points, 8 combinations, horizon 20 with a x3
confirm), and its accepted steps must equal A46_STEPS.

Exit 0 when everything holds, 1 otherwise.  Results also go to
perfbench/out/selfcheck.json.
"""

from __future__ import annotations

import json
import sys

from common import WORKLOADS
from run import OUT, ROOT, Runner, per_layer

SEED = 1
#: accepted steps of the full default A.M46 Killing probe
A46_STEPS = 1_456_696


def workload_counts(workload: str) -> tuple[dict, list[str]]:
    runner = Runner(workload, SEED)
    args = ["--workload", workload, "--seed", str(SEED)]
    traced = [runner.worker(*args, "--traced") for _ in range(2)]
    plain = [runner.worker(*args)]
    layers, problems = per_layer(plain, traced)
    counts = {k: v for k, (v, unit) in layers.items() if unit == "count"}
    return counts, [f"{workload}: {p}" for p in problems]


def m46_steps() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    from affsurf import catalog, killing

    tr = tracer.Tracer()
    tr.install()
    killing.killing_completeness_probe(catalog.instantiate("A.M46"))
    return sum(t[1] for t in tr.trajs)


def main() -> int:
    result, problems = {"seed": SEED}, []
    for workload in WORKLOADS:
        counts, bad = workload_counts(workload)
        result[workload] = counts
        problems += bad
        print(f"{workload}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    steps = m46_steps()
    result["A.M46 full probe steps"] = steps
    print(f"A.M46 full default probe: {steps} accepted steps (expected {A46_STEPS})")
    if steps != A46_STEPS:
        problems.append(f"A.M46 full probe took {steps} steps, expected {A46_STEPS}")
    result["problems"] = problems
    OUT.mkdir(exist_ok=True)
    with open(OUT / "selfcheck.json", "w") as fh:
        json.dump(result, fh, indent=1)
    for p in problems:
        print(f"FAIL {p}")
    print("determinism self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
