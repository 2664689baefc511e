"""affsurf benchmark: one workload, measured from outside, checked against
its verdict reference (see README.md for workloads and metrics).

    python3 perfbench/run.py --workload atlas-verify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Every pass runs in a fresh single-threaded worker process, so each
pass pays what a CLI call pays.  Another pass starts only while all of
it, judged by the last one, fits in --seconds; an untraced run makes at
least MIN_PASSES passes, a traced one at least one pair.  --trace 0
reports the end-to-end metrics, --trace 1 alternates untraced and traced
passes and reports the per-layer metrics.

Times are seconds at the reference host speed (hostspeed.py): each span
is scaled by how fast a fixed calibration chunk ran during it, so a slow
period of the shared host slows the chunk too and drops out.  Each
record's time is its median over the passes, and wall_s is the sum of
those medians.  setup_s is the median set-up of the passes, topped up to
SETUP_MIN samples with set-up-only processes.  The raw times, with only
the calibration chunks taken out, are kept in perfbench/out/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Exit 0 when correct, 1 when a check failed, 2 when the
benchmark could not run (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from common import WORKLOADS, median, percentile, tail_level

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference"
OUT = HERE / "out"

#: the fewest set-up samples an untraced run reports; set-up-only
#: processes make up what the passes do not give
SETUP_MIN = 11
#: the fewest passes an untraced run makes, however long they take: a
#: record's median over three passes drops one pass caught in a slow
#: period of the host, which the calibration follows only in part
MIN_PASSES = 3
#: every run, set-up samples included, ends within this many seconds
RUN_LIMIT_S = 170.0
#: keep numpy and any BLAS single-threaded in the workers
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "record_s_p50": "s",
                    "record_s_tail": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "pinning": "none (shared host; the benchmark changes no system setting)"}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.env = dict(os.environ, **{k: "1" for k in THREAD_ENV})

    def worker(self, *extra: str) -> dict:
        left = RUN_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 1.0:
            raise BenchError(f"out of time: the run limit is {RUN_LIMIT_S:.0f} s")
        cmd = [sys.executable, str(WORKER), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker timed out after {left:.0f} s") from err
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_only(self) -> dict:
        return self.worker("--setup-only")

    def passes(self, seconds: float, traced: bool) -> tuple[list[dict], list[dict], list[dict]]:
        """Untraced passes, or alternating untraced/traced pairs, while the
        next one, and the set-up-only processes still owed, fit in
        `seconds`, and at least MIN_PASSES untraced passes.  Returns the
        passes and the set-up samples (each with setup_s and setup_raw_s)."""
        plain, traced_out = [], []
        base = ["--workload", self.workload, "--seed", str(self.seed)]
        t = time.perf_counter()
        self.setup_only()  # warm-up: writes the bytecode caches
        setup_cost = time.perf_counter() - t
        t0 = time.perf_counter()
        while True:
            t = time.perf_counter()
            plain.append(self.worker(*base))
            if traced:
                OUT.mkdir(exist_ok=True)
                spans = OUT / f"{self.workload}-seed{self.seed}-pass{len(traced_out)}.spans.csv.gz"
                traced_out.append(self.worker(*base, "--traced", "--spans", str(spans)))
            last = time.perf_counter() - t
            owed = 0 if traced else max(0, SETUP_MIN - len(plain) - 1) * setup_cost
            if traced or len(plain) >= MIN_PASSES:
                if time.perf_counter() - t0 + last + owed > seconds:
                    break
        setup = list(plain)
        if not traced:
            setup += [self.setup_only() for _ in range(SETUP_MIN - len(setup))]
        return plain, traced_out, setup


def load_reference(workload: str) -> dict:
    """{variant: [verdict class of each record under that input variant]}"""
    path = REFERENCE / f"{workload}.json"
    try:
        with open(path) as fh:
            return json.load(fh)["classes"]
    except OSError as err:
        raise BenchError(f"no verdict reference: {err}") from err


def check(passes: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every record of every pass."""
    attempted = failed = 0
    notes = []
    for p in passes:
        expected = []
        for i, v in enumerate(p["variants"]):
            classes = reference.get(str(v), [])
            if len(classes) != len(p["classes"]):
                raise BenchError(f"{len(p['classes'])} records against a reference of "
                                 f"{len(classes)} for variant {v}")
            expected.append(classes[i])
        for cls, bad, ref in zip(p["classes"], p["failed"], expected):
            attempted += 1
            if bad or cls != ref:
                failed += 1
                notes.append(f"record {cls[0]}: got {cls}, reference {ref}")
    return attempted, failed, notes


def per_record(passes: list[dict]) -> list[float]:
    """Each record's median time over the passes."""
    return [median(ts) for ts in zip(*(p["record_s"] for p in passes))]


def end_to_end(plain: list[dict], setup: list[dict]) -> tuple[dict, dict]:
    records = per_record(plain)
    level = tail_level(len(records))
    values = {
        "setup_s": median([p["setup_s"] for p in setup]),
        "wall_s": sum(records),
        "record_s_p50": percentile(records, 50),
        "record_s_tail": percentile(records, level),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }
    scaled = "s at reference host speed"
    samples = {"setup_s": f"{scaled}, median of {len(setup)} processes",
               "wall_s": f"{scaled}, sum of {len(records)} records, "
                         f"each its median of {len(plain)} passes",
               "record_s_p50": f"{scaled}, {len(records)} records, "
                               f"each its median of {len(plain)} passes",
               "record_s_tail": f"{scaled}, p{level} of {len(records)} records, each its median",
               "peak_rss_mb": f"median of {len(plain)} passes"}
    return values, samples


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Layer metrics of the traced passes, plus the determinism checks."""
    problems = []
    first = traced[0]["layers"]
    counts = {k for k, (_, unit) in first.items() if unit == "count"}
    out = {}
    for key, (value, unit) in first.items():
        if key in counts:
            seen = {t["layers"][key][0] for t in traced}
            if len(seen) > 1:
                problems.append(f"{key} differs between traced passes: {sorted(seen)}")
            out[key] = (value, unit)
        else:
            out[key] = (median([t["layers"][key][0] for t in traced]), unit)
    if len({p["digest"] for p in plain + traced}) != 1:
        problems.append("traced and untraced passes produced different outputs")
    if len({p["compile_misses"] for p in plain + traced}) != 1:
        problems.append("expr.compile_misses differs between traced and untraced passes")
    # wall_s as end_to_end reports it, traced over untraced
    out["trace.overhead_frac"] = (sum(per_record(traced)) / sum(per_record(plain)) - 1.0, "frac")
    return out, problems


def run(args) -> int:
    if not (ROOT / "src" / "affsurf" / "__init__.py").is_file():
        raise BenchError(f"no affsurf sources under {ROOT / 'src'}")
    reference = load_reference(args.workload)
    info = machine()
    runner = Runner(args.workload, args.seed)
    plain, traced, setup = runner.passes(args.seconds, bool(args.trace))
    info["numpy"] = plain[0]["numpy"]

    attempted, failed, notes = check(plain + traced, reference)
    if args.trace:
        metrics, problems = per_layer(plain, traced)
        samples = {}
    else:
        values, samples = end_to_end(plain, setup)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        problems = []
    correct = failed == 0 and not problems

    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']} pinning={info['pinning']}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain[0]['labels'])} records, "
          f"{len(plain)} untraced and {len(traced)} traced passes, one fresh process each")
    for key, (value, unit) in metrics.items():
        extra = f"  ({samples[key]})" if key in samples else ""
        print(f"  {key:34s} {value:14.6g} {unit}{extra}")
    print(f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted} records)")
    for line in notes[:20] + problems:
        print(f"  FAIL {line}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info, "correct": correct,
              "attempted": attempted, "failed": failed, "failures": notes + problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "samples": samples, "setup_samples": [p["setup_s"] for p in setup],
              "setup_raw_samples": [p["setup_raw_s"] for p in setup],
              "passes": [{k: p[k] for k in ("wall_s", "peak_rss_mb", "digest")} for p in plain],
              "labels": plain[0]["labels"],
              "record_s": [p["record_s"] for p in plain],
              "record_raw_s": [p["record_raw_s"] for p in plain]}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="affsurf benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
