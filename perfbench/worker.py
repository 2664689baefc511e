"""One pass of a workload in a fresh process, printed as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--traced] [--spans PATH]
    python3 perfbench/worker.py --workload NAME --variant K   (reference only)
    python3 perfbench/worker.py --setup-only

Set-up (importing affsurf and building catalog.all_records()) is timed
first, before anything else touches affsurf.  The pass then runs every job
of the workload once, timing each record.  Set-up and records are timed
against the host-speed calibration (hostspeed.py), and both the raw and
the scaled times are reported.  With --traced the tracer's wrappers
are installed before the jobs are built; its spans are timed on a clock
that leaves out the calibration chunks.  Untraced passes install no
wrappers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced pass's spans here")
    ap.add_argument("--variant", type=int, default=None,
                    help="force this input variant on every record")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import hostspeed

    clock = hostspeed.Sampler()
    clock.start()
    mark = clock.begin()
    from affsurf import catalog, cli  # noqa: F401  (cli imports every module, as a CLI call does)
    t1 = time.perf_counter()
    records = catalog.all_records()
    instantiate = time.perf_counter() - t1
    setup_raw, setup = clock.end(mark)
    out = {"setup_s": setup, "setup_raw_s": setup_raw, "instantiate_s": instantiate,
           "records": len(records)}
    if args.setup_only:
        clock.stop()
        print(json.dumps(out))
        return 0

    import numpy as np

    import tracer
    import workloads
    from affsurf import expr

    cache_info = expr.compile_scalar.cache_info
    tr = None
    if args.traced:
        tr = tracer.Tracer(clock=clock.program_time)
        tr.install()
    jobs = workloads.build_jobs(args.workload, args.seed, records, args.variant)
    misses0 = cache_info().misses

    classes, failed, raw, scaled, payloads = [], [], [], [], []
    for i, (label, _, job) in enumerate(jobs):
        if tr is not None:
            tr.record = i
        mark = clock.begin()
        try:
            cls, bad, payload = job()
        except Exception as err:  # noqa: BLE001 - a raising record is a failed record
            cls, bad, payload = [label, f"error: {type(err).__name__}: {err}"], True, None
            print(traceback.format_exc(), file=sys.stderr)
        r, s = clock.end(mark)
        raw.append(r)
        scaled.append(s)
        classes.append(cls)
        failed.append(bool(bad))
        payloads.append(payload)
    clock.stop()

    out.update({
        "wall_s": sum(scaled),
        "record_s": scaled,
        "record_raw_s": raw,
        "labels": [label for label, _, _ in jobs],
        "variants": [v for _, v, _ in jobs],
        "classes": classes,
        "failed": failed,
        "digest": workloads.digest(payloads),
        "compile_misses": cache_info().misses - misses0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    })
    if tr is not None:
        out["layers"] = tracer.layer_metrics(tr, instantiate_s=out["instantiate_s"],
                                             records=len(records),
                                             compile_misses=out["compile_misses"])
        if args.spans:
            tr.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
