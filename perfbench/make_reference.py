"""Write the verdict-class reference of a workload.

    python3 perfbench/make_reference.py --workload killing-probe

The seed picks one input variant per probe record (a default point on
killing-probe, an extra direction on geodesic-probe).  The reference holds
every record's verdict class (model, complete, verdict, sorted witness
status kinds, unbounded runs) under every variant, so it covers every seed.
atlas-verify has one variant: every record passes.  A record that fails its
own check is never written into a reference: the script stops.

Regenerate only when a workload's inputs change, never to make a changed
program pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import VARIANTS, WORKLOADS
from run import REFERENCE, BenchError, Runner


def classes(workload: str, variant: int) -> list:
    out = Runner(workload, 0).worker("--workload", workload, "--seed", "0",
                                     "--variant", str(variant))
    bad = [c for c, f in zip(out["classes"], out["failed"]) if f]
    if bad:
        raise BenchError(f"{workload} variant {variant}: records fail their own check: {bad}")
    print(f"{workload} variant {variant}: wall {out['wall_s']:.2f} s", file=sys.stderr)
    return out["classes"]


def dumps(ref: dict) -> str:
    """JSON with one record's verdict class per line."""
    def block(rows, indent, close):
        lines = ",\n".join(" " * indent + json.dumps(r) for r in rows)
        return "[\n" + lines + "\n" + " " * close + "]"
    head = {k: v for k, v in ref.items() if k != "classes"}
    text = "{\n" + "".join(f" {json.dumps(k)}: {json.dumps(v)},\n" for k, v in head.items())
    variants = [f'  {json.dumps(k)}: ' + block(v, 4, 2) for k, v in ref["classes"].items()]
    text += ' "classes": {\n' + ",\n".join(variants) + "\n }"
    return text + "\n}\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    args = ap.parse_args(argv)
    try:
        ref = {"workload": args.workload,
               "classes": {str(v): classes(args.workload, v)
                           for v in range(VARIANTS[args.workload])}}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / f"{args.workload}.json", "w") as fh:
        fh.write(dumps(ref))
    return 0


if __name__ == "__main__":
    sys.exit(main())
