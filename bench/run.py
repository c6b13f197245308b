"""Seeded exact-synthesis benchmark for cycsynth.

Run from the repository root:

    python3 bench/run.py --workload descent-small-n --seed 1 --seconds 20 --trace 0

Workloads: descent-small-n, descent-large-n, ring (library calls) and
cli-batch (the cycsynth CLI as subprocesses).  Every output is checked
exactly outside the timed region.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics; with --trace 1 a traced run
reports per-layer metrics instead and writes its spans under .bench_out/.
The package is imported from src/ of the checkout this file sits in, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from measure import ROOT, SRC

OUT_DIR = os.path.join(ROOT, ".bench_out")
LIBRARY_WORKLOADS = ("descent-small-n", "descent-large-n", "ring")
WORKLOADS = LIBRARY_WORKLOADS + ("cli-batch",)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the timed loop runs (the first pass always completes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def environment() -> str:
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    return "env: python=%s machine=%s nproc=%d git=%s" % (
        platform.python_version(), platform.machine(), len(os.sched_getaffinity(0)), sha)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cycsynth", "__init__.py")):
        print("error: no cycsynth sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cycsynth
    if os.path.dirname(os.path.dirname(os.path.abspath(cycsynth.__file__))) != SRC:
        print("error: cycsynth was imported from %s, not %s" % (cycsynth.__file__, SRC),
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    print(environment())

    if args.workload in LIBRARY_WORKLOADS:
        import library
        if args.trace:
            attempted, failed, metrics = library.run_traced(
                args.workload, args.seed, args.quick, OUT_DIR)
        else:
            attempted, failed, metrics = library.run(
                args.workload, args.seed, args.seconds, args.quick)
    else:
        import clibatch
        if args.trace:
            attempted, failed, metrics = clibatch.run_traced(args.seed, args.quick, OUT_DIR)
        else:
            attempted, failed, metrics = clibatch.run(
                ROOT, args.seed, args.seconds, args.quick, OUT_DIR)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
