"""Benchmark of the powersort package, run from the root of a checkout.

    python3 perfbench/run.py --workload runs-sqrt-int --seed 1 --seconds 35 --trace 0

It imports the package from ``src/`` of the checkout it sits in and never
from anywhere else; without ``src/powersort`` it exits with code 2 and
prints no result.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` the per-layer metrics, and writes the
traced run's spans to ``perfbench/traces/<workload>-seed<seed>.json``.
The line before it, starting with ``detail``, holds the counts, merge-trace
digests and sample counts behind the metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACES = os.path.join(HERE, "traces")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="length of the timed phase")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--n", type=int, default=None,
                        help="override the workload's input size "
                             "(smoke tests only; results are not comparable)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.n is not None and args.n < 2:
        parser.error("--n must be at least 2")
    return args


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "powersort", "__init__.py")):
        print("perfbench: %s/powersort not found; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    args = parse_args(argv, sorted(bench.WORKLOADS))
    workload = bench.WORKLOADS[args.workload]
    if args.n is not None:
        workload = dataclasses.replace(workload, n=args.n)
    try:
        result = bench.run(workload, args.seed, args.seconds, args.trace)
    except bench.BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    metrics = result.per_layer() if args.trace else result.end_to_end()
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(
            TRACES, "%s-seed%d.json" % (workload.name, args.seed))
        with open(path, "w") as fh:
            json.dump(result.spans_document(), fh, separators=(",", ":"))
    for message in result.errors:
        print("perfbench: %s" % message, file=sys.stderr)
    correct = not result.errors
    print("detail " + json.dumps(result.detail(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
