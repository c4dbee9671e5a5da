"""Benchmark harness and CLI.

Example::

    powersort-bench --algo 2way,4way --input random-runs --n 1e6 \\
        --expected-run-len 1000 --trials 100 --seed 7 --csv out.csv

Per trial the harness generates a fresh input, runs the requested sort, and
only after the clock stops verifies the output: it must equal
``sorted(input, key=key)``, which pins sortedness, the multiset and, since
``sorted`` is stable, the order of equal keys.  One CSV row per
(algorithm, trial):

    algo,n,seed,trial,time_ns,comparisons,merge_cost,buffer_cost,moves,
    max_stack,runs,merges2,merges3,merges4,scanned_estimate,entropy_bits

Randomness: the generator is numpy's PCG64.  Trial t of base seed s draws
its own 64-bit seed from ``SeedSequence((s, t))``; that derived seed is what
the CSV's ``seed`` column records, so any row can be reproduced in
isolation, and all algorithms see identical inputs for equal trial indices.
Setting POWERSORT_THREADS > 1 runs trials in parallel worker processes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from . import oracle
from .policy import MIN_RUN_LEN, VARIANTS, SortConfig, stable_sort_with
from .statskit import SortStats, scanned_elements_estimate

GENERATOR_KINDS = ("random-runs", "random-permutation", "sorted", "reverse")
ALGORITHMS = (
    "2way",
    "2way-copy-smaller",
    "2way-nosentinel",
    "4way",
    "4way-nosentinel",
    "std-stable",
)
CSV_HEADER = (
    "algo,n,seed,trial,time_ns,comparisons,merge_cost,buffer_cost,moves,"
    "max_stack,runs,merges2,merges3,merges4,scanned_estimate,entropy_bits"
)

_KEY_RANGE = 2**31  # 32-bit keys


@dataclass(frozen=True)
class GeneratorSpec:
    """Seedable description of an input distribution.

    ``expected_run_len`` only applies to random-runs inputs.  With
    ``expected_run_len == 1`` every sampled run has length 1 and the forced
    boundary descents make the whole array one decreasing run; meaningful
    run-structured inputs need an expected length >= 2.
    """

    kind: str
    n: int
    expected_run_len: int | None = None
    seed: int = 0


def derive_seed(base_seed: int, trial: int) -> int:
    """64-bit per-trial seed; documented stream split ``(base, trial)``."""
    seq = np.random.SeedSequence((base_seed, trial))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def sample_run_lengths(rng, n, expected_run_len):
    """Run lengths L ~ Geometric(p = 1/expected_run_len), support {1, 2, ...},
    truncated so they sum to exactly n."""
    p = 1.0 / expected_run_len
    lengths = []
    total = 0
    batch = max(16, int(n / expected_run_len * 1.2) + 1)
    while total < n:
        for length in rng.geometric(p, size=batch):
            length = int(length)
            if total + length >= n:
                lengths.append(n - total)
                total = n
                break
            lengths.append(length)
            total += length
    return lengths


def generate(spec: GeneratorSpec):
    """Deterministically generate the input array described by ``spec``."""
    if spec.n < 1:
        raise ValueError("generator needs n >= 1")
    if spec.kind == "sorted":
        return list(range(spec.n))
    if spec.kind == "reverse":
        return list(range(spec.n - 1, -1, -1))
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if spec.kind == "random-permutation":
        return rng.permutation(spec.n).tolist()
    if spec.kind == "random-runs":
        expected = spec.expected_run_len
        if expected is None:
            expected = max(1, math.isqrt(spec.n))
        if expected < 1:
            raise ValueError("expected_run_len must be >= 1")
        lengths = sample_run_lengths(rng, spec.n, expected)
        keys = rng.integers(0, _KEY_RANGE, size=spec.n, dtype=np.int64)
        arr = np.empty(spec.n, dtype=np.int64)
        pos = 0
        prev_tail = None
        for length in lengths:
            segment = np.sort(keys[pos : pos + length])
            if prev_tail is not None and int(segment[0]) >= prev_tail:
                # Force a strict descent at the run boundary so adjacent
                # sampled runs cannot fuse into one detected run.
                segment = segment - (int(segment[0]) - prev_tail + 1)
            arr[pos : pos + length] = segment
            prev_tail = int(segment[-1])
            pos += length
        return arr.tolist()
    raise ValueError(
        "unknown generator kind %r (choose from %s)"
        % (spec.kind, ", ".join(GENERATOR_KINDS))
    )


@dataclass(frozen=True)
class TrialSpec:
    algo: str
    generator: GeneratorSpec
    trial: int
    min_run_len: int
    elem: str = "int"  # "int" or "record"


@dataclass(frozen=True)
class TrialResult:
    row: dict
    error: str | None


def _verify(arr, expected):
    """None if ``arr`` equals ``expected``, else what is wrong with it."""
    if arr == expected:
        return None
    if len(arr) != len(expected):
        return "output has %d elements, input %d" % (len(arr), len(expected))
    at = next(i for i, (a, b) in enumerate(zip(arr, expected)) if a != b)
    return "output differs from the stable sort of the input (position %d)" % at


def run_trial(ts: TrialSpec) -> TrialResult:
    """Generate, sort, time, verify; returns the CSV row and any error."""
    arr = generate(ts.generator)
    key = None
    if ts.elem == "record":
        # (key, original index): the payload doubles as a stability witness.
        arr = [(value, i) for i, value in enumerate(arr)]
        key = itemgetter(0)
    original = list(arr)
    if ts.algo == "std-stable":
        start = time.perf_counter_ns()
        arr = sorted(arr, key=key)
        elapsed = time.perf_counter_ns() - start
        stats = SortStats()
    else:
        config = SortConfig(
            k=VARIANTS[ts.algo].k,
            variant=ts.algo,
            min_run_len=ts.min_run_len,
            key=key,
        )
        start = time.perf_counter_ns()
        stats = stable_sort_with(arr, config)
        elapsed = time.perf_counter_ns() - start
    error = _verify(arr, sorted(original, key=key))
    entropy_bits = (
        oracle.entropy(stats.run_lengths) if stats.run_lengths else 0.0
    )
    row = {
        "algo": ts.algo,
        "n": ts.generator.n,
        "seed": ts.generator.seed,
        "trial": ts.trial,
        "time_ns": elapsed,
        "comparisons": stats.comparisons,
        "merge_cost": stats.merge_cost,
        "buffer_cost": stats.buffer_cost,
        "moves": stats.moves,
        "max_stack": stats.max_stack_height,
        "runs": stats.runs_detected,
        "merges2": stats.merges2,
        "merges3": stats.merges3,
        "merges4": stats.merges4,
        "scanned_estimate": scanned_elements_estimate(stats, ts.generator.n),
        "entropy_bits": entropy_bits,
    }
    return TrialResult(row, error)


def run_benchmark(
    algos,
    generator: GeneratorSpec,
    trials: int,
    min_run_len: int = MIN_RUN_LEN,
    elem: str = "int",
    workers: int | None = None,
):
    """Run the (algorithm x trial) matrix; returns (rows, errors).

    Rows are ordered by algorithm (as given) then trial index.  Each trial
    index maps to one derived seed shared by all algorithms, so counters can
    be compared pairwise across algorithms.
    """
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(
                "unknown algorithm %r (choose from %s)"
                % (algo, ", ".join(ALGORITHMS))
            )
    specs = [
        TrialSpec(
            algo=algo,
            generator=replace(
                generator, seed=derive_seed(generator.seed, trial)
            ),
            trial=trial,
            min_run_len=min_run_len,
            elem=elem,
        )
        for algo in algos
        for trial in range(trials)
    ]
    if workers is None:
        workers = int(os.environ.get("POWERSORT_THREADS", "1"))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, specs))
    else:
        results = [run_trial(ts) for ts in specs]
    rows = [res.row for res in results]
    errors = [
        "%s trial %d: %s" % (res.row["algo"], res.row["trial"], res.error)
        for res in results
        if res.error
    ]
    return rows, errors


def write_csv(rows, fh):
    fh.write(CSV_HEADER + "\n")
    columns = CSV_HEADER.split(",")
    for row in rows:
        fh.write(
            ",".join(
                ("%.12g" % row[c]) if c == "entropy_bits" else str(row[c])
                for c in columns
            )
            + "\n"
        )


def _parse_count(text):
    value = int(float(text))
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive count")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="powersort-bench",
        description="Benchmark the stable run-adaptive sorts.",
    )
    parser.add_argument(
        "--algo",
        required=True,
        help="comma-separated algorithm ids: %s" % ", ".join(ALGORITHMS),
    )
    parser.add_argument("--input", required=True, choices=GENERATOR_KINDS)
    parser.add_argument("--n", required=True, type=_parse_count,
                        help="input size (accepts 1e6 style)")
    parser.add_argument("--expected-run-len", type=_parse_count, default=None,
                        help="random-runs expected run length (default sqrt n)")
    parser.add_argument("--trials", required=True, type=_parse_count)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--min-run-len", type=_parse_count, default=24)
    parser.add_argument("--elem", choices=("int", "record"), default="int",
                        help="element type: plain ints or (key, index) records")
    parser.add_argument("--csv", default="-",
                        help="output path, '-' for stdout")
    args = parser.parse_args(argv)

    algos = [a for a in args.algo.split(",") if a]
    for algo in algos:
        if algo not in ALGORITHMS:
            parser.error("unknown algorithm %r" % algo)

    generator = GeneratorSpec(
        kind=args.input,
        n=args.n,
        expected_run_len=args.expected_run_len,
        seed=args.seed,
    )
    rows, errors = run_benchmark(
        algos, generator, args.trials, min_run_len=args.min_run_len,
        elem=args.elem,
    )
    if args.csv == "-":
        write_csv(rows, sys.stdout)
    else:
        with open(args.csv, "w") as fh:
            write_csv(rows, fh)
    for error in errors:
        print("verification failure: %s" % error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
