"""Seeded input generators.

``generate(GeneratorSpec(kind, n, expected_run_len, seed))`` builds a list
of n ints, the same list for the same spec.  The kinds are sorted and
reverse inputs, random permutations and random-runs inputs: runs of
geometric length (mean ``expected_run_len``, default sqrt n) of 32-bit
keys, with a strict descent forced at each run boundary so adjacent runs
cannot fuse.  Randomness comes from numpy's PCG64, seeded by
``SeedSequence(seed)``.

The benchmark (``perfbench/``) draws its workloads from these generators,
and the acceptance suite (``tests/test_acceptance.py``) its trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GENERATOR_KINDS = ("random-runs", "random-permutation", "sorted", "reverse")

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
