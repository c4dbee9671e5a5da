"""Golden counters for sorts of fixed inputs, with and without the
reserved ``SENTINEL``.

Inputs that hold ``SENTINEL`` take the sentinel-aware path: sentinel
variants fall back to their bounds-checked siblings, and comparisons
against ``SENTINEL`` stay uncounted.  ``golden_sentinel_counts.json`` holds
the full ``SortStats`` and a digest of the merge trace of every such case.
``golden_sentinel_free_counts.json`` holds the same for the same inputs
with their ``SENTINEL`` slots dropped; those sorts run the sentinel kernels
themselves.  Both were recorded when each comparison was still a counted
``CountingOrder.le`` call, and re-recorded when run extension moved from
linear to binary insertion, which changed ``comparisons`` only (the
``chunks`` cases; ``ties`` sorts with ``min_run_len`` 1).  Every count must
reproduce exactly.

To re-baseline on purpose (a change that alters the counts and says so)::

    PYTHONPATH=src python tests/test_golden_counts.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from operator import itemgetter

import pytest

from powersort.policy import VARIANTS, SortConfig, stable_sort_with
from powersort.statskit import SENTINEL

HERE = os.path.dirname(os.path.abspath(__file__))
#: Golden file per input set: with ``SENTINEL`` (True) and without (False).
GOLDEN = {
    True: os.path.join(HERE, "golden_sentinel_counts.json"),
    False: os.path.join(HERE, "golden_sentinel_free_counts.json"),
}


def _base_inputs():
    """``{name: (values, min_run_len)}``: sorted and reversed chunks with
    ties, ``None`` marking where a ``SENTINEL`` goes."""
    rng = random.Random(2209)
    values = []
    while len(values) < 160:
        chunk = sorted(rng.randint(0, 30) for _ in range(rng.randint(1, 30)))
        if rng.random() < 0.3:
            chunk.reverse()
        values.extend(chunk)
    values = values[:160]
    for at in (0, 41, 42, 97, 159):
        values[at] = None
    ties = [rng.randint(0, 3) for _ in range(60)]
    for at in (5, 30, 31):
        ties[at] = None
    return {"chunks": (values, 8), "ties": (ties, 1)}


def cases(with_sentinel):
    for name, (values, min_run_len) in _base_inputs().items():
        if not with_sentinel:
            values = [v for v in values if v is not None]
        for keyed in (False, True):
            for variant in sorted(VARIANTS):
                for strict in (False, True):
                    yield (name, values, min_run_len, keyed, variant, strict)


def case_id(name, keyed, variant, strict):
    return "%s/%s/%s/%s" % (name, "keyed" if keyed else "plain", variant,
                            "strict" if strict else "normalized")


def measure(values, min_run_len, keyed, variant, strict):
    """Sort one case; returns (output, stats dict, merge-trace digest)."""
    if keyed:
        lst = [SENTINEL if v is None else (v, i) for i, v in enumerate(values)]
        key = itemgetter(0)
    else:
        lst = [SENTINEL if v is None else v for v in values]
        key = None
    trace = []
    stats = stable_sort_with(lst, SortConfig(
        k=VARIANTS[variant].k, variant=variant, min_run_len=min_run_len,
        key=key, strict_merge_down=strict, on_merge=trace.append))
    digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()[:16]
    return lst, dataclasses.asdict(stats), digest


def expected_output(values, keyed):
    """Elements in key order with every ``SENTINEL`` at the end."""
    if keyed:
        records = [(v, i) for i, v in enumerate(values) if v is not None]
        ordered = sorted(records, key=itemgetter(0))
    else:
        ordered = sorted(v for v in values if v is not None)
    return ordered + [SENTINEL] * values.count(None)


def record(with_sentinel):
    golden = {}
    for name, values, min_run_len, keyed, variant, strict in cases(
            with_sentinel):
        _, stats, digest = measure(values, min_run_len, keyed, variant, strict)
        golden[case_id(name, keyed, variant, strict)] = dict(
            stats, merge_trace=digest)
    return golden


@pytest.fixture(scope="module")
def golden():
    golden = {}
    for with_sentinel, path in GOLDEN.items():
        with open(path) as fh:
            golden[with_sentinel] = json.load(fh)
    return golden


CASES = {with_sentinel: list(cases(with_sentinel))
         for with_sentinel in (True, False)}
CASE_IDS = {with_sentinel: [case_id(c[0], c[3], c[4], c[5]) for c in found]
            for with_sentinel, found in CASES.items()}


def check_case(golden, name, values, min_run_len, keyed, variant, strict):
    out, stats, digest = measure(values, min_run_len, keyed, variant, strict)
    assert out == expected_output(values, keyed)
    assert dict(stats, merge_trace=digest) == golden[
        case_id(name, keyed, variant, strict)]


@pytest.mark.parametrize("name,values,min_run_len,keyed,variant,strict",
                         CASES[True], ids=CASE_IDS[True])
def test_sentinel_input_counts_match_golden(
        golden, name, values, min_run_len, keyed, variant, strict):
    check_case(golden[True], name, values, min_run_len, keyed, variant,
               strict)


@pytest.mark.parametrize("name,values,min_run_len,keyed,variant,strict",
                         CASES[False], ids=CASE_IDS[False])
def test_sentinel_free_input_counts_match_golden(
        golden, name, values, min_run_len, keyed, variant, strict):
    check_case(golden[False], name, values, min_run_len, keyed, variant,
               strict)


def test_golden_file_covers_every_case(golden):
    for with_sentinel, ids in CASE_IDS.items():
        assert set(golden[with_sentinel]) == set(ids)


if __name__ == "__main__":
    for with_sentinel, path in GOLDEN.items():
        entries = sorted(record(with_sentinel).items())
        with open(path, "w") as fh:
            fh.write("{\n%s\n}\n" % ",\n".join(
                "%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                for k, v in entries))
