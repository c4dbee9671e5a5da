"""Golden counters for sorts of fixed inputs, with and without a greatest
value, ``Top``, in some slots.

``golden_top_counts.json`` holds the full ``SortStats`` and a digest of the
merge trace of every case whose input holds ``Top``; the sort reserves no
value, so every variant runs its own kernels on it and counts each
comparison with ``Top``.  ``golden_sentinel_free_counts.json`` holds the
same for the same inputs with those slots dropped.  (The test names keep
the word "sentinel": those slots once held the sort's reserved
``SENTINEL``.)  Both files were recorded when each comparison was still a
counted ``CountingOrder.le`` call, and re-recorded when run extension moved
from linear to binary insertion, which changed ``comparisons`` only (the
``chunks`` cases; ``ties`` sorts with ``min_run_len`` 1).  The ``default``
cases sort at ``policy.MIN_RUN_LEN``, so they pin the default: a new value
changes their counts and needs a re-record.  Every count must reproduce
exactly.

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

from powersort.policy import (
    MIN_RUN_LEN,
    VARIANTS,
    SortConfig,
    stable_sort_with,
)

from conftest import Top

HERE = os.path.dirname(os.path.abspath(__file__))
#: Golden file per input set: with ``Top`` (True) and without (False).
GOLDEN = {
    True: os.path.join(HERE, "golden_top_counts.json"),
    False: os.path.join(HERE, "golden_sentinel_free_counts.json"),
}


def _base_inputs():
    """``{name: (values, min_run_len)}``: sorted and reversed chunks with
    ties, a few values with many ties, and a shuffled multiset sorted at
    the default ``MIN_RUN_LEN``; ``None`` marks where a ``Top`` goes."""
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
    shuffled = [i % 24 for i in range(330)]
    rng.shuffle(shuffled)
    for at in (0, 63, 64, 200, 329):
        shuffled[at] = None
    return {"chunks": (values, 8), "ties": (ties, 1),
            "default": (shuffled, MIN_RUN_LEN)}


def cases(with_top):
    for name, (values, min_run_len) in _base_inputs().items():
        if not with_top:
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
        lst = [(Top if v is None else v, i) for i, v in enumerate(values)]
        key = itemgetter(0)
    else:
        lst = [Top if v is None else v for v in values]
        key = None
    trace = []
    stats = stable_sort_with(lst, SortConfig(
        k=VARIANTS[variant].k, variant=variant, min_run_len=min_run_len,
        key=key, strict_merge_down=strict, on_merge=trace.append))
    digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()[:16]
    return lst, dataclasses.asdict(stats), digest


def expected_output(values, keyed):
    """Elements in key order with every ``Top`` at the end, in input order."""
    if keyed:
        records = [(v, i) for i, v in enumerate(values) if v is not None]
        tops = [(Top, i) for i, v in enumerate(values) if v is None]
        return sorted(records, key=itemgetter(0)) + tops
    ordered = sorted(v for v in values if v is not None)
    return ordered + [Top] * values.count(None)


def record(with_top):
    golden = {}
    for name, values, min_run_len, keyed, variant, strict in cases(with_top):
        _, stats, digest = measure(values, min_run_len, keyed, variant, strict)
        golden[case_id(name, keyed, variant, strict)] = dict(
            stats, merge_trace=digest)
    return golden


@pytest.fixture(scope="module")
def golden():
    golden = {}
    for with_top, path in GOLDEN.items():
        with open(path) as fh:
            golden[with_top] = json.load(fh)
    return golden


CASES = {with_top: list(cases(with_top)) for with_top in (True, False)}
CASE_IDS = {with_top: [case_id(c[0], c[3], c[4], c[5]) for c in found]
            for with_top, found in CASES.items()}


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
    for with_top, ids in CASE_IDS.items():
        assert set(golden[with_top]) == set(ids)


if __name__ == "__main__":
    for with_top, path in GOLDEN.items():
        entries = sorted(record(with_top).items())
        with open(path, "w") as fh:
            fh.write("{\n%s\n}\n" % ",\n".join(
                "%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                for k, v in entries))
