"""Golden counters for sorts of inputs that hold the reserved ``SENTINEL``.

Such inputs take the sentinel-aware path: sentinel variants fall back to
their bounds-checked siblings, and comparisons against ``SENTINEL`` stay
uncounted.  ``golden_sentinel_counts.json`` holds the full ``SortStats``
and a digest of the merge trace of every case, recorded when each
comparison was still a counted ``CountingOrder.le`` call.  The derived
comparison counts must reproduce them exactly.

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

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_sentinel_counts.json")


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


def cases():
    for name, (values, min_run_len) in _base_inputs().items():
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


def record():
    golden = {}
    for name, values, min_run_len, keyed, variant, strict in cases():
        _, stats, digest = measure(values, min_run_len, keyed, variant, strict)
        golden[case_id(name, keyed, variant, strict)] = dict(
            stats, merge_trace=digest)
    return golden


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


CASES = list(cases())
CASE_IDS = [case_id(c[0], c[3], c[4], c[5]) for c in CASES]


@pytest.mark.parametrize(
    "name,values,min_run_len,keyed,variant,strict", CASES, ids=CASE_IDS)
def test_sentinel_input_counts_match_golden(
        golden, name, values, min_run_len, keyed, variant, strict):
    out, stats, digest = measure(values, min_run_len, keyed, variant, strict)
    assert out == expected_output(values, keyed)
    assert dict(stats, merge_trace=digest) == golden[
        case_id(name, keyed, variant, strict)]


def test_golden_file_covers_every_case(golden):
    assert set(golden) == set(CASE_IDS)


if __name__ == "__main__":
    entries = sorted(record().items())
    with open(GOLDEN, "w") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
            for k, v in entries))
