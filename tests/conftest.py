"""Shared test helpers: record elements, reference merging, profile
enumeration."""

from __future__ import annotations

from operator import itemgetter

from powersort.statskit import CountingOrder, SortStats

KEY = itemgetter(0)


def fresh_instruments(key=None):
    return CountingOrder(key), SortStats()


class SpyKey:
    """``KEY`` that counts its calls.  A counted comparison calls the key
    twice, so ``2 * order.comparisons`` must equal ``calls``."""

    def __init__(self):
        self.calls = 0

    def __call__(self, record):
        self.calls += 1
        return record[0]


class KeyFailure(Exception):
    """Raised by ``FailingKey``."""


class FailingKey:
    """``KEY`` that raises ``KeyFailure`` on its ``fail_at``-th call."""

    def __init__(self, fail_at):
        self.calls = 0
        self.fail_at = fail_at

    def __call__(self, record):
        self.calls += 1
        if self.calls == self.fail_at:
            raise KeyFailure(self.fail_at)
        return record[0]


def make_records(keys):
    """(key, unique id) records; the id doubles as the stability witness."""
    return [(k, i) for i, k in enumerate(keys)]


def reference_stable_sort(records):
    """Ground truth: Python's sorted() by key is stable."""
    return sorted(records, key=KEY)


def is_weakly_increasing(seq, key=None):
    if key is None:
        return all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))
    return all(key(seq[i]) <= key(seq[i + 1]) for i in range(len(seq) - 1))


def assert_stable_sorted(out, inp, key=KEY):
    """out must be the stable sort of inp (records compared by key).

    Python's sorted() is stable, so equality against it pins sortedness,
    the multiset, and the tie order all at once.
    """
    assert out == sorted(inp, key=key), "not the stable ordering"


def compositions(total, parts):
    """All ordered compositions of `total` into exactly `parts` positive
    parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def compositions_upto(max_total, max_parts, min_total=1):
    for total in range(min_total, max_total + 1):
        for parts in range(1, min(max_parts, total) + 1):
            yield from compositions(total, parts)


def realizable_profiles_upto(max_total, max_parts):
    """Compositions whose non-final parts are >= 2: exactly the profiles an
    int array can realize as natural runs (a non-final singleton run is
    absorbed by the following descent)."""
    for profile in compositions_upto(max_total, max_parts):
        if all(part >= 2 for part in profile[:-1]):
            yield profile
