"""Shared test helpers: record elements, reference merging, profile
enumeration."""

from __future__ import annotations

from operator import itemgetter

from powersort.statskit import SortStats

KEY = itemgetter(0)


def fresh_instruments():
    return SortStats()


class SpyKey:
    """``KEY`` that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, record):
        self.calls += 1
        return record[0]


class LtSpyKey(SpyKey):
    """``SpyKey`` whose keys count their own ``<`` calls in ``lt_calls``: the
    comparisons that ran, whatever the number of key calls.  The keys define
    only ``<``, so any other comparison raises ``TypeError``."""

    def __init__(self):
        super().__init__()
        self.lt_calls = 0

    def __call__(self, record):
        return _SpiedKey(super().__call__(record), self)


class _SpiedKey:
    __slots__ = ("key", "spy")

    def __init__(self, key, spy):
        self.key = key
        self.spy = spy

    def __lt__(self, other):
        self.spy.lt_calls += 1
        return self.key < other.key


class LtTally:
    """Counts the ``<`` calls of the ``Counted`` elements it makes
    (``wrap``).  With ``truthy``, ``<`` answers with a non-empty or an empty
    string instead of a bool.  Once ``at`` and ``action`` are set, the
    ``at``-th ``<`` call runs ``action()`` first."""

    def __init__(self, truthy=False):
        self.lt_calls = 0
        self.truthy = truthy
        self.at = 0
        self.action = None

    def wrap(self, values):
        return [Counted(v, self) for v in values]


class Counted:
    """An element ordered by ``value`` that counts its own comparisons in
    its ``LtTally``, so a test sees the ``<`` calls an unkeyed sort made,
    whatever the sort counted.  It defines only ``<``."""

    __slots__ = ("value", "tally")

    def __init__(self, value, tally):
        self.value = value
        self.tally = tally

    def __lt__(self, other):
        tally = self.tally
        tally.lt_calls += 1
        if tally.lt_calls == tally.at:
            tally.action()
        if self.value < other.value:
            return "yes" if tally.truthy else True
        return "" if tally.truthy else False


class _Top:
    """A value that sorts after every other and ties only with itself.

    Other values' ``<`` with it declines (``NotImplemented``), so it answers
    through its reflected ``__gt__``.
    """

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return other is not self

    def __repr__(self):
        return "Top"


#: A greatest value: the kind of value a sort that reserved one as its own
#: sentinel would have to refuse or work around.
Top = _Top()


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
