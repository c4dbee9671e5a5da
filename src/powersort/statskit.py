"""Instrumentation shared by the sorting kernels and the benchmark harness.

Nothing in here is global state.  A ``CountingOrder`` holds the element
order of one sort: its ``key`` and the ``comparisons`` tally.  Run
detection, insertion sort and the merge kernels key each element once when
they load it (``k = x if key is None else key(x)``), keep that key beside
the element, and add the number of comparisons they executed to
``comparisons`` once per call, derived from their loop structure (for
insertion sort, from the positions ``bisect_right`` returns).  The merges
decide with an inline ``<=`` on keys, and so does detection, except that
an unkeyed run longer than 32 elements is finished by ``operator.le`` in C
(``runs._scan_tail``); insertion sort uses ``bisect_right``, which compares
with ``<``.  A key type needs both, as ``list.sort``'s needs ``<``.  The
counted method ``le`` is the same order one comparison at a time, for
callers outside the sort.  A ``SortStats`` record accumulates every other
counter and belongs to exactly one sort call.

An input that holds ``SENTINEL`` itself is sorted under
``CountingOrder.admit_sentinel``, which wraps the key: ``SENTINEL`` maps to
a greatest key of that order, whose ``<=`` and ``<`` tally the comparison
in ``sentinel_comparisons``, and every other element to a thin wrapper around
its real key, so the user's key type only ever meets its own kind.

Counter semantics:

* ``comparisons`` counts comparisons between two input elements.  A
  comparison in which one side is the reserved ``SENTINEL`` value resolves
  structurally (the sentinel is a greatest element) and is not counted; it
  is bookkeeping of the sentinel technique, not an element comparison.
* ``merge_cost`` is the total output size of all merges executed.
* ``buffer_cost`` counts input elements copied into the merge buffer.
  Reserved slots written next to the buffered runs are not included.
* ``moves`` counts element writes: buffer copies, merge output, insertion
  shifts and run reversals.
* ``scan_reads`` / ``scan_writes`` model streaming memory traffic of the
  merge kernels (one read and one write per element transferred), plus one
  scan over the input for run detection (n reads) and the buffer
  initialization (n writes), both charged by the sort driver.  Small
  cache-resident work (insertion sort, run reversal) is deliberately
  excluded from this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class _PlusInfinity:
    """Reserved greatest element used by the sentinel-based merge kernels."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SENTINEL"


#: Reserved +infinity value.  ``le(x, SENTINEL)`` is true for every x
#: (including the sentinel itself) and ``le(SENTINEL, x)`` is false for every
#: ordinary x, so a sentinel placed after a buffered run loses every
#: comparison once the run is exhausted.
SENTINEL = _PlusInfinity()


class _AdmittedKey:
    """An ordinary element's key while ``SENTINEL`` is admitted.

    It compares with another such key by the keys it wraps.  Against the
    greatest key it declines, so the greatest key answers through its
    reflected ``__ge__`` or ``__gt__``: the user's key type never meets a
    foreign object.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __le__(self, other):
        if other.__class__ is _AdmittedKey:
            return self.key <= other.key
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is _AdmittedKey:
            return self.key < other.key
        return NotImplemented


class _GreatestKey:
    """The key of an admitted ``SENTINEL``: after every other key, at or
    before only itself.  Each comparison with it tallies itself in its
    order's ``sentinel_comparisons``."""

    __slots__ = ("order",)

    def __init__(self, order):
        self.order = order

    def __le__(self, other):
        self.order.sentinel_comparisons += 1
        return other is self

    def __ge__(self, other):
        self.order.sentinel_comparisons += 1
        return True

    def __lt__(self, other):
        self.order.sentinel_comparisons += 1
        return False

    def __gt__(self, other):
        self.order.sentinel_comparisons += 1
        return other is not self


class CountingOrder:
    """The element order of one sort: "a sorts at or before b".

    ``key`` extracts the sort key from an element (records are compared by
    key only); ``None`` compares the elements themselves.  The sort's
    layers key each element once per load and compare keys with ``<=``
    (detection and merges) or ``<`` (insertion sort); they add the
    comparisons they executed to ``comparisons`` themselves.
    ``sentinel_comparisons`` is the share of those that met an admitted
    ``SENTINEL`` (see ``admit_sentinel``).  ``le(a, b)`` is the counted
    form: every element comparison bumps ``comparisons``, and comparisons
    against ``SENTINEL`` short-circuit uncounted.
    """

    __slots__ = ("key", "comparisons", "sentinel_comparisons")

    def __init__(self, key=None):
        self.key = key
        self.comparisons = 0
        self.sentinel_comparisons = 0

    def le(self, a, b):
        if b is SENTINEL:
            return True
        if a is SENTINEL:
            return False
        self.comparisons += 1
        key = self.key
        if key is None:
            return a <= b
        return key(a) <= key(b)

    def admit_sentinel(self):
        """Let ``SENTINEL`` be an input element: wrap ``key``.

        The wrapped key maps ``SENTINEL``, without a call to the user's key,
        to a greatest key of this order, and every other element to a thin
        wrapper around its real key.  A comparison with the greatest key is
        not an element comparison: the caller's count in ``comparisons``
        includes it, and the greatest key tallies it in
        ``sentinel_comparisons``, which the sort subtracts where it reports
        its element comparisons.  The greatest key is then the only writer
        of that slot, and the caller the only writer of ``comparisons``.
        """
        key = self.key
        greatest = _GreatestKey(self)

        def admitted(x):
            if x is SENTINEL:
                return greatest
            return _AdmittedKey(x if key is None else key(x))

        self.key = admitted


@dataclass(slots=True)
class SortStats:
    """Counters for one sort call (or one standalone kernel invocation)."""

    comparisons: int = 0
    merge_cost: int = 0
    buffer_cost: int = 0
    moves: int = 0
    max_stack_height: int = 0
    runs_detected: int = 0
    merges2: int = 0
    merges3: int = 0
    merges4: int = 0
    scan_reads: int = 0
    scan_writes: int = 0
    #: Lengths of the runs the sort actually merged (after extension to the
    #: minimum run length), left to right.
    run_lengths: list[int] = field(default_factory=list)
    #: Lengths of the natural runs as detected, before extension.
    natural_run_lengths: list[int] = field(default_factory=list)

    @property
    def merges_total(self) -> int:
        return self.merges2 + self.merges3 + self.merges4


def scanned_elements_estimate(stats: SortStats, n: int) -> int:
    """Analytic count of streamed memory accesses for a whole sort.

    Every merge of output size m streams 2m reads and 2m writes; run
    detection reads the input once and the buffer is written once, adding
    2n.  Total: ``4 * merge_cost + 2 * n``.
    """
    return 4 * stats.merge_cost + 2 * n


def normalized_merge_cost(value: float, n: int, min_run_len: int) -> float:
    """``value / (n * lg(n / min_run_len))`` -- the scale on which merge
    costs of different input sizes are comparable."""
    if n <= min_run_len:
        raise ValueError("normalization needs n > min_run_len")
    return value / (n * math.log2(n / min_run_len))


def normalized_time(milliseconds: float, n: int) -> float:
    """``ms * 1e6 / (n * lg n)`` -- running time per n lg n, in convenient
    magnitude for plotting."""
    if n < 2:
        raise ValueError("normalization needs n >= 2")
    return milliseconds * 1e6 / (n * math.log2(n))
