"""Instrumentation shared by the sorting kernels and the benchmark harness.

Nothing in here is global state.  A ``CountingOrder`` holds the element
order of one sort: ``compare``, a plain predicate that counts nothing, and
the ``comparisons`` tally.  Run detection, insertion sort and the merge
kernels call ``compare`` and add the number of comparisons they executed to
``comparisons`` once per call, derived from their loop structure.  The
counted method ``le`` is the same order one comparison at a time, for
callers outside the sort.  A ``SortStats`` record accumulates every other
counter and belongs to exactly one sort call.

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
import operator
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


class CountingOrder:
    """The element order of one sort: "a sorts at or before b".

    An optional ``key`` extracts the sort key from an element (records are
    compared by key only).  ``compare(a, b)`` is the uncounted predicate:
    ``operator.le`` without a key, ``key(a) <= key(b)`` with one.  Callers
    of ``compare`` add the comparisons they executed to ``comparisons``
    themselves; ``sentinel_comparisons`` is the share of those that met an
    admitted ``SENTINEL`` (see ``admit_sentinel``).  ``le(a, b)`` is the
    counted form: every element comparison bumps ``comparisons``, and
    comparisons against ``SENTINEL`` short-circuit uncounted.
    """

    __slots__ = ("key", "comparisons", "sentinel_comparisons", "compare")

    def __init__(self, key=None):
        self.key = key
        self.comparisons = 0
        self.sentinel_comparisons = 0
        if key is None:
            self.compare = operator.le
        else:

            def compare(a, b):
                return key(a) <= key(b)

            self.compare = compare

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
        """Let ``compare`` take ``SENTINEL`` as an input element.

        ``SENTINEL`` sorts after every other element and compares without a
        call to the key.  Such a comparison is not an element comparison:
        the caller's count in ``comparisons`` includes it, and the compare
        tallies it in ``sentinel_comparisons``, which the sort subtracts
        where it reports its element comparisons.  ``compare`` is then the
        only writer of that slot, and the caller the only writer of
        ``comparisons``.
        """
        plain = self.compare

        def compare(a, b):
            if b is SENTINEL:
                self.sentinel_comparisons += 1
                return True
            if a is SENTINEL:
                self.sentinel_comparisons += 1
                return False
            return plain(a, b)

        self.compare = compare


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
