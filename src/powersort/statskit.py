"""Instrumentation of a sort: its element order and its counters.

Nothing in here is global state.  A ``CountingOrder`` holds the element
order of one sort: its ``key`` and the ``comparisons`` tally.  With a
key, run detection, insertion sort and the merge kernels call it once on
each element when they load it and keep that key beside the element;
without one, they hold and compare the elements themselves (every merge
kernel chooses a loop without a key test for that case, once per merge).
Each adds the number of comparisons it executed to ``comparisons`` once
per call, derived from its loop structure (for insertion sort, from the
positions ``bisect_right`` returns).  The merges decide with an inline
``<=`` on what they hold, and so does detection, except that an unkeyed
run longer than 32 elements is finished by ``operator.le`` in C
(``runs._scan_tail``); insertion sort uses ``bisect_right``, which
compares with ``<``.  A key type needs both, as ``list.sort``'s needs
``<``.  The counted method ``le`` is the same order one comparison at a
time, for callers outside the sort.  A ``SortStats`` record accumulates
every other counter and belongs to exactly one sort call.

Counter semantics:

* ``comparisons`` counts comparisons between two input elements.  No
  input value is reserved: the sentinel kernels place their buffer's own
  sentinel (``merges.MergeBuffer``), which the caller cannot hold, and a
  decision it meets is made by ``is``, without a comparison, and is not
  counted.
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

from dataclasses import dataclass, field


class CountingOrder:
    """The element order of one sort: "a sorts at or before b".

    ``key`` extracts the sort key from an element (records are compared by
    key only); ``None`` compares the elements themselves.  The sort's
    layers key each element once per load and compare keys with ``<=``
    (detection and merges) or ``<`` (insertion sort); they add the
    comparisons they executed to ``comparisons`` themselves.  ``le(a, b)``
    is the counted form: every call bumps ``comparisons``.
    """

    __slots__ = ("key", "comparisons")

    def __init__(self, key=None):
        self.key = key
        self.comparisons = 0

    def le(self, a, b):
        self.comparisons += 1
        key = self.key
        if key is None:
            return a <= b
        return key(a) <= key(b)


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

