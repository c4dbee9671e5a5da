"""Instrumentation of a sort: its counters.

Nothing in here is global state.  A ``SortStats`` record belongs to
exactly one sort call.  Run detection, insertion sort and the merge
kernels each take the sort's ``key`` and its ``SortStats``, and add to
the counters as they go, so every counter is live during the sort (an
``on_merge`` hook sees them).  With a key, the layers call it once on
each element when they load it and keep that key beside the element;
without one, they hold and compare the elements themselves (every merge
kernel chooses a loop without a key test for that case, once per merge).
Each adds the number of comparisons it executed to ``comparisons`` once
per call, derived from its loop structure (for insertion sort, from the
positions ``bisect_right`` returns).  Every layer decides with ``<``
only, as ``list.sort`` does, so a key type needs nothing else.
``CountingOrder`` is a counted ``<=`` the sort does not use; it is kept
because the benchmark (``perfbench``) times its ``le``, until ROADMAP open
item 1(b) stops that.

Counter semantics:

* ``comparisons`` counts comparisons between two input elements.  No
  input value is reserved: the sentinel kernels make a fresh sentinel
  object per merge, which the caller cannot hold, and a decision it meets
  is made by ``is``, without a comparison, and is not counted.
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
    """A counted "a sorts at or before b", which the sort does not use.

    ``key`` extracts the sort key from an element; ``None`` compares the
    elements themselves.  Every ``le(a, b)`` call bumps ``comparisons``.
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

