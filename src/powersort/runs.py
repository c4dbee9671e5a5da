"""Run detection and small-run finishing.

A run is a maximal weakly increasing region, or a maximal strictly
decreasing region which is reversed in place on detection.  Strictness in
the decreasing case is what makes the reversal safe for stability: a
strictly decreasing region cannot contain two equal elements, so reversing
it cannot reorder equals.  A weakly decreasing pair (x, x) therefore
terminates a decreasing run.

Run detection and insertion sort compare through the uncounted
``order.compare`` and add the number of comparisons they executed to
``order.comparisons`` once per call.  If ``compare`` raises, the list is
still a permutation of its input: detection reverses a run only after its
scan, and insertion sort puts the element it holds back.
"""

from __future__ import annotations

from typing import NamedTuple


class Run(NamedTuple):
    """Half-open index interval [begin, end) of an already-sorted segment."""

    begin: int
    end: int


def find_first_run(lst, begin, end, order, stats):
    """Return the maximal run starting at ``begin`` within the view
    [begin, end), which must be nonempty.

    If the leading region is strictly decreasing it is reversed in place
    before returning, so the returned region is always weakly increasing.
    """
    if not begin < end:
        raise ValueError("find_first_run requires a nonempty view")
    i = begin + 1
    if i == end:
        return Run(begin, i)
    compare = order.compare
    if compare(lst[begin], lst[i]):
        i += 1
        while i < end and compare(lst[i - 1], lst[i]):
            i += 1
    else:
        # lst[begin] > lst[begin + 1]: strictly decreasing.
        i += 1
        while i < end and not compare(lst[i - 1], lst[i]):
            i += 1
        lst[begin:i] = lst[begin:i][::-1]
        stats.moves += i - begin
    # One comparison per pair inside the run, plus the one that ended it
    # when the run stops short of the view's end.
    order.comparisons += i - begin - 1 + (i < end)
    return Run(begin, i)


def insertion_sort(lst, begin, end, sorted_prefix_len, order, stats):
    """Stable insertion sort of [begin, end); the first ``sorted_prefix_len``
    elements are known to be weakly increasing and are skipped."""
    compare = order.compare
    start = begin + sorted_prefix_len
    if sorted_prefix_len == 0:
        start = begin + 1
    comparisons = 0
    try:
        for i in range(start, end):
            x = lst[i]
            j = i - 1
            # Shift the strictly-greater tail right.  Stopping at the first
            # element <= x inserts x after its equals, which keeps the sort
            # stable.
            while j >= begin and not compare(lst[j], x):
                lst[j + 1] = lst[j]
                j -= 1
            # One comparison per shifted element, plus the one that stopped
            # the shift unless x went all the way to the front.
            comparisons += i - 1 - j + (j >= begin)
            if j + 1 != i:
                lst[j + 1] = x
                stats.moves += i - j
    except BaseException:
        # lst[j + 1] is the hole the shifts left; x goes back into it.
        lst[j + 1] = x
        raise
    order.comparisons += comparisons


def extend_run(lst, run, min_run_len, view_end, order, stats):
    """Extend a short run to ``min_run_len`` elements (clamped to
    ``view_end``) by insertion-sorting the enlarged region.

    The already-sorted prefix of length ``run.end - run.begin`` is skipped.
    Runs that are long enough are returned unchanged.
    """
    if run.end - run.begin >= min_run_len:
        return run
    new_end = min(view_end, run.begin + min_run_len)
    insertion_sort(lst, run.begin, new_end, run.end - run.begin, order, stats)
    return Run(run.begin, new_end)
