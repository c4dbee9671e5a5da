"""Run detection and small-run finishing.

A run is a maximal weakly increasing region, or a maximal strictly
decreasing region which is reversed in place on detection.  Strictness in
the decreasing case is what makes the reversal safe for stability: a
strictly decreasing region cannot contain two equal elements, so reversing
it cannot reorder equals.  A weakly decreasing pair (x, x) therefore
terminates a decreasing run.

Run detection and insertion sort key each element once when they load it
(``k = x if key is None else key(x)``, with ``key = order.key``), decide
with an inline ``<=`` on keys, and add the number of comparisons they
executed to ``order.comparisons`` once per call.  Detection holds the key
of the previous element, so it keys each scanned element once.  Insertion
sort holds the keys of its region in a local list, beside a local copy of
the region, so it keys each element at most once.  If the key or ``<=``
raises, the list is still a permutation of its input: detection reverses a
run only after its scan, and insertion sort writes its copy back only when
it is done.  An input that holds ``SENTINEL`` is keyed through the admitted
key wrapper (``CountingOrder.admit_sentinel``), like any other element.
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
    key = order.key
    x = lst[begin]
    kp = x if key is None else key(x)
    x = lst[i]
    k = x if key is None else key(x)
    # kp is the key of lst[i - 1], k of lst[i].
    if kp <= k:
        for i in range(i + 1, end):
            kp = k
            x = lst[i]
            k = x if key is None else key(x)
            if not kp <= k:
                break
        else:
            i = end
    else:
        # lst[begin] > lst[begin + 1]: strictly decreasing.
        for i in range(i + 1, end):
            kp = k
            x = lst[i]
            k = x if key is None else key(x)
            if kp <= k:
                break
        else:
            i = end
        lst[begin:i] = lst[begin:i][::-1]
        stats.moves += i - begin
    # One comparison per pair inside the run, plus the one that ended it
    # when the run stops short of the view's end.
    order.comparisons += i - begin - 1 + (i < end)
    return Run(begin, i)


def insertion_sort(lst, begin, end, sorted_prefix_len, order, stats):
    """Stable insertion sort of [begin, end); the first ``sorted_prefix_len``
    elements are known to be weakly increasing and are skipped.

    The region is sorted in a local copy, beside a list of its keys, and
    written back at the end.  Each inserted element is keyed once; the
    sorted prefix is keyed lazily, from its top down, as far as the
    comparisons reach into it.  ``moves`` counts the writes of the in-place
    algorithm: each shifted element and each element set into its hole.
    """
    key = order.key
    start = max(sorted_prefix_len, 1)
    vs = lst[begin:end]
    if key is None:
        ks = vs
        lo = 0
    else:
        ks = [None] * start + list(map(key, vs[start:]))
        lo = start  # ks[lo:] holds keys, ks[:lo] is not keyed yet
    comparisons = moves = 0
    for i in range(start, len(vs)):
        kx = ks[i]
        j = i - 1
        # Stop at the first element <= x: x goes after its equals, which
        # keeps the sort stable.
        while j >= lo and not ks[j] <= kx:
            j -= 1
        if j < lo:
            while j >= 0:
                ks[j] = kj = key(vs[j])
                lo = j
                if kj <= kx:
                    break
                j -= 1
        # One comparison per element x passes, plus the one that stopped
        # it unless x went all the way to the front.
        comparisons += i - 1 - j + (j >= 0)
        if j + 1 != i:
            vs.insert(j + 1, vs.pop(i))
            if ks is not vs:
                ks.insert(j + 1, ks.pop(i))
            moves += i - j
    if end > len(lst):
        # Shortened during the sort; writing back would lengthen it again.
        raise IndexError("insertion region past the end of the list")
    lst[begin:end] = vs
    stats.moves += moves
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
