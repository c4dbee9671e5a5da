"""Run detection and small-run finishing.

A run is an index pair [begin, end), held as two plain ints; there is no
run type.  ``find_first_run`` and ``extend_run`` return the run's end.  A
natural run is a maximal weakly increasing region, or a maximal strictly
decreasing region which is reversed in place on detection, a ``_CHUNK``
from each end at a time, so no run-sized copy is made.  Strictness in the
decreasing case is what makes the reversal safe for stability: a strictly
decreasing region cannot contain two equal elements, so reversing it
cannot reorder equals.  A weakly decreasing pair (x, x) therefore
terminates a decreasing run.

Short runs are extended by binary insertion sort, as in CPython's
``list.sort`` (``binarysort`` in ``Objects/listsort.txt``).

Run detection and insertion sort take the sort's ``key`` and SortStats.
They key each element once when they load it (``k = x if key is None
else key(x)``) and add the number of comparisons they executed to
``stats.comparisons`` once per call.  Detection holds the key of the
previous element, so it keys each scanned element once, and decides
with an inline ``<=`` on keys.  Without
a key, a run still going after ``_SCAN_INLINE`` elements is finished at C
speed, by ``all`` (or ``any``) over ``map(operator.le, ...)`` of two list
iterators one element apart; ``map`` is lazy, so the ``<=`` calls are
exactly the loop's.  Insertion sort holds a local copy of its region,
with a key also a local list of its keys, and places each element with
the C-level ``bisect_right``, which decides with ``<``; it counts the
probes from a table, since their number is fixed by the position
``bisect_right`` returns.  If the key, ``<`` or ``<=`` raises, the list is
still a permutation of its input: detection reverses a run only after its
scan, and insertion sort writes its copy back only when it is done.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import chain, islice
from operator import le, length_hint

from .merges import _CHUNK

#: Elements of a run that detection scans with its inline loop before an
#: unkeyed scan goes on in C (``_scan_tail``).  The tail costs a fixed set-up
#: of two iterators, so it pays only past about 32 elements; measured per
#: call (CPython 3.11, ints, loop / tail): a run of 16 took 494 / 546 ns, 32
#: took 846 / 836 ns, and 250 000 took 6.0 / 4.5 ms.
_SCAN_INLINE = 32


def find_first_run(lst, begin, end, key, stats):
    """Return the end of the maximal run starting at ``begin`` within the
    view [begin, end), which must be nonempty.

    If the leading region is strictly decreasing it is reversed in place
    before returning, so the returned region is always weakly increasing.
    The first ``_SCAN_INLINE`` elements are scanned by a Python loop; an
    unkeyed run that reaches past them is finished by ``_scan_tail``, which
    runs the same ``<=`` calls in C.
    """
    if not begin < end:
        raise ValueError("find_first_run requires a nonempty view")
    i = begin + 1
    if i == end:
        return i
    stop = end if key is not None else min(end, begin + _SCAN_INLINE)
    x = lst[begin]
    kp = x if key is None else key(x)
    x = lst[i]
    k = x if key is None else key(x)
    # kp is the key of lst[i - 1], k of lst[i].
    if kp <= k:
        for i in range(i + 1, stop):
            kp = k
            x = lst[i]
            k = x if key is None else key(x)
            if not kp <= k:
                break
        else:
            i = stop if stop == end else _scan_tail(lst, stop, end, True)
    else:
        # lst[begin] > lst[begin + 1]: strictly decreasing.
        for i in range(i + 1, stop):
            kp = k
            x = lst[i]
            k = x if key is None else key(x)
            if kp <= k:
                break
        else:
            i = stop if stop == end else _scan_tail(lst, stop, end, False)
        if i > len(lst):
            raise IndexError("run past the end of the list")
        lo, hi = begin, i
        while hi - lo >= 2 * _CHUNK:
            hi -= _CHUNK
            lst[lo : lo + _CHUNK], lst[hi : hi + _CHUNK] = (
                lst[hi : hi + _CHUNK][::-1], lst[lo : lo + _CHUNK][::-1])
            lo += _CHUNK
        lst[lo:hi] = lst[lo:hi][::-1]
        stats.moves += i - begin
    # One comparison per pair inside the run, plus the one that ended it
    # when the run stops short of the view's end.
    stats.comparisons += i - begin - 1 + (i < end)
    return i


def _scan_tail(lst, start, end, ascending):
    """Return the first ``i`` in [start, end) at which the pair
    ``(lst[i - 1], lst[i])`` ends the run, or ``end``: weakly increasing
    pairs continue an ascending run, strictly decreasing ones a descending
    run.  Elements are compared unkeyed, in C.

    ``prev`` and ``cur`` are list iterators placed at ``start - 1`` and
    ``start`` in O(1).  ``all``/``any`` stop at the pair that decides, so
    ``cur`` then sits one past ``i``, which ``length_hint`` gives back.
    ``cur`` is cut at ``end`` by ``islice`` only when the view ends before
    the list, since that layer slows the scan.  Raises ``ValueError`` if a
    ``<=`` changed the list's length, since the iterators then read past
    the view or stop short of it.
    """
    n = len(lst)
    prev = iter(lst)
    prev.__setstate__(start - 1)
    cur = iter(lst)
    cur.__setstate__(start)
    pairs = map(le, prev, cur if end == n else islice(cur, end - start))
    whole = all(pairs) if ascending else not any(pairs)
    if len(lst) != n:
        raise ValueError("list modified during run detection")
    return end if whole else n - length_hint(cur) - 1


#: Rows of the insertion table: ``_insertion_table()[i]`` covers insertions
#: into ``i`` < 64 sorted keys, so a region of up to 64 elements, the
#: default ``policy.MIN_RUN_LEN`` and CPython's largest ``minrun``, is
#: counted by table lookups alone.  Longer regions, reachable only with a
#: larger ``min_run_len``, walk ``_PathRow`` in Python for each insertion
#: past row 63, which makes those insertions several times slower.
_TABLE_ROWS = 64


class _PathRow:
    """Row ``i``: ``row[pos]`` is ``(probes, moves)`` of inserting an
    element into ``i`` sorted keys when ``bisect_right`` returns ``pos``.

    ``probes`` is the number of ``<`` that ``bisect_right`` runs: its path
    is fixed by ``pos``, so walking it to ``pos`` counts them.  ``moves`` is
    the in-place algorithm's writes: ``i - pos`` shifts plus the element set
    into its hole, or none if it stays where it is.
    """

    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i

    def __getitem__(self, pos):
        i = self.i
        lo, hi = 0, i
        probes = 0
        while lo < hi:
            mid = (lo + hi) // 2
            probes += 1
            if pos <= mid:
                hi = mid
            else:
                lo = mid + 1
        return probes, (i - pos + 1 if pos != i else 0)


@cache
def _insertion_table():
    """The ``_PathRow`` rows below ``_TABLE_ROWS`` as tuples; built on the
    first insertion sort, not at import."""
    return tuple(tuple(_PathRow(i)[pos] for pos in range(i + 1))
                 for i in range(_TABLE_ROWS))


def _insertion_rows(start, stop):
    """Insertion-table rows ``start`` to ``stop - 1``, in order.

    An iterator, not a slice: a slice is a new tuple, and CPython keeps
    freed short tuples on a free list, so slices would stay allocated after
    the sort and add to its peak memory.
    """
    rows = islice(_insertion_table(), start, stop)
    if stop <= _TABLE_ROWS:
        return rows
    return chain(rows, map(_PathRow, range(max(start, _TABLE_ROWS), stop)))


def insertion_sort(lst, begin, end, sorted_prefix_len, key, stats):
    """Stable binary insertion sort of [begin, end); the first
    ``sorted_prefix_len`` elements are known to be weakly increasing and
    are skipped.

    The sorted region is built in a local list and written back at the
    end.  Each element is placed with the C-level ``bisect_right``, after
    its equals.  As in the merge kernels, the loop is chosen once by ``key
    is None``: the unkeyed loop bisects the region itself, the keyed loop a
    list of its keys beside it, and inserts into both.  If anything is
    inserted, every element of the region is keyed once; otherwise none
    is.  ``bisect_right`` compares with ``<``, and its probe path is fixed
    by the position it returns, whatever the order answers, so
    ``comparisons`` adds ``rows[i][pos]`` per insertion.
    ``moves`` counts the writes of the in-place algorithm: each shifted
    element and each element set into its hole.
    """
    start = max(sorted_prefix_len, 1)
    if end - begin <= start:
        return
    vs = lst[begin:begin + start]
    rest = lst[begin + start:end]
    rows = _insertion_rows(start, end - begin)
    insert = vs.insert
    comparisons = moves = 0
    if key is None:
        for row, x in zip(rows, rest):
            pos = bisect_right(vs, x)
            probes, shifted = row[pos]
            comparisons += probes
            moves += shifted
            insert(pos, x)
    else:
        ks = list(map(key, vs))
        insert_key = ks.insert
        for row, x, kx in zip(rows, rest, map(key, rest)):
            pos = bisect_right(ks, kx)
            probes, shifted = row[pos]
            comparisons += probes
            moves += shifted
            insert(pos, x)
            insert_key(pos, kx)
    if end > len(lst):
        # Shortened during the sort; writing back would lengthen it again.
        raise IndexError("insertion region past the end of the list")
    lst[begin:end] = vs
    stats.moves += moves
    stats.comparisons += comparisons


def extend_run(lst, begin, end, min_run_len, view_end, key, stats):
    """Extend the run [begin, end) to ``min_run_len`` elements (clamped to
    ``view_end``) by insertion-sorting the enlarged region, and return its
    new end.

    The run itself is the sorted prefix and is skipped.  A run that is
    long enough keeps its end.
    """
    if end - begin >= min_run_len:
        return end
    new_end = min(view_end, begin + min_run_len)
    insertion_sort(lst, begin, new_end, end - begin, key, stats)
    return new_end
