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
``list.sort`` (``binarysort`` in ``Objects/listsort.txt``), to at most
``MIN_RUN_LEN`` = 64 elements, CPython's largest ``minrun``.

Run detection and insertion sort take the sort's ``key`` and SortStats.
They key each element once when they load it (``k = x if key is None
else key(x)``), decide with ``<`` only, as ``list.sort`` does, and add the
number of comparisons they executed to ``stats.comparisons`` once per
call.  Detection holds the key of the previous element, so it keys each
scanned element once, and compares inline.  Without a key, a run still
going after ``_SCAN_INLINE`` elements is finished at C speed, by ``any``
(or ``all``) over ``map(operator.lt, ...)`` of two list iterators one
element apart; ``map`` is lazy, so the ``<`` calls are exactly the loop's.
Insertion sort holds a local copy of its region, with a key also a local
list of its keys, and places each element with the C-level
``bisect_right``; it counts the probes from a table with a row for each
insertion into a region of up to ``MIN_RUN_LEN`` elements, since their
number is fixed by the position ``bisect_right`` returns.  If the key or ``<``
raises, the list is still a permutation of its input: detection reverses a
run only after its scan, and insertion sort writes its copy back only when
it is done.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import islice
from operator import length_hint, lt

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
    runs the same ``<`` calls in C.
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
    if not k < kp:
        for i in range(i + 1, stop):
            kp = k
            x = lst[i]
            k = x if key is None else key(x)
            if k < kp:
                break
        else:
            i = stop if stop == end else _scan_tail(lst, stop, end, True)
    else:
        # lst[begin] > lst[begin + 1]: strictly decreasing.
        for i in range(i + 1, stop):
            kp = k
            x = lst[i]
            k = x if key is None else key(x)
            if not k < kp:
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
    ``(lst[i - 1], lst[i])`` ends the run, or ``end``: a pair with
    ``lst[i] < lst[i - 1]`` ends an ascending run, any other a descending
    one.  Elements are compared unkeyed, in C.

    ``cur`` and ``prev`` are list iterators placed at ``start`` and
    ``start - 1`` in O(1).  ``any``/``all`` stop at the pair that decides,
    so ``cur`` then sits one past ``i``, which ``length_hint`` gives back.
    ``cur`` is cut at ``end`` by ``islice`` only when the view ends before
    the list, since that layer slows the scan.  Raises ``ValueError`` if a
    ``<`` changed the list's length, since the iterators then read past
    the view or stop short of it.
    """
    n = len(lst)
    prev = iter(lst)
    prev.__setstate__(start - 1)
    cur = iter(lst)
    cur.__setstate__(start)
    pairs = map(lt, cur if end == n else islice(cur, end - start), prev)
    whole = not any(pairs) if ascending else all(pairs)
    if len(lst) != n:
        raise ValueError("list modified during run detection")
    return end if whole else n - length_hint(cur) - 1


#: The longest region that insertion sort takes, and the default length to
#: which ``policy`` extends a shorter natural run: CPython's largest
#: ``minrun``.  ``_insertion_table()`` has one row per insertion into a
#: region this long, so every insertion is counted by a table lookup; a
#: longer length is tried by raising this constant.  Longer runs mean fewer
#: runs, each with a fixed Python cost in detection, the run stack and
#: ``node_power``, and fewer merge set-ups: against 24, a random permutation
#: of 25 000 records has 391 runs instead of 1042 and its ``4way`` sort ran
#: 12.9% faster (CPython 3.11, 2 vCPUs).  The price is on inputs with natural
#: runs of 16 to 128: extension binary-inserts elements that the next natural
#: run already held in order, so random runs of mean 32 take 8.9% more
#: comparisons and of mean 64 to 128 sort about 2% slower.
MIN_RUN_LEN = 64

#: Width of the probe field of a packed insertion-table entry.  Inserting
#: into i keys runs at most ``i.bit_length()`` probes, so a region's
#: insertions run fewer than ``MIN_RUN_LEN * MIN_RUN_LEN.bit_length()`` in
#: total, and their sum never carries into the moves field above it.
_PROBE_BITS = (MIN_RUN_LEN * MIN_RUN_LEN.bit_length()).bit_length()


def _packed_insertion(i, pos):
    """``probes | moves << _PROBE_BITS`` of inserting an element into ``i``
    sorted keys when ``bisect_right`` returns ``pos``.

    ``probes`` is the number of ``<`` that ``bisect_right`` runs: its path
    is fixed by ``pos``, so walking it to ``pos`` counts them.  ``moves`` is
    the in-place algorithm's writes: ``i - pos`` shifts plus the element set
    into its hole, or none if it stays where it is.  A region's entries add
    up to its total probes and moves, packed the same way.
    """
    lo, hi = 0, i
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if pos <= mid:
            hi = mid
        else:
            lo = mid + 1
    return probes | (i - pos + 1 if pos != i else 0) << _PROBE_BITS


@cache
def _insertion_table():
    """Row ``i`` < ``MIN_RUN_LEN`` holds ``_packed_insertion(i, pos)`` for
    each ``pos`` in 0..i; built on the first insertion sort, not at
    import."""
    return tuple(tuple(_packed_insertion(i, pos) for pos in range(i + 1))
                 for i in range(MIN_RUN_LEN))


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
    by the position it returns, whatever the order answers, so one add of
    ``rows[i][pos]`` per insertion tallies its probes and its moves, packed
    in one int (``_packed_insertion``); the total is split once, after the
    loop.  ``comparisons`` gets the probes, ``moves`` the writes of the
    in-place algorithm: each shifted element and each element set into its
    hole.  Raises ``ValueError``, before it touches the list, for a region
    longer than ``MIN_RUN_LEN``, which the table does not cover.
    """
    if end - begin > MIN_RUN_LEN:
        raise ValueError("insertion region longer than %d" % MIN_RUN_LEN)
    start = max(sorted_prefix_len, 1)
    if end - begin <= start:
        return
    vs = lst[begin:begin + start]
    rest = lst[begin + start:end]
    # An iterator over the table, not a slice: a slice is a new tuple, and
    # CPython keeps freed short tuples on a free list, so slices would stay
    # allocated after the sort and add to its peak memory.
    rows = islice(_insertion_table(), start, end - begin)
    insert = vs.insert
    packed = 0
    if key is None:
        for row, x in zip(rows, rest):
            pos = bisect_right(vs, x)
            packed += row[pos]
            insert(pos, x)
    else:
        ks = list(map(key, vs))
        insert_key = ks.insert
        for row, x, kx in zip(rows, rest, map(key, rest)):
            pos = bisect_right(ks, kx)
            packed += row[pos]
            insert(pos, x)
            insert_key(pos, kx)
    if end > len(lst):
        # Shortened during the sort; writing back would lengthen it again.
        raise IndexError("insertion region past the end of the list")
    lst[begin:end] = vs
    stats.moves += packed >> _PROBE_BITS
    stats.comparisons += packed & ((1 << _PROBE_BITS) - 1)


def extend_run(lst, begin, end, min_run_len, view_end, key, stats):
    """Extend the run [begin, end) to ``min_run_len`` elements (clamped to
    ``view_end``) by insertion-sorting the enlarged region, and return its
    new end; ``insertion_sort`` refuses a region longer than
    ``MIN_RUN_LEN``.

    The run itself is the sorted prefix and is skipped.  A run that is
    long enough keeps its end.
    """
    if end - begin >= min_run_len:
        return end
    new_end = min(view_end, begin + min_run_len)
    insertion_sort(lst, begin, new_end, end - begin, key, stats)
    return new_end
