"""Stable merge kernels.

Every kernel takes ``(lst, bounds, B, key, stats)``.  It merges the w
adjacent sorted runs [b0, b1), .., [b_{w-1}, end) of ``lst``, given by
``bounds = (b0, .., b_{w-1}, end)``, in place through the scratch list
``B``, which needs the merge's length (plus a slot per run for a sentinel
kernel), and tallies costs into the SortStats ``stats``.  Every decision
is an inline ``<`` on two held locals, as in ``list.sort``: the elements
without a key (``key is None``); with one, their keys, each called once
when its element is loaded into a local and kept beside it.  Every kernel
chooses its hot loop once per merge, by ``key is None``, so neither loop
tests for a key, and adds the comparisons it executed to
``stats.comparisons`` once per call, derived from its loop structure.  A
decision takes the left head unless the right one is ``<`` it, so ties go
to the run with the lower start index, which makes each kernel stable.

The sentinel kernels make a fresh sentinel, ``object()``, per call and
place it after each buffered run, so no input value is reserved.  Every
kernel reads a buffered run through a list iterator placed at the run's
start with ``__setstate__`` (the sentinel-free ones through an ``islice``
of it, bounded to the run), so a step moves no cursor.  A run's cursor,
the buffer index of its head, is read only for a 2-way tail copy, a 3-way
loop's count and a put-back, as ``len(B) - 1 - length_hint(it)``.

Five buffer strategies:

* ``merge_2way_sentinel``: both runs copied out, a sentinel after each; a
  step learns that its run is exhausted from the head it reads next.
* ``merge_2way_no_sentinel``: both runs copied out; two nested ``for``
  loops, the outer one over the run that wins ties, the inner one over the
  other run while its held head wins.  A run that ends leaves its loop,
  and the rest of the other is put back.
* ``merge_2way_copy_smaller``: only the smaller run copied out, merged
  into the gap.  Forward, the loops of ``merge_2way_no_sentinel`` read the
  right run in place; backward, mirrored loops over reverse iterators.
* ``merge_tournament``: a winner tournament tree over 3 or 4 runs, a
  sentinel after each buffered run.
* ``merge_tournament_no_sentinel``: the same tree and the same decisions
  in the same order, over runs buffered back to back.

Every copy-out and put-back goes through ``_copy``, ``_CHUNK`` elements
per slice, so a merge's scratch memory is B plus a chunk or two.

The tournament tree holds values.  The heads h0..h3 of the four runs are
locals; x, the winner of runs 0 and 1, and y, of runs 2 and 3, are already
taken from their runs.  The root outputs the smaller of x and y and
refills that side from its two heads.  A 3-way merge has an empty fourth
run.  An exhausted run's head is a marker, tested with ``is`` before it
would be keyed or compared; a decision it meets compares nothing and is
not counted.  ``merge_tournament``'s marker is its sentinel, which a
refill draws as its run's next head and tests with one ``is``;
``merge_tournament_no_sentinel`` refills with ``try: h = next(it)``, so a
step tests no cursor and no marker.  Both kernels run in three phases:

1. The 4-way loop, while all four runs are live.
2. The 3-way loop: runs 0 and 1 on the left, one run on the right, whose
   head refills y without a comparison.  It serves 3-way merges, and takes
   over when run 3 ends, or when run 2 ends and run 3 moves into its slot.
3. The checked phase, once run 0 or 1 ends (``_tournament_rounds``, which
   also draws the first winners).  Each decision tests both its sides for
   the marker, and each refill draws with ``next(it, marker)``: a sentinel
   run's iterator returns the sentinel, an exhausted islice the default,
   so one test finds an exhausted run for both kernels.

No kernel has a local that a comprehension or a closure captures: before
CPython 3.12 each such local is a cell, read with ``LOAD_DEREF`` wherever
the function uses it.

If the key or ``<`` raises, every kernel writes the elements it has taken
out and not yet output back into the merge region before the exception
propagates, so the list stays a permutation of its input.
"""

from __future__ import annotations

from itertools import islice
from operator import length_hint

#: Always 0: no kernel rebuilds a tree.  Kept only because perfbench/bench.py
#: reads it for its ``merges.nasty_rebuilds.4way-nosentinel`` metric.
nasty_rebuilds = 0

#: Elements per slice when a run moves between the list and the buffer, or
#: per end when detection reverses one: temporaries stay a few chunks long.
_CHUNK = 1024


def _cursor(B, it):
    """The index in B of the element that ``next(it)`` returned last."""
    return len(B) - 1 - length_hint(it)


def _check_regions(lst, bounds, widths):
    """Reject bounds that are not ``w + 1`` increasing positions in lst, for
    a width w in ``widths``, before a kernel indexes them."""
    if len(bounds) - 1 not in widths:
        raise ValueError(
            "a %s-way kernel cannot merge a group of %d bounds %r"
            % ("/".join(map(str, widths)), len(bounds), bounds)
        )
    if bounds[0] < 0 or bounds[-1] > len(lst):
        raise ValueError("merge bounds %r outside the array" % (bounds,))
    a = bounds[0]
    for b in bounds[1:]:
        if a >= b:
            raise ValueError("empty merge region in bounds %r" % (bounds,))
        a = b


def _check_buffer(B, need):
    if len(B) < need:
        raise ValueError("merge buffer has %d slots, needs %d" % (len(B), need))


def _count_copy_all(stats, n, reserved):
    """Tally a merge of n elements that buffered all of them and wrote
    ``reserved`` slots next to the buffered runs."""
    stats.merge_cost += n
    stats.buffer_cost += n
    stats.moves += 2 * n
    stats.scan_reads += 2 * n
    stats.scan_writes += 2 * n + reserved


def _copy(dst, at, src, begin, end):
    """Write src[begin:end] over dst[at:], ``_CHUNK`` elements per slice; a
    range within one chunk takes one slice.  dst must span the range."""
    if end - begin <= _CHUNK:
        dst[at : at + end - begin] = src[begin:end]
        return
    for b in range(begin, end, _CHUNK):
        e = min(b + _CHUNK, end)
        dst[at + b - begin : at + e - begin] = src[b:e]


def _put_back(lst, r, ranges):
    """Write the ``(source, begin, end)`` ranges, in order, to the end of the
    merge region [.., r), through ``_copy``.

    After a failure, the ranges hold every element taken out and not yet
    output, and the output so far fills the region up to them.  A region
    past the end of the list (it was shortened during the merge) raises
    IndexError: a slice write there would lengthen the list again and
    hide the change.
    """
    if r > len(lst):
        raise IndexError("merge region past the end of the list")
    for src, begin, end in reversed(ranges):
        r -= end - begin
        _copy(lst, r, src, begin, end)


def _merge_runs(lst, o, A, c1, e1, C, c2, e2, key, stats):
    """Merge the nonempty sorted runs A[c1:e1] and C[c2:e2] into lst from
    position o on, and return the second run's cursor at the end: e2 if it
    ran out first, else where its rest starts.

    The outer loop draws A's run, the inner one C's, whose head b is held.

    C may be lst itself, with its run ending where the output does: the
    output stays behind that run's cursor, and its rest is already in
    place."""
    r = o + (e1 - c1) + (e2 - c2)
    start = o
    ia, ic = iter(A), iter(C)
    ia.__setstate__(c1)
    ic.__setstate__(c2)
    b = next(ic)
    rest = islice(ic, e2 - c2 - 1)
    dry = 0  # 1 once the second run has run out, with a pending
    try:
        if key is None:
            for a in islice(ia, e1 - c1):
                if not b < a:
                    lst[o] = a
                    o += 1
                    continue
                lst[o] = b
                o += 1
                for b in rest:
                    if not b < a:
                        break
                    lst[o] = b
                    o += 1
                else:
                    dry = 1
                    break
                lst[o] = a
                o += 1
        else:
            kb = key(b)
            for a in islice(ia, e1 - c1):
                ka = key(a)
                if not kb < ka:
                    lst[o] = a
                    o += 1
                    continue
                lst[o] = b
                o += 1
                for b in rest:
                    kb = key(b)
                    if not kb < ka:
                        break
                    lst[o] = b
                    o += 1
                else:
                    dry = 1
                    break
                lst[o] = a
                o += 1
    finally:
        # The surviving run's rest, or after a failure both rests; in lst,
        # C's rest is already in place, from c2 to r.
        c2 = _cursor(C, ic) + dry
        c1 = e1 + e2 - c2 - (r - o)  # r - o outputs are left
        if C is lst and r <= len(lst):
            _put_back(lst, c2, ((A, c1, e1),))
        else:
            _put_back(lst, r, ((A, c1, e1), (C, c2, e2)))
    stats.comparisons += o - start  # one per output before the tail copy
    return c2


def merge_2way_sentinel(lst, bounds, B, key, stats):
    """Merge sorted [l, m) and [m, r), bounds ``(l, m, r)``, in place; both
    runs buffered with a sentinel appended, so a step needs no bounds
    check: it learns that its run is exhausted from the next head it
    reads."""
    _check_regions(lst, bounds, (2,))
    l, m, r = bounds
    n = r - l
    _check_buffer(B, n + 2)
    n1 = m - l
    sentinel = object()
    _copy(B, 0, lst, l, m)
    B[n1] = sentinel
    _copy(B, n1 + 1, lst, m, r)
    B[n + 1] = sentinel
    it1 = iter(B)
    it2 = iter(B)
    it2.__setstate__(n1 + 1)
    a = next(it1)
    b = next(it2)
    try:
        if key is None:
            for o in range(l, r):
                if not b < a:
                    lst[o] = a
                    a = next(it1)
                    if a is sentinel:
                        break
                else:
                    lst[o] = b
                    b = next(it2)
                    if b is sentinel:
                        break
        else:
            ka = key(a)
            kb = key(b)
            for o in range(l, r):
                if not kb < ka:
                    lst[o] = a
                    a = next(it1)
                    if a is sentinel:
                        break
                    ka = key(a)
                else:
                    lst[o] = b
                    b = next(it2)
                    if b is sentinel:
                        break
                    kb = key(b)
    finally:
        # The surviving run's rest, or after a failure both rests.
        _put_back(lst, r, ((B, _cursor(B, it1), n1),
                           (B, _cursor(B, it2), n + 1)))
    # The rounds after the break would each have met a sentinel.
    stats.comparisons += o + 1 - l
    _count_copy_all(stats, n, 2)
    stats.merges2 += 1


def merge_2way_no_sentinel(lst, bounds, B, key, stats):
    """Like merge_2way_sentinel, but with explicit bounds checks instead of
    sentinels.  Output and move counts are identical."""
    _check_regions(lst, bounds, (2,))
    l, m, r = bounds
    n = r - l
    _check_buffer(B, n)
    n1 = m - l
    _copy(B, 0, lst, l, r)
    _merge_runs(lst, l, B, 0, n1, B, n1, n, key, stats)
    _count_copy_all(stats, n, 0)
    stats.merges2 += 1


def merge_2way_copy_smaller(lst, bounds, B, key, stats):
    """Copy only the smaller run to the buffer and merge into the gap.

    Left run smaller: forward merge, left wins ties.  Right run smaller:
    backward merge over reverse iterators, taking the larger element, right
    wins ties -- the mirror image of the forward rule -- so the global tie
    order is unchanged.
    """
    _check_regions(lst, bounds, (2,))
    l, m, r = bounds
    n1 = m - l
    n2 = r - m
    _check_buffer(B, min(n1, n2))
    n = r - l
    if n1 <= n2:
        _copy(B, 0, lst, l, m)
        c2 = _merge_runs(lst, l, B, 0, n1, lst, m, r, key, stats)
        written = c2 - l  # the right run's rest stays where it is
    else:
        _copy(B, 0, lst, m, r)
        # _merge_runs mirrored: the inner loop draws the left run in place.
        ia, ib = reversed(lst), reversed(B)
        ia.__setstate__(m - 1)
        ib.__setstate__(n2 - 1)
        a = next(ia)
        rest = islice(ia, n1 - 1)
        dry = 0  # 1 once the left run has run out, with b pending
        o = r - 1
        try:
            if key is None:
                for b in islice(ib, n2):
                    if not b < a:
                        lst[o] = b
                        o -= 1
                        continue
                    lst[o] = a
                    o -= 1
                    for a in rest:
                        if not b < a:
                            break
                        lst[o] = a
                        o -= 1
                    else:
                        dry = 1
                        break
                    lst[o] = b
                    o -= 1
            else:
                ka = key(a)
                for b in islice(ib, n2):
                    kb = key(b)
                    if not kb < ka:
                        lst[o] = b
                        o -= 1
                        continue
                    lst[o] = a
                    o -= 1
                    for a in rest:
                        ka = key(a)
                        if not kb < ka:
                            break
                        lst[o] = a
                        o -= 1
                    else:
                        dry = 1
                        break
                    lst[o] = b
                    o -= 1
        finally:
            # The right run's rest fills the gap up to o after the left
            # run's rest, in place up to index length_hint(ia) - dry.
            tail = o - length_hint(ia) + dry
            _put_back(lst, o + 1, ((B, 0, tail),))
        outputs = r - 1 - o
        stats.comparisons += outputs  # one per output before the tail copy
        written = outputs + tail
    copied = min(n1, n2)
    stats.merge_cost += n
    stats.buffer_cost += copied
    stats.moves += copied + written
    stats.scan_reads += copied + written
    stats.scan_writes += copied + written
    stats.merges2 += 1


def _put_back_tree(lst, r, B, marker, held, heads, slots):
    """After a failure in a tournament, write the held winners, then each
    run from its head on (where its list iterator stands; nothing for a
    ``marker`` head), to the end of the merge region [.., r)."""
    pending = []
    for v in held:
        if v is not marker:
            pending.append(v)
    ranges = [(pending, 0, len(pending))]
    for h, (_, it, end) in zip(heads, slots):
        if h is not marker:
            ranges.append((B, _cursor(B, it), end))
    _put_back(lst, r, ranges)


def _tournament_rounds(lst, o, r, B, key, marker, slots, tree=None):
    """The tournament's checked rounds: each tests both sides of each
    decision for ``marker``, the head of an exhausted run, before comparing.

    ``slots`` holds each run's ``(iterator, list iterator, end)``, and
    ``next(iterator, marker)`` is ``marker`` past the end of the run.
    Without a ``tree``, draw the heads and the first two winners, and
    return the decisions a marker met and the tree ``(x, kx, y, ky, h0, k0,
    .., h3, k3)``.  With one, output from o on to r, and return that count.
    """
    (i0, _, _), (i1, _, _), (i2, _, _), (i3, _, _) = slots
    build = tree is None
    if build:
        h0, h1, h2, h3 = (next(i0, marker), next(i1, marker),
                          next(i2, marker), next(i3, marker))
        x = y = marker  # an exhausted side, or one not drawn yet
        z = None  # the side to refill: True left, False right, None both
    else:
        x, kx, y, ky, h0, k0, h1, k1, h2, k2, h3, k3 = tree
    met = 0
    try:
        if build:
            # Runs 0-2 are nonempty; run 3 is empty in a 3-way merge.
            if key is None:
                k0, k1, k2, k3 = h0, h1, h2, h3
            else:
                k0, k1, k2 = key(h0), key(h1), key(h2)
                k3 = h3 if h3 is marker else key(h3)
        while True:
            if not build:
                # The root: both sides are empty only after the last output.
                if x is marker or y is marker:
                    met += 1
                    z = y is marker
                else:
                    z = not ky < kx
                if z:
                    lst[o] = x
                    x = marker
                else:
                    lst[o] = y
                    y = marker
                o += 1
                if o == r:
                    return met
            if z is not False:
                # Refill the left winner; run 0 wins ties.
                if h0 is marker or h1 is marker:
                    met += 1
                    first = h1 is marker
                else:
                    first = not k1 < k0
                if not first:
                    x, kx = h1, k1
                    h1 = next(i1, marker)
                    k1 = h1 if key is None or h1 is marker else key(h1)
                elif h0 is not marker:
                    x, kx = h0, k0
                    h0 = next(i0, marker)
                    k0 = h0 if key is None or h0 is marker else key(h0)
            if z is not True:
                # Refill the right winner; run 2 wins ties.
                if h2 is marker or h3 is marker:
                    met += 1
                    first = h3 is marker
                else:
                    first = not k3 < k2
                if not first:
                    y, ky = h3, k3
                    h3 = next(i3, marker)
                    k3 = h3 if key is None or h3 is marker else key(h3)
                elif h2 is not marker:
                    y, ky = h2, k2
                    h2 = next(i2, marker)
                    k2 = h2 if key is None or h2 is marker else key(h2)
            if build:
                return met, (x, kx, y, ky, h0, k0, h1, k1, h2, k2, h3, k3)
    except BaseException:
        _put_back_tree(lst, r, B, marker, (x, y), (h0, h1, h2, h3), slots)
        raise


def merge_tournament(lst, bounds, B, key, stats):
    """Merge the 3 or 4 sorted regions between ``bounds`` in place through
    the tournament tree described in the module docstring, with a sentinel
    after each buffered run."""
    _check_regions(lst, bounds, (3, 4))
    l, r = bounds[0], bounds[-1]
    n = r - l
    _check_buffer(B, n + len(bounds) - 1)
    sentinel = object()
    # Each run goes to B right after the previous run's sentinel, and its
    # own sentinel to B[end].
    ends = []
    end = -1
    b = l
    for e in bounds[1:]:
        start = end + 1
        end = start + e - b
        _copy(B, start, lst, b, e)
        B[end] = sentinel
        ends.append(end)
        b = e
    # Each run's (iterator, list iterator, end): one placed list iterator.
    slots = []
    start = 0
    for end in ends:
        it = iter(B)
        it.__setstate__(start)
        slots.append((it, it, end))
        start = end + 1
    if len(slots) == 3:
        slots.append((iter((sentinel,)), None, 0))  # the empty fourth run
    (i0, _, _), (i1, _, _), (i2, u2, _), (i3, u3, _) = slots
    # met: decisions met by a sentinel, without a comparison.
    met, (x, kx, y, ky, h0, k0, h1, k1, h2, k2, h3, k3) = _tournament_rounds(
        lst, l, r, B, key, sentinel, slots)
    o = l
    try:
        if not (h0 is sentinel or h1 is sentinel or h2 is sentinel
                or h3 is sentinel):
            # The 4-way loop, while all four runs are live.  A winner stays
            # held until its side is refilled: a raising key or comparison
            # finds x and y pending, and the put-back overwrites lst[o].
            if key is None:
                for o in range(l, r):
                    if not y < x:
                        lst[o] = x
                        if not h1 < h0:
                            x = h0
                            h0 = next(i0)
                            if h0 is sentinel:
                                break
                        else:
                            x = h1
                            h1 = next(i1)
                            if h1 is sentinel:
                                break
                    elif not h3 < h2:
                        lst[o] = y
                        y = h2
                        h2 = next(i2)
                        if h2 is sentinel:
                            break
                    else:
                        lst[o] = y
                        y = h3
                        h3 = next(i3)
                        if h3 is sentinel:
                            break
                # Unkeyed, every held key is its element.
                kx, ky, k0, k1, k2, k3 = x, y, h0, h1, h2, h3
            else:
                for o in range(l, r):
                    if not ky < kx:
                        lst[o] = x
                        if not k1 < k0:
                            x, kx = h0, k0
                            h0 = next(i0)
                            if h0 is sentinel:
                                break
                            k0 = key(h0)
                        else:
                            x, kx = h1, k1
                            h1 = next(i1)
                            if h1 is sentinel:
                                break
                            k1 = key(h1)
                    elif not k3 < k2:
                        lst[o] = y
                        y, ky = h2, k2
                        h2 = next(i2)
                        if h2 is sentinel:
                            break
                        k2 = key(h2)
                    else:
                        lst[o] = y
                        y, ky = h3, k3
                        h3 = next(i3)
                        if h3 is sentinel:
                            break
                        k3 = key(h3)
            o += 1
        if not (h0 is sentinel or h1 is sentinel) and (
                h2 is not sentinel or h3 is not sentinel):
            # The 3-way loop, as in merge_tournament_no_sentinel.
            if h2 is sentinel:
                # Run 2 ended before run 3, which takes its slot.
                h2, k2, i2, u2 = h3, k3, i3, u3
                h3 = k3 = sentinel
                slots[2] = slots[3]
            rest = length_hint(u2)
            if key is None:
                for o in range(o, r):
                    if not y < x:
                        lst[o] = x
                        if not h1 < h0:
                            x = h0
                            h0 = next(i0)
                            if h0 is sentinel:
                                break
                        else:
                            x = h1
                            h1 = next(i1)
                            if h1 is sentinel:
                                break
                    else:
                        lst[o] = y
                        y = h2
                        h2 = next(i2)
                        if h2 is sentinel:
                            break
                kx, ky, k0, k1, k2 = x, y, h0, h1, h2
            else:
                for o in range(o, r):
                    if not ky < kx:
                        lst[o] = x
                        if not k1 < k0:
                            x, kx = h0, k0
                            h0 = next(i0)
                            if h0 is sentinel:
                                break
                            k0 = key(h0)
                        else:
                            x, kx = h1, k1
                            h1 = next(i1)
                            if h1 is sentinel:
                                break
                            k1 = key(h1)
                    else:
                        lst[o] = y
                        y, ky = h2, k2
                        h2 = next(i2)
                        if h2 is sentinel:
                            break
                        k2 = key(h2)
            o += 1
            # Each output from the right met the other right run's
            # sentinel and drew one head, the sentinel included.
            met += rest - length_hint(u2)
    except BaseException:
        _put_back_tree(lst, r, B, sentinel, (x, y), (h0, h1, h2, h3), slots)
        raise
    met += _tournament_rounds(lst, o, r, B, key, sentinel, slots, (
        x, kx, y, ky, h0, k0, h1, k1, h2, k2, h3, k3))
    # Two decisions draw the first winners, and every output takes one at
    # the root and, but for the last, one to refill its side.
    stats.comparisons += 2 * n + 1 - met
    _count_copy_all(stats, n, len(bounds) - 1)
    if len(bounds) == 4:
        stats.merges3 += 1
    else:
        stats.merges4 += 1


def merge_tournament_no_sentinel(lst, bounds, B, key, stats):
    """Merge the 3 or 4 sorted regions between ``bounds`` in place through
    the sentinel-free tournament of the module docstring: the decisions of
    ``merge_tournament``, in its order, with the runs buffered back to back.

    Each refill in the 4- and 3-way loops is ``try: h = next(it)``, whose
    ``except StopIteration`` leaves the loop when the run ends.  From
    CPython 3.11 on, a ``try`` costs nothing until it catches; on 3.10 each
    refill also executes a ``SETUP_FINALLY``, so the kernel runs correctly
    there, but more slowly.
    """
    _check_regions(lst, bounds, (3, 4))
    l, r = bounds[0], bounds[-1]
    n = r - l
    _check_buffer(B, n)
    _copy(B, 0, lst, l, r)
    marker = object()  # the head of an exhausted run
    # Each run's (islice, the list iterator placed under it, end) in B.
    slots = []
    for b, e in zip(bounds, bounds[1:]):
        it = iter(B)
        it.__setstate__(b - l)
        slots.append((islice(it, e - b), it, e - l))
    if len(slots) == 3:
        slots.append((iter(()), None, 0))  # the empty fourth run
    (i0, _, _), (i1, _, _), (i2, u2, _), (i3, u3, _) = slots
    # met: decisions met by an exhausted run, without a comparison.
    met, (x, kx, y, ky, h0, k0, h1, k1, h2, k2, h3, k3) = _tournament_rounds(
        lst, l, r, B, key, marker, slots)
    o = l
    try:
        if not (h0 is marker or h1 is marker or h2 is marker or h3 is marker):
            # The 4-way loop, while all four runs are live.  A winner stays
            # held until its side is refilled: a raising key or comparison
            # finds x and y pending, and the put-back overwrites lst[o].
            if key is None:
                for o in range(l, r):
                    if not y < x:
                        lst[o] = x
                        if not h1 < h0:
                            x = h0
                            try:
                                h0 = next(i0)
                            except StopIteration:
                                h0 = marker
                                break
                        else:
                            x = h1
                            try:
                                h1 = next(i1)
                            except StopIteration:
                                h1 = marker
                                break
                    elif not h3 < h2:
                        lst[o] = y
                        y = h2
                        try:
                            h2 = next(i2)
                        except StopIteration:
                            h2 = marker
                            break
                    else:
                        lst[o] = y
                        y = h3
                        try:
                            h3 = next(i3)
                        except StopIteration:
                            h3 = marker
                            break
                # Unkeyed, every held key is its element.
                kx, ky, k0, k1, k2, k3 = x, y, h0, h1, h2, h3
            else:
                for o in range(l, r):
                    if not ky < kx:
                        lst[o] = x
                        if not k1 < k0:
                            x, kx = h0, k0
                            try:
                                h0 = next(i0)
                            except StopIteration:
                                h0 = k0 = marker
                                break
                            k0 = key(h0)
                        else:
                            x, kx = h1, k1
                            try:
                                h1 = next(i1)
                            except StopIteration:
                                h1 = k1 = marker
                                break
                            k1 = key(h1)
                    elif not k3 < k2:
                        lst[o] = y
                        y, ky = h2, k2
                        try:
                            h2 = next(i2)
                        except StopIteration:
                            h2 = k2 = marker
                            break
                        k2 = key(h2)
                    else:
                        lst[o] = y
                        y, ky = h3, k3
                        try:
                            h3 = next(i3)
                        except StopIteration:
                            h3 = k3 = marker
                            break
                        k3 = key(h3)
            o += 1
        if not (h0 is marker or h1 is marker) and (
                h2 is not marker or h3 is not marker):
            # The 3-way loop: runs 0 and 1 on the left, one run on the
            # right, whose head refills y without a comparison.
            if h2 is marker:
                # Run 2 ended before run 3, which takes its slot.
                h2, k2, i2, u2 = h3, k3, i3, u3
                h3 = k3 = marker
                slots[2] = slots[3]
            rest = length_hint(u2)
            if key is None:
                for o in range(o, r):
                    if not y < x:
                        lst[o] = x
                        if not h1 < h0:
                            x = h0
                            try:
                                h0 = next(i0)
                            except StopIteration:
                                h0 = marker
                                break
                        else:
                            x = h1
                            try:
                                h1 = next(i1)
                            except StopIteration:
                                h1 = marker
                                break
                    else:
                        lst[o] = y
                        y = h2
                        try:
                            h2 = next(i2)
                        except StopIteration:
                            h2 = marker
                            break
                kx, ky, k0, k1, k2 = x, y, h0, h1, h2
            else:
                for o in range(o, r):
                    if not ky < kx:
                        lst[o] = x
                        if not k1 < k0:
                            x, kx = h0, k0
                            try:
                                h0 = next(i0)
                            except StopIteration:
                                h0 = k0 = marker
                                break
                            k0 = key(h0)
                        else:
                            x, kx = h1, k1
                            try:
                                h1 = next(i1)
                            except StopIteration:
                                h1 = k1 = marker
                                break
                            k1 = key(h1)
                    else:
                        lst[o] = y
                        y, ky = h2, k2
                        try:
                            h2 = next(i2)
                        except StopIteration:
                            h2 = k2 = marker
                            break
                        k2 = key(h2)
            o += 1
            # Each output from the right took its run's head: one draw
            # each, the last one failed if that run ended.
            met += rest - length_hint(u2) + (h2 is marker)
    except BaseException:
        _put_back_tree(lst, r, B, marker, (x, y), (h0, h1, h2, h3), slots)
        raise
    met += _tournament_rounds(lst, o, r, B, key, marker, slots, (
        x, kx, y, ky, h0, k0, h1, k1, h2, k2, h3, k3))
    stats.comparisons += 2 * n + 1 - met  # as in merge_tournament
    _count_copy_all(stats, n, 0)
    if len(bounds) == 4:
        stats.merges3 += 1
    else:
        stats.merges4 += 1
