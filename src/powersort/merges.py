"""Stable merge kernels.

Every kernel takes ``(lst, bounds, B, key, stats)``.  It merges the w
adjacent sorted runs [b0, b1), .., [b_{w-1}, end) of ``lst``, given by
``bounds = (b0, .., b_{w-1}, end)``, in place through the scratch list
``B``, which needs the merge's length plus a slot per run, and tallies
costs into the SortStats ``stats``.  Every decision is an inline ``<=``
on two held locals.  Without a key (``key is None``) they are the
elements themselves.  With one, a kernel calls the key once on each
element when it loads it into a local and keeps the key beside the
element.  Every kernel chooses its hot loop once per merge, by ``key is
None``: the unkeyed loop compares the elements and holds no keys, and the
keyed loop calls the key on each element it loads, without testing for a
key.  Each kernel adds the number of comparisons it executed to
``stats.comparisons`` once per call, derived from its loop structure.
Ties always go to the run with the lower start index -- "at or before" at
every decision point, with the lower-indexed run on the left -- which is
what makes each kernel stable.

The sentinel kernels make a fresh sentinel, ``object()``, per call and
place it after each buffered run.  No caller can hold it, so no input
value is reserved: an element that sorts after every other is keyed and
compared like any other.  They read each buffered run through a list
iterator placed at the run's start with ``__setstate__``, and load the
next head with ``next()``, so a step moves no cursor.  A run's cursor
(the buffer index of its head) is read only for the 2-way tail copy and
the put-back after a failure, as ``len(B) - 1 - length_hint(it)``.

Five buffer strategies:

* ``merge_2way_sentinel``      -- copy both runs out, sentinel after each;
                                  a step learns that its run is exhausted
                                  from the head it reads next.
* ``merge_2way_no_sentinel``   -- copy both runs out; a step checks the
                                  cursor it moved against its run's end.
* ``merge_2way_copy_smaller``  -- copy only the smaller run out and merge
                                  into the gap.  Forward, the same loop as
                                  ``merge_2way_no_sentinel`` reads the right
                                  run in place; backward, a mirrored loop,
                                  when the right run is the smaller one.
* ``merge_tournament``         -- one winner tournament tree over 3 or 4
                                  runs, sentinel after each buffered run.
* ``merge_stages``             -- sentinel-free 3- or 4-way merge that runs
                                  min-remaining-length unchecked iterations
                                  per stage and narrows as runs exhaust.

The 2-way kernels hold both run heads in locals and test only the run a
step took from.  Once one run is exhausted, the rest of the other is
put back.  Every copy-out into B and every put-back goes through
``_copy``, ``_CHUNK`` elements per slice, so a merge's scratch memory is
B plus a chunk or two, whatever its runs' lengths.

The tournament tree holds values.  The heads h0..h3 of the four runs are
locals; x, the winner of runs 0 and 1, and y, of runs 2 and 3, are already
taken from their runs.  The root outputs the smaller of x and y and
refills that side from its two heads.  A 3-way merge is the same tree with
an empty fourth run, whose head is run 2's sentinel slot.  A sentinel sorts
after every element and loses each decision without a comparison; such a
decision is not counted.  A head is tested for the sentinel with ``is``
before it is keyed, so a sentinel slot is never keyed.  While runs 0-2 are
nonempty, only run 3's head can be a sentinel, so the fast phase tests
only that head and the head it just refilled.  After that, every decision
tests both its sides for the sentinel with ``is`` before it compares.
Outside the fast phase the tree holds a key beside each head and winner;
without a key, that key is the element itself.

The staged merger's tree holds values the same way, without sentinels:
the heads h0..h3, the winners x and y with the runs they came from, their
keys, and the cursors are locals.  A stage runs as many rounds as the
shortest run has elements left, so no round checks a cursor; a head read
ahead may lie one slot past its run (it is keyed, but not compared before
the stage ends).  Each round decides the root at its top, outputs the
winner and refills that side; the unkeyed rounds hold no keys, and each
held key is set to its element after them.  At the stage's end the root
is decided once more and output, the loser, with its key, rolled back
into its run, and the tree is rebuilt from the held heads at the same
width, or the merge narrows and the narrower tree keys its heads again.

If the key or ``<=`` raises, every kernel writes the elements it has taken
out and not yet output back into the merge region before the exception
propagates, so the list stays a permutation of its input.
"""

from __future__ import annotations

from operator import length_hint

#: Diagnostic counter: number of times the staged merger rolled an element
#: back into the run that had just run dry and had to replay a round at the
#: same width.  Tests use this to pin coverage of that path; it has no
#: behavioral effect.
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

    C may be lst itself, with its run ending where the output does: the
    output stays behind that run's cursor, and its rest is already in
    place."""
    r = o + (e1 - c1) + (e2 - c2)
    start = o
    a = A[c1]
    b = C[c2]
    try:
        if key is None:
            for o in range(o, r):
                if a <= b:
                    lst[o] = a
                    c1 += 1
                    if c1 == e1:
                        break
                    a = A[c1]
                else:
                    lst[o] = b
                    c2 += 1
                    if c2 == e2:
                        break
                    b = C[c2]
        else:
            ka = key(a)
            kb = key(b)
            for o in range(o, r):
                if ka <= kb:
                    lst[o] = a
                    c1 += 1
                    if c1 == e1:
                        break
                    a = A[c1]
                    ka = key(a)
                else:
                    lst[o] = b
                    c2 += 1
                    if c2 == e2:
                        break
                    b = C[c2]
                    kb = key(b)
    finally:
        # The surviving run's rest, or after a failure both rests; in lst,
        # C's rest is already in place, from c2 to r.
        if C is lst and r <= len(lst):
            _put_back(lst, c2, ((A, c1, e1),))
        else:
            _put_back(lst, r, ((A, c1, e1), (C, c2, e2)))
    stats.comparisons += o + 1 - start  # one per output before the tail copy
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
                if a <= b:
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
                if ka <= kb:
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
    backward merge taking the larger element, right wins ties -- the mirror
    image of the forward rule -- so the global tie order is unchanged.
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
        c1, c2 = m - 1, n2 - 1
        a = lst[c1]
        b = B[c2]
        try:
            if key is None:
                for o in range(r - 1, l - 1, -1):
                    if a <= b:
                        lst[o] = b
                        c2 -= 1
                        if c2 < 0:
                            break
                        b = B[c2]
                    else:
                        lst[o] = a
                        c1 -= 1
                        if c1 < l:
                            break
                        a = lst[c1]
            else:
                ka = key(a)
                kb = key(b)
                for o in range(r - 1, l - 1, -1):
                    if ka <= kb:
                        lst[o] = b
                        c2 -= 1
                        if c2 < 0:
                            break
                        b = B[c2]
                        kb = key(b)
                    else:
                        lst[o] = a
                        c1 -= 1
                        if c1 < l:
                            break
                        a = lst[c1]
                        ka = key(a)
        finally:
            # The right run's rest fills the gap after the left run's rest,
            # which is already in place.
            _put_back(lst, c1 + 2 + c2, ((B, 0, c2 + 1),))
        outputs = r - o
        stats.comparisons += outputs  # one per output before the tail copy
        written = outputs + (c2 + 1)
    copied = min(n1, n2)
    stats.merge_cost += n
    stats.buffer_cost += copied
    stats.moves += copied + written
    stats.scan_reads += copied + written
    stats.scan_writes += copied + written
    stats.merges2 += 1


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
    i0 = iter(B)
    i1 = iter(B)
    i1.__setstate__(ends[0] + 1)
    i2 = iter(B)
    i2.__setstate__(ends[1] + 1)
    i3 = iter(B)
    if len(ends) == 3:
        # The empty fourth run starts and ends at run 2's sentinel slot.
        ends.append(end)
        i3.__setstate__(end)
    else:
        i3.__setstate__(ends[2] + 1)
    h0, h1, h2, h3 = next(i0), next(i1), next(i2), next(i3)
    # A sentinel winner is an exhausted side, or one not drawn yet.
    x = y = kx = ky = sentinel
    met = 0  # decisions met by a sentinel, without a comparison
    z = None  # the side of the last output: True left; None draws both
    o = l
    try:
        # Runs 0-2 are nonempty; run 3 is empty in a 3-way merge.
        if key is None:
            k0, k1, k2, k3 = h0, h1, h2, h3
        else:
            k0, k1, k2 = key(h0), key(h1), key(h2)
            k3 = h3 if h3 is sentinel else key(h3)
        while True:
            if z is not False:
                # Draw the left winner; run 0 wins ties.
                if h0 is sentinel or h1 is sentinel:
                    met += 1
                    first = h1 is sentinel
                else:
                    first = k0 <= k1
                if not first:
                    x, kx = h1, k1
                    h1 = next(i1)
                    k1 = h1 if key is None or h1 is sentinel else key(h1)
                elif h0 is not sentinel:
                    x, kx = h0, k0
                    h0 = next(i0)
                    k0 = h0 if key is None or h0 is sentinel else key(h0)
            if z is not True:
                # Draw the right winner; run 2 wins ties.
                if h2 is sentinel or h3 is sentinel:
                    met += 1
                    first = h3 is sentinel
                else:
                    first = k2 <= k3
                if not first:
                    y, ky = h3, k3
                    h3 = next(i3)
                    k3 = h3 if key is None or h3 is sentinel else key(h3)
                elif h2 is not sentinel:
                    y, ky = h2, k2
                    h2 = next(i2)
                    k2 = h2 if key is None or h2 is sentinel else key(h2)
            if z is None and not (
                h0 is sentinel or h1 is sentinel or h2 is sentinel
            ):
                # Fast phase, while runs 0-2 are nonempty.  A winner is
                # output only once its side is refilled, so a raising key
                # or comparison finds both x and y pending.
                if key is None:
                    for o in range(l, r):
                        if x <= y:
                            if h0 <= h1:
                                lst[o] = x
                                x = h0
                                h0 = next(i0)
                                if h0 is sentinel:
                                    break
                            else:
                                lst[o] = x
                                x = h1
                                h1 = next(i1)
                                if h1 is sentinel:
                                    break
                        elif h3 is not sentinel and not h2 <= h3:
                            lst[o] = y
                            y = h3
                            h3 = next(i3)
                        else:
                            if h3 is sentinel:
                                met += 1
                            lst[o] = y
                            y = h2
                            h2 = next(i2)
                            if h2 is sentinel:
                                break
                    # Unkeyed, every held key is its element.
                    kx, ky, k0, k1, k2, k3 = x, y, h0, h1, h2, h3
                else:
                    for o in range(l, r):
                        if kx <= ky:
                            if k0 <= k1:
                                lst[o] = x
                                x, kx = h0, k0
                                h0 = next(i0)
                                if h0 is sentinel:
                                    break
                                k0 = key(h0)
                            else:
                                lst[o] = x
                                x, kx = h1, k1
                                h1 = next(i1)
                                if h1 is sentinel:
                                    break
                                k1 = key(h1)
                        elif h3 is not sentinel and not k2 <= k3:
                            lst[o] = y
                            y, ky = h3, k3
                            h3 = next(i3)
                            k3 = h3 if h3 is sentinel else key(h3)
                        else:
                            if h3 is sentinel:
                                met += 1
                            lst[o] = y
                            y, ky = h2, k2
                            h2 = next(i2)
                            if h2 is sentinel:
                                break
                            k2 = key(h2)
                o += 1
            # The root; both sides are exhausted only after the last output.
            if x is sentinel or y is sentinel:
                met += 1
                z = y is sentinel
            else:
                z = kx <= ky
            if z:
                lst[o] = x
                x = sentinel
            else:
                lst[o] = y
                y = sentinel
            o += 1
            if o == r:
                break
    except BaseException:
        pending = [v for v in (x, y) if v is not sentinel]
        rests = [(B, _cursor(B, it), end)
                 for it, end in zip((i0, i1, i2, i3), ends)]
        _put_back(lst, r, [(pending, 0, len(pending))] + rests)
        raise
    # Two decisions draw the first winners, and every output takes one at
    # the root and, but for the last, one to refill its side.
    stats.comparisons += 2 * n + 1 - met
    _count_copy_all(stats, n, len(bounds) - 1)
    if len(bounds) == 4:
        stats.merges3 += 1
    else:
        stats.merges4 += 1


def merge_stages(lst, bounds, B, key, stats):
    """Sentinel-free 3- or 4-way merge of the regions between ``bounds``,
    working in stages.

    All runs are buffered, plus a guard slot.  Each stage runs
    ``min(remaining lengths)`` rounds without exhaustion checks; then the
    root is output, the loser rolled back into its run, exhausted runs are
    dropped, and merging continues 4- to 3- to 2-way.
    """
    _check_regions(lst, bounds, (3, 4))
    l, r = bounds[0], bounds[-1]
    n = r - l
    _check_buffer(B, n + 1)
    _copy(B, 0, lst, l, r)
    # Guard slot: a stage reads refilled heads ahead, up to one slot past
    # their run.  Past the last run it reads this copy, never compared.
    B[n] = B[n - 1]
    es = [b - l for b in bounds]
    cs = es[:-1]
    del es[0]
    out = l
    while True:
        # Drop exhausted runs; several can empty at the same boundary.
        i = 0
        while i < len(cs):
            if cs[i] == es[i]:
                del cs[i]
                del es[i]
            else:
                i += 1
        width = len(cs)
        if width == 0:
            break
        if width == 1:
            _put_back(lst, r, ((B, cs[0], es[0]),))
            out = r
            break
        if width == 2:
            _merge_runs(
                lst, out, B, cs[0], es[0], B, cs[1], es[1], key, stats)
            out = r
            break
        out = _stage_tournament(lst, out, r, B, cs, es, key, stats)
    assert out == r
    _count_copy_all(stats, n, 1)
    stats.moves += 1  # the guard slot
    if len(bounds) == 4:
        stats.merges3 += 1
    else:
        stats.merges4 += 1


def _stage_tournament(lst, out, r, B, cs, es, key, stats):
    """Tournament stages over the 3 or 4 runs in cs/es, output from out on.

    Returns the output position once some run is exhausted, with the
    cursors written back to cs; the caller drops empty runs and merges
    narrower.  If the key or ``<=`` raises, the held winners and the runs'
    rests go back to the end of the merge region [.., r).  A stage counts
    one comparison per pair its build compares and one for the root it
    decides at its end; a round counts one for the root, decided at its
    top, and one in the refill, except a 3-way refill from the right.
    """
    global nasty_rebuilds
    four = len(cs) == 4
    # A 3-way merge's run 3 never limits or ends a stage, nor is compared.
    c0, c1, c2, c3 = cs if four else cs + [0]
    e0, e1, e2, e3 = es if four else es + [len(B)]
    x = y = empty = object()  # a winner not held in the tree
    comparisons = 0
    try:
        h0, h1, h2, h3 = B[c0], B[c1], B[c2], B[c3]
        if key is None:
            k0, k1, k2, k3 = h0, h1, h2, h3
        else:
            k0, k1, k2 = key(h0), key(h1), key(h2)
            k3 = key(h3) if four else h3
        while True:
            # Build the tree: draw both winners.  The root is decided at
            # the top of each round, and once more at the stage's end.
            if k0 <= k1:
                x, kx, xr = h0, k0, 0
                c0 += 1
                h0 = B[c0]
                k0 = h0 if key is None else key(h0)
            else:
                x, kx, xr = h1, k1, 1
                c1 += 1
                h1 = B[c1]
                k1 = h1 if key is None else key(h1)
            if four and not k2 <= k3:
                y, ky, yr = h3, k3, 3
                c3 += 1
                h3 = B[c3]
                k3 = h3 if key is None else key(h3)
            else:
                y, ky, yr = h2, k2, 2
                c2 += 1
                h2 = B[c2]
                k2 = h2 if key is None else key(h2)
            comparisons += 3 if four else 2  # with the stage-end root
            while True:
                safe = min(e0 - c0, e1 - c1, e2 - c2, e3 - c3)
                if not safe:
                    break
                left_fetched = c0 + c1
                # `safe` rounds keep every cursor in its run.  A winner is
                # output after its side's refill, so x and y stay held.
                if key is None:
                    for out in range(out, out + safe):
                        if x <= y:
                            if h0 <= h1:
                                lst[out] = x
                                x, xr = h0, 0
                                c0 += 1
                                h0 = B[c0]
                            else:
                                lst[out] = x
                                x, xr = h1, 1
                                c1 += 1
                                h1 = B[c1]
                        elif four and not h2 <= h3:
                            lst[out] = y
                            y, yr = h3, 3
                            c3 += 1
                            h3 = B[c3]
                        else:
                            lst[out] = y
                            y, yr = h2, 2
                            c2 += 1
                            h2 = B[c2]
                    # Unkeyed, every held key is its element.
                    kx, ky, k0, k1, k2, k3 = x, y, h0, h1, h2, h3
                else:
                    for out in range(out, out + safe):
                        if kx <= ky:
                            if k0 <= k1:
                                lst[out] = x
                                x, kx, xr = h0, k0, 0
                                c0 += 1
                                h0 = B[c0]
                                k0 = key(h0)
                            else:
                                lst[out] = x
                                x, kx, xr = h1, k1, 1
                                c1 += 1
                                h1 = B[c1]
                                k1 = key(h1)
                        elif four and not k2 <= k3:
                            lst[out] = y
                            y, ky, yr = h3, k3, 3
                            c3 += 1
                            h3 = B[c3]
                            k3 = key(h3)
                        else:
                            lst[out] = y
                            y, ky, yr = h2, k2, 2
                            c2 += 1
                            h2 = B[c2]
                            k2 = key(h2)
                out += 1
                # Each left refill moved exactly one of c0, c1 on.
                comparisons += (
                    2 * safe if four else safe + c0 + c1 - left_fetched)
            # A run is used up.  Decide the root, output it and roll the
            # loser back into its run, with its key, which leaves the tree
            # empty.
            if kx <= ky:
                lst[out] = x
                if yr == 2:
                    c2 -= 1
                    h2, k2 = y, ky
                else:
                    c3 -= 1
                    h3, k3 = y, ky
            else:
                lst[out] = y
                if xr == 0:
                    c0 -= 1
                    h0, k0 = x, kx
                else:
                    c1 -= 1
                    h1, k1 = x, kx
            out += 1
            x = y = empty
            if c0 == e0 or c1 == e1 or c2 == e2 or c3 == e3:
                break
            # The loser went back into the run that ran dry: rebuild.
            nasty_rebuilds += 1
    except BaseException:
        held = [v for v in (x, y) if v is not empty]
        _put_back(lst, r, ((held, 0, len(held)), (B, c0, e0), (B, c1, e1),
                           (B, c2, e2), (B, c3, e3 if four else c3)))
        raise
    cs[:] = (c0, c1, c2, c3)[: len(cs)]
    stats.comparisons += comparisons
    return out
