"""Stable merge kernels.

All kernels merge adjacent sorted regions of a list in place through an
external buffer and tally costs into a SortStats.  Element comparisons go
through the uncounted predicate ``order.compare``; each kernel adds the
number it executed to ``order.comparisons`` once per call, derived from its
loop structure where that gives it.  Ties always go to the run with the
lower start index -- "at or before" at every decision point, with the
lower-indexed run on the left -- which is what makes each kernel stable.

Five buffer strategies:

* ``merge_2way_sentinel``      -- copy both runs out, sentinel after each;
                                  a step learns that its run is exhausted
                                  from the head it reads next.
* ``merge_2way_no_sentinel``   -- copy both runs out; a step checks the
                                  cursor it moved against its run's end.
* ``merge_2way_copy_smaller``  -- copy only the smaller run out and merge
                                  into the gap; backward when the right run
                                  is the smaller one.
* ``merge_3way`` / ``merge_4way_sentinel``
                               -- one winner tournament tree over four
                                  runs, sentinel after each buffered run.
* ``merge_4way_stages``        -- sentinel-free multiway merge that runs
                                  min-remaining-length unchecked iterations
                                  per stage and narrows as runs exhaust.

The 2-way kernels hold both run heads in locals and test only the run a
step took from.  Once one run is exhausted, the rest of the other is
copied with one slice assignment.

The tournament tree holds values.  The heads h0..h3 of the four runs are
locals; x, the winner of runs 0 and 1, and y, of runs 2 and 3, are already
taken from their runs.  The root outputs the smaller of x and y and
refills that side from its two heads.  A 3-way merge is the same tree with
an empty fourth run, whose head is run 2's sentinel slot.  A sentinel sorts
after every element and loses each decision without a call to ``compare``;
such a decision is not counted.  While runs 0-2 are nonempty, only run 3's
head can be a sentinel, so the fast phase tests only that head and the
head it just refilled.  After that, every decision tests both its sides
for ``SENTINEL`` with ``is`` before it compares.

If ``compare`` raises, the 2-way and tournament kernels write every element
they have taken out and not yet output back into the merge region before
the exception propagates, so the list stays a permutation of its input.
The staged merger's tournament does not.
"""

from __future__ import annotations

from .statskit import SENTINEL

#: Diagnostic counter: number of times the staged merger rolled an element
#: back into the run that had just run dry and had to replay a round at the
#: same width.  Tests use this to pin coverage of that path; it has no
#: behavioral effect.
nasty_rebuilds = 0


class MergeBuffer:
    """Scratch storage for merges.

    A capacity of n + k covers the largest merge output plus one reserved
    slot per run (sentinels, or the stage merger's guard slot).  Contents
    are scratch: nothing is guaranteed between merges.
    """

    __slots__ = ("data",)

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("buffer capacity must be positive")
        self.data = [None] * capacity

    @property
    def capacity(self):
        return len(self.data)


def _check_regions(lst, bounds, buf, need):
    if bounds[0] < 0 or bounds[-1] > len(lst):
        raise ValueError("merge bounds %r outside the array" % (bounds,))
    for a, b in zip(bounds, bounds[1:]):
        if a >= b:
            raise ValueError("empty merge region in bounds %r" % (bounds,))
    if buf.capacity < need:
        raise ValueError(
            "merge buffer too small: capacity %d, need %d" % (buf.capacity, need)
        )


def _count_copy_all(stats, n, reserved):
    """Tally a merge of n elements that buffered all of them and wrote
    ``reserved`` slots next to the buffered runs."""
    stats.merge_cost += n
    stats.buffer_cost += n
    stats.moves += 2 * n
    stats.scan_reads += 2 * n
    stats.scan_writes += 2 * n + reserved


def _put_back(lst, r, pieces):
    """Write the pieces, in order, to the end of the merge region [.., r).

    After a failure, the pieces are every element taken out and not yet
    output, and the output so far fills the region up to them.
    """
    for piece in reversed(pieces):
        lst[r - len(piece) : r] = piece
        r -= len(piece)


def _merge_runs(lst, o, B, c1, e1, c2, e2, order):
    """Merge the nonempty sorted runs B[c1:e1] and B[c2:e2] into lst from
    position o on, and return the position after the output."""
    r = o + (e1 - c1) + (e2 - c2)
    start = o
    compare = order.compare
    a = B[c1]
    b = B[c2]
    try:
        for o in range(o, r):
            if compare(a, b):
                lst[o] = a
                c1 += 1
                if c1 == e1:
                    break
                a = B[c1]
            else:
                lst[o] = b
                c2 += 1
                if c2 == e2:
                    break
                b = B[c2]
    finally:
        # The surviving run's rest, or after a failure both rests.
        _put_back(lst, r, (B[c1:e1], B[c2:e2]))
    order.comparisons += o + 1 - start  # one per output before the tail copy
    return r


def merge_2way_sentinel(lst, l, m, r, buf, order, stats):
    """Merge sorted [l, m) and [m, r) in place; both runs buffered with a
    sentinel appended, so a step needs no bounds check: it learns that its
    run is exhausted from the next head it reads."""
    _check_regions(lst, (l, m, r), buf, (r - l) + 2)
    n = r - l
    n1 = m - l
    B = buf.data
    B[0:n1] = lst[l:m]
    B[n1] = SENTINEL
    B[n1 + 1 : n + 1] = lst[m:r]
    B[n + 1] = SENTINEL
    compare = order.compare
    sentinel = SENTINEL
    c1, c2 = 0, n1 + 1
    a = B[c1]
    b = B[c2]
    try:
        for o in range(l, r):
            if compare(a, b):
                lst[o] = a
                c1 += 1
                a = B[c1]
                if a is sentinel:
                    break
            else:
                lst[o] = b
                c2 += 1
                b = B[c2]
                if b is sentinel:
                    break
    finally:
        # The surviving run's rest, or after a failure both rests.
        _put_back(lst, r, (B[c1:n1], B[c2 : n + 1]))
    # The rounds after the break would each have met a sentinel.
    order.comparisons += o + 1 - l
    _count_copy_all(stats, n, 2)
    stats.merges2 += 1


def merge_2way_no_sentinel(lst, l, m, r, buf, order, stats):
    """Like merge_2way_sentinel, but with explicit bounds checks instead of
    reserved values.  Output and move counts are identical."""
    _check_regions(lst, (l, m, r), buf, r - l)
    n = r - l
    n1 = m - l
    B = buf.data
    B[0:n] = lst[l:r]
    _merge_runs(lst, l, B, 0, n1, n1, n, order)
    _count_copy_all(stats, n, 0)
    stats.merges2 += 1


def merge_2way_copy_smaller(lst, l, m, r, buf, order, stats):
    """Copy only the smaller run to the buffer and merge into the gap.

    Left run smaller: forward merge, left wins ties.  Right run smaller:
    backward merge taking the larger element, right wins ties -- the mirror
    image of the forward rule -- so the global tie order is unchanged.
    """
    n1 = m - l
    n2 = r - m
    _check_regions(lst, (l, m, r), buf, min(n1, n2))
    n = r - l
    B = buf.data
    compare = order.compare
    if n1 <= n2:
        B[0:n1] = lst[l:m]
        c1, c2 = 0, m
        a = B[0]
        b = lst[m]
        try:
            for o in range(l, r):
                if compare(a, b):
                    lst[o] = a
                    c1 += 1
                    if c1 == n1:
                        break
                    a = B[c1]
                else:
                    lst[o] = b
                    c2 += 1
                    if c2 == r:
                        break
                    b = lst[c2]
        finally:
            # The left run's rest fills the gap before the right run's
            # rest, which is already in place.
            lst[c2 - (n1 - c1) : c2] = B[c1:n1]
        outputs = o + 1 - l
        written = outputs + (n1 - c1)
    else:
        B[0:n2] = lst[m:r]
        c1, c2 = m - 1, n2 - 1
        a = lst[c1]
        b = B[c2]
        try:
            for o in range(r - 1, l - 1, -1):
                if compare(a, b):
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
        finally:
            # The right run's rest fills the gap after the left run's rest,
            # which is already in place.
            lst[c1 + 1 : c1 + 2 + c2] = B[0 : c2 + 1]
        outputs = r - o
        written = outputs + (c2 + 1)
    order.comparisons += outputs  # one per output before the tail copy
    copied = min(n1, n2)
    stats.merge_cost += n
    stats.buffer_cost += copied
    stats.moves += copied + written
    stats.scan_reads += copied + written
    stats.scan_writes += copied + written
    stats.merges2 += 1


def merge_4way_sentinel(lst, l, g1, g2, g3, r, buf, order, stats):
    """Merge sorted [l,g1), [g1,g2), [g2,g3), [g3,r) in place via a winner
    tournament tree, with a sentinel after each buffered run."""
    _check_regions(lst, (l, g1, g2, g3, r), buf, (r - l) + 4)
    _tournament(lst, (l, g1, g2, g3, r), buf.data, order, stats)
    stats.merges4 += 1


def merge_3way(lst, l, g1, g2, r, buf, order, stats):
    """Merge sorted [l,g1), [g1,g2), [g2,r) in place: the tournament of
    merge_4way_sentinel with an empty fourth run."""
    _check_regions(lst, (l, g1, g2, r), buf, (r - l) + 3)
    _tournament(lst, (l, g1, g2, r), buf.data, order, stats)
    stats.merges3 += 1


def _tournament(lst, bounds, B, order, stats):
    """Merge the 3 or 4 sorted regions between ``bounds`` in place through
    the tournament tree described in the module docstring."""
    l = bounds[0]
    r = bounds[-1]
    n = r - l
    # Run i goes to B[starts[i]:ends[i]], its sentinel to B[ends[i]].
    starts = [b - l + i for i, b in enumerate(bounds[:-1])]
    ends = [b - l + i for i, b in enumerate(bounds[1:])]
    for i, end in enumerate(ends):
        B[starts[i] : end] = lst[bounds[i] : bounds[i + 1]]
        B[end] = SENTINEL
    if len(ends) == 3:
        # The empty fourth run starts and ends at run 2's sentinel slot.
        starts.append(ends[2])
        ends.append(ends[2])
    c0, c1, c2, c3 = starts
    e0, e1, e2, e3 = ends
    h0, h1, h2, h3 = B[c0], B[c1], B[c2], B[c3]
    compare = order.compare
    sentinel = SENTINEL
    # A sentinel winner is an exhausted side, or one not drawn yet.
    x = y = sentinel
    met = 0  # decisions met by a sentinel, without compare
    z = None  # the side of the last output: True left; None draws both
    o = l
    try:
        while True:
            if z is not False:
                # Draw the left winner; run 0 wins ties.
                if h0 is sentinel or h1 is sentinel:
                    met += 1
                    first = h1 is sentinel
                else:
                    first = compare(h0, h1)
                if not first:
                    x = h1
                    c1 += 1
                    h1 = B[c1]
                elif h0 is not sentinel:
                    x = h0
                    c0 += 1
                    h0 = B[c0]
            if z is not True:
                # Draw the right winner; run 2 wins ties.
                if h2 is sentinel or h3 is sentinel:
                    met += 1
                    first = h3 is sentinel
                else:
                    first = compare(h2, h3)
                if not first:
                    y = h3
                    c3 += 1
                    h3 = B[c3]
                elif h2 is not sentinel:
                    y = h2
                    c2 += 1
                    h2 = B[c2]
            if z is None and not (
                h0 is sentinel or h1 is sentinel or h2 is sentinel
            ):
                # Fast phase, while runs 0-2 are nonempty.  A winner is
                # output only once its side is refilled, so a raising
                # compare finds both x and y pending.
                for o in range(l, r):
                    if compare(x, y):
                        if compare(h0, h1):
                            lst[o] = x
                            x = h0
                            c0 += 1
                            h0 = B[c0]
                            if h0 is sentinel:
                                break
                        else:
                            lst[o] = x
                            x = h1
                            c1 += 1
                            h1 = B[c1]
                            if h1 is sentinel:
                                break
                    elif h3 is not sentinel and not compare(h2, h3):
                        lst[o] = y
                        y = h3
                        c3 += 1
                        h3 = B[c3]
                    else:
                        if h3 is sentinel:
                            met += 1
                        lst[o] = y
                        y = h2
                        c2 += 1
                        h2 = B[c2]
                        if h2 is sentinel:
                            break
                o += 1
            # The root; both sides are exhausted only after the last output.
            if x is sentinel or y is sentinel:
                met += 1
                z = y is sentinel
            else:
                z = compare(x, y)
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
        _put_back(lst, r, (pending, B[c0:e0], B[c1:e1], B[c2:e2], B[c3:e3]))
        raise
    # Two decisions draw the first winners, and every output takes one at
    # the root and, but for the last, one to refill its side.
    order.comparisons += 2 * n + 1 - met
    _count_copy_all(stats, n, len(bounds) - 1)


def merge_4way_stages(lst, l, g1, g2, g3, r, buf, order, stats):
    """Sentinel-free 4-way merge, working in stages.

    All four runs are buffered; one extra slot past the buffered data
    duplicates the last element so that cursor reads at region ends stay
    defined -- it is never consulted as a sentinel.  Each stage runs
    ``min(remaining lengths)`` iterations without any exhaustion checks;
    when that bound hits zero the tree is unwound, the losing element is
    rolled back into its run, exhausted runs are dropped, and merging
    continues 4- to 3- to 2-way.
    """
    _check_regions(lst, (l, g1, g2, g3, r), buf, (r - l) + 1)
    _merge_stages(lst, (l, g1, g2, g3, r), buf, order, stats)
    stats.merges4 += 1


def merge_3way_stages(lst, l, g1, g2, r, buf, order, stats):
    """Sentinel-free 3-way merge by stages; see merge_4way_stages."""
    _check_regions(lst, (l, g1, g2, r), buf, (r - l) + 1)
    _merge_stages(lst, (l, g1, g2, r), buf, order, stats)
    stats.merges3 += 1


def _merge_stages(lst, bounds, buf, order, stats):
    l = bounds[0]
    r = bounds[-1]
    n = r - l
    B = buf.data
    B[0:n] = lst[l:r]
    # Guard slot mirroring the last element.  Defensive only: the stage
    # bookkeeping keeps every read inside its run, and the slot is never
    # consulted as a sentinel.
    B[n] = B[n - 1]
    cs = [b - l for b in bounds[:-1]]
    es = [b - l for b in bounds[1:]]
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
            c, e = cs[0], es[0]
            lst[out : out + (e - c)] = B[c:e]
            out += e - c
            break
        if width == 2:
            out = _merge_runs(lst, out, B, cs[0], es[0], cs[1], es[1], order)
            break
        out = _stage_tournament(lst, out, B, cs, es, order)
    assert out == r
    _count_copy_all(stats, n, 1)
    stats.moves += 1  # the guard slot


def _stage_tournament(lst, out, B, cs, es, order):
    """Tournament stages over the 3 or 4 runs in cs/es.

    Returns the new output position as soon as some run is truly exhausted
    (its cursor at its end with no element of it left in the tree), at
    which point the caller drops empty runs and dispatches a narrower merge.
    Cursors in cs are consumed as elements enter the tree; a rolled-back
    element is returned by decrementing its run's cursor.

    The comparisons are counted from the rounds: a tree build takes one per
    compared pair and one at the root, and every round takes one at the
    root plus one in the refill, except a 3-way refill from the right.
    """
    global nasty_rebuilds
    compare = order.compare
    four = len(cs) == 4
    per_build = 3 if four else 2
    comparisons = per_build

    def fetch_left():
        a, b = cs[0], cs[1]
        if compare(B[a], B[b]):
            cs[0] = a + 1
            return a, 0
        cs[1] = b + 1
        return b, 1

    if four:

        def fetch_right():
            a, b = cs[2], cs[3]
            if compare(B[a], B[b]):
                cs[2] = a + 1
                return a, 2
            cs[3] = b + 1
            return b, 3

    else:

        def fetch_right():
            a = cs[2]
            cs[2] = a + 1
            return a, 2

    x_pos, x_run = fetch_left()
    y_pos, y_run = fetch_right()
    z_left = compare(B[x_pos], B[y_pos])
    while True:
        safe = min(es[i] - cs[i] for i in range(len(cs)))
        if safe > 0:
            left_fetched = cs[0] + cs[1]
            # No cursor can leave its run within `safe` unchecked rounds.
            for _ in range(safe):
                if z_left:
                    lst[out] = B[x_pos]
                    out += 1
                    x_pos, x_run = fetch_left()
                else:
                    lst[out] = B[y_pos]
                    out += 1
                    y_pos, y_run = fetch_right()
                z_left = compare(B[x_pos], B[y_pos])
            # Each left refill moved exactly one of cs[0], cs[1] on.
            comparisons += (
                2 * safe if four else safe + cs[0] + cs[1] - left_fetched
            )
            continue
        # Some run's tail is consumed.  The root is still the global
        # minimum, so emit it, then put the losing element back into its
        # run; after that the tree is empty and every unconsumed element
        # sits in its run again.
        if z_left:
            lst[out] = B[x_pos]
            out += 1
            cs[y_run] -= 1
        else:
            lst[out] = B[y_pos]
            out += 1
            cs[x_run] -= 1
        if any(cs[i] == es[i] for i in range(len(cs))):
            order.comparisons += comparisons
            return out
        # The rollback landed in the run that had just run dry: every run
        # is nonempty again, so rebuild the tree and replay at this width.
        nasty_rebuilds += 1
        x_pos, x_run = fetch_left()
        y_pos, y_run = fetch_right()
        z_left = compare(B[x_pos], B[y_pos])
        comparisons += per_build
