"""Stable merge kernels.

All kernels merge adjacent sorted regions of a list in place through an
external buffer and tally costs into a SortStats.  Element comparisons go
through the uncounted predicate ``order.compare``; each kernel adds the
number it executed to ``order.comparisons`` once per call, derived from its
loop structure where that gives it.  Ties always go to the run with the
lower start index -- "at or before" at every decision point, with the
lower-indexed run on the left -- which is what makes each kernel stable.

The sentinel kernels test a head for ``SENTINEL`` with ``is`` before they
compare.  A sentinel sorts after every element and loses each comparison
without a call to ``compare``, and such a comparison is not counted.

Five buffer strategies:

* ``merge_2way_sentinel``      -- copy both runs out, sentinel after each,
                                  branch-free bounds handling in the loop.
* ``merge_2way_no_sentinel``   -- copy both runs out, explicit bounds checks.
* ``merge_2way_copy_smaller``  -- copy only the smaller run out and merge
                                  into the gap; backward when the right run
                                  is the smaller one.
* ``merge_3way`` / ``merge_4way_sentinel``
                               -- winner tournament tree over 3 or 4 runs,
                                  sentinel after each buffered run.
* ``merge_4way_stages``        -- sentinel-free multiway merge that runs
                                  min-remaining-length unchecked iterations
                                  per stage and narrows as runs exhaust.

The tournament tree is a winner tree with three internal nodes: x holds the
head of the winning left run (runs 0/1), y the head of the winning right run
(runs 2/3; for 3-way merges y is simply run 2's head), and the root records
which side the overall minimum came from.  Each output element after the
first recomputes exactly two nodes: the side the minimum came from, and the
root.
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


def merge_2way_sentinel(lst, l, m, r, buf, order, stats):
    """Merge sorted [l, m) and [m, r) in place; both runs buffered with a
    sentinel appended, so the loop needs no exhaustion checks."""
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
    met = 0  # rounds decided by a sentinel, without compare
    c1, c2 = 0, n1 + 1
    # Once a run is exhausted its sentinel loses every comparison, so the
    # cursors can never leave their regions within n outputs.
    for o in range(l, r):
        a = B[c1]
        b = B[c2]
        if a is sentinel or b is sentinel:
            met += 1
            take_left = b is sentinel
        else:
            take_left = compare(a, b)
        if take_left:
            lst[o] = a
            c1 += 1
        else:
            lst[o] = b
            c2 += 1
    order.comparisons += n - met
    stats.merge_cost += n
    stats.buffer_cost += n
    stats.moves += 2 * n
    stats.scan_reads += 2 * n
    stats.scan_writes += 2 * n + 2
    stats.merges2 += 1


def merge_2way_no_sentinel(lst, l, m, r, buf, order, stats):
    """Like merge_2way_sentinel, but with explicit bounds checks instead of
    reserved values.  Output and move counts are identical."""
    _check_regions(lst, (l, m, r), buf, r - l)
    n = r - l
    n1 = m - l
    B = buf.data
    B[0:n] = lst[l:r]
    compare = order.compare
    c1, e1 = 0, n1
    c2, e2 = n1, n
    o = l
    while c1 < e1 and c2 < e2:
        a = B[c1]
        b = B[c2]
        if compare(a, b):
            lst[o] = a
            c1 += 1
        else:
            lst[o] = b
            c2 += 1
        o += 1
    order.comparisons += o - l  # one per output before the tail copy
    while c1 < e1:
        lst[o] = B[c1]
        o += 1
        c1 += 1
    while c2 < e2:
        lst[o] = B[c2]
        o += 1
        c2 += 1
    stats.merge_cost += n
    stats.buffer_cost += n
    stats.moves += 2 * n
    stats.scan_reads += 2 * n
    stats.scan_writes += 2 * n
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
    written = 0
    if n1 <= n2:
        B[0:n1] = lst[l:m]
        c1, c2, o = 0, m, l
        while c1 < n1 and c2 < r:
            a = B[c1]
            b = lst[c2]
            if compare(a, b):
                lst[o] = a
                c1 += 1
            else:
                lst[o] = b
                c2 += 1
            o += 1
        order.comparisons += o - l  # one per output before the tail copy
        while c1 < n1:
            lst[o] = B[c1]
            o += 1
            c1 += 1
        written = o - l  # the right run's tail is already in place
    else:
        B[0:n2] = lst[m:r]
        c1, c2, o = m - 1, n2 - 1, r - 1
        while c1 >= l and c2 >= 0:
            a = lst[c1]
            b = B[c2]
            if compare(a, b):
                lst[o] = b
                c2 -= 1
            else:
                lst[o] = a
                c1 -= 1
            o -= 1
        order.comparisons += r - 1 - o  # one per output before the tail copy
        while c2 >= 0:
            lst[o] = B[c2]
            o -= 1
            c2 -= 1
        written = r - 1 - o  # the left run's head is already in place
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
    n = r - l
    B = buf.data
    n1 = g1 - l
    n2 = g2 - g1
    n3 = g3 - g2
    B[0:n1] = lst[l:g1]
    B[n1] = SENTINEL
    s1 = n1 + 1
    B[s1 : s1 + n2] = lst[g1:g2]
    B[s1 + n2] = SENTINEL
    s2 = s1 + n2 + 1
    B[s2 : s2 + n3] = lst[g2:g3]
    B[s2 + n3] = SENTINEL
    s3 = s2 + n3 + 1
    B[s3 : s3 + (r - g3)] = lst[g3:r]
    B[s3 + (r - g3)] = SENTINEL
    compare = order.compare
    sentinel = SENTINEL
    met = 0  # comparisons decided by a sentinel, without compare
    c0, c1, c2, c3 = 0, s1, s2, s3
    # Build the tree: x = winning head of runs 0/1, y = of runs 2/3, the
    # root is the smaller of the two and remembers which side it came from.
    # Winners are consumed from their run as they enter the tree.  Every
    # run is nonempty, so no sentinel takes part yet.
    if compare(B[c0], B[c1]):
        x = c0
        c0 += 1
    else:
        x = c1
        c1 += 1
    if compare(B[c2], B[c3]):
        y = c2
        c2 += 1
    else:
        y = c3
        c3 += 1
    z_left = compare(B[x], B[y])
    lst[l] = B[x] if z_left else B[y]
    for o in range(l + 1, r):
        if z_left:
            a = B[c0]
            b = B[c1]
            if a is sentinel or b is sentinel:
                met += 1
                take_first = b is sentinel
            else:
                take_first = compare(a, b)
            if take_first:
                x = c0
                c0 += 1
            else:
                x = c1
                c1 += 1
        else:
            a = B[c2]
            b = B[c3]
            if a is sentinel or b is sentinel:
                met += 1
                take_first = b is sentinel
            else:
                take_first = compare(a, b)
            if take_first:
                y = c2
                c2 += 1
            else:
                y = c3
                c3 += 1
        a = B[x]
        b = B[y]
        if a is sentinel or b is sentinel:
            met += 1
            z_left = b is sentinel
        else:
            z_left = compare(a, b)
        lst[o] = a if z_left else b
    # Three comparisons build the tree and every later output takes two.
    order.comparisons += 2 * n + 1 - met
    stats.merge_cost += n
    stats.buffer_cost += n
    stats.moves += 2 * n
    stats.scan_reads += 2 * n
    stats.scan_writes += 2 * n + 4
    stats.merges4 += 1


def merge_3way(lst, l, g1, g2, r, buf, order, stats):
    """Merge sorted [l,g1), [g1,g2), [g2,r) in place.  Same tournament as
    the 4-way kernel but the right subtree is just run 2's head."""
    _check_regions(lst, (l, g1, g2, r), buf, (r - l) + 3)
    n = r - l
    B = buf.data
    n1 = g1 - l
    n2 = g2 - g1
    B[0:n1] = lst[l:g1]
    B[n1] = SENTINEL
    s1 = n1 + 1
    B[s1 : s1 + n2] = lst[g1:g2]
    B[s1 + n2] = SENTINEL
    s2 = s1 + n2 + 1
    B[s2 : s2 + (r - g2)] = lst[g2:r]
    B[s2 + (r - g2)] = SENTINEL
    compare = order.compare
    sentinel = SENTINEL
    met = 0  # comparisons decided by a sentinel, without compare
    c0, c1, c2 = 0, s1, s2
    if compare(B[c0], B[c1]):
        x = c0
        c0 += 1
    else:
        x = c1
        c1 += 1
    y = c2
    c2 += 1
    z_left = compare(B[x], B[y])
    lst[l] = B[x] if z_left else B[y]
    for o in range(l + 1, r):
        if z_left:
            a = B[c0]
            b = B[c1]
            if a is sentinel or b is sentinel:
                met += 1
                take_first = b is sentinel
            else:
                take_first = compare(a, b)
            if take_first:
                x = c0
                c0 += 1
            else:
                x = c1
                c1 += 1
        else:
            y = c2
            c2 += 1
        a = B[x]
        b = B[y]
        if a is sentinel or b is sentinel:
            met += 1
            z_left = b is sentinel
        else:
            z_left = compare(a, b)
        lst[o] = a if z_left else b
    # Two comparisons build the tree and every later output takes one at
    # the root, plus one to refill the left side after each left win but
    # the last.  Every element of runs 0 and 1 wins on the left once.
    order.comparisons += (n + 1) + (g2 - l) - z_left - met
    stats.merge_cost += n
    stats.buffer_cost += n
    stats.moves += 2 * n
    stats.scan_reads += 2 * n
    stats.scan_writes += 2 * n + 3
    stats.merges3 += 1


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
            out = _stage_2way(lst, out, B, cs, es, order)
            break
        out = _stage_tournament(lst, out, B, cs, es, order)
    assert out == r
    stats.merge_cost += n
    stats.buffer_cost += n
    stats.moves += 2 * n + 1
    stats.scan_reads += 2 * n
    stats.scan_writes += 2 * n + 1


def _stage_2way(lst, out, B, cs, es, order):
    compare = order.compare
    start = out
    c0, e0 = cs[0], es[0]
    c1, e1 = cs[1], es[1]
    while c0 < e0 and c1 < e1:
        a = B[c0]
        b = B[c1]
        if compare(a, b):
            lst[out] = a
            c0 += 1
        else:
            lst[out] = b
            c1 += 1
        out += 1
    order.comparisons += out - start  # one per output before the tail copy
    while c0 < e0:
        lst[out] = B[c0]
        out += 1
        c0 += 1
    while c1 < e1:
        lst[out] = B[c1]
        out += 1
        c1 += 1
    return out


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
