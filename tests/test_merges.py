import inspect
import itertools
import linecache
import random
import re
import sys
from operator import attrgetter, length_hint

import pytest

import powersort.merges as merges
from powersort.merges import (
    merge_2way_copy_smaller,
    merge_2way_no_sentinel,
    merge_2way_sentinel,
    merge_tournament,
    merge_tournament_no_sentinel,
)

from conftest import (
    KEY,
    FailingKey,
    KeyFailure,
    LtSpyKey,
    LtTally,
    SpyKey,
    compositions,
    fresh_instruments,
    make_records,
)

KERNELS_BY_ARITY = {
    2: [merge_2way_sentinel, merge_2way_no_sentinel, merge_2way_copy_smaller],
    3: [merge_tournament, merge_tournament_no_sentinel],
    4: [merge_tournament, merge_tournament_no_sentinel],
}

#: A multiway case's test id names its width and buffer strategy, so each
#: case keeps one id whichever kernel function serves that width.
MULTIWAY_IDS = {
    (merge_tournament, 3): "merge_3way",
    (merge_tournament_no_sentinel, 3): "merge_3way_no_sentinel",
    (merge_tournament, 4): "merge_4way_sentinel",
    (merge_tournament_no_sentinel, 4): "merge_4way_no_sentinel",
}


def case_id(kernel, arity):
    return MULTIWAY_IDS.get((kernel, arity), kernel.__name__)


def cases(*rows):
    """pytest params of ``(kernel, arity, ..)`` rows, with case ids."""
    return [pytest.param(*row, id="-".join(
        [case_id(*row[:2]), *map(str, row[1:])])) for row in rows]


def kernels_of(arity):
    """pytest params of the kernels that merge ``arity`` runs."""
    return [pytest.param(k, id=case_id(k, arity))
            for k in KERNELS_BY_ARITY[arity]]


ALL_KERNELS = cases(*[(k, a) for a, ks in KERNELS_BY_ARITY.items()
                      for k in ks])


def padded(regions, pad):
    """Concatenate the given sorted regions with noise padding around them;
    return (list, region bounds)."""
    lst = ["pad"] * pad
    bounds = [pad]
    for region in regions:
        lst.extend(region)
        bounds.append(len(lst))
    lst.extend(["pad"] * pad)
    return lst, tuple(bounds)


def buffer_for(bounds):
    """A merge buffer with room for the group and a few reserved slots."""
    return [None] * ((bounds[-1] - bounds[0]) + 4)


def run_kernel(kernel, regions, key=None, pad=3):
    """Merge the given sorted regions in place inside noise padding, and
    return (merged slice, stats)."""
    lst, bounds = padded(regions, pad)
    stats = fresh_instruments()
    kernel(lst, bounds, buffer_for(bounds), key, stats)
    return checked_region(lst, bounds, regions, pad), stats


def checked_region(lst, bounds, regions, pad):
    """The merge region of a ``padded`` list, once its padding is untouched
    and it holds exactly the regions' objects."""
    assert lst[:pad] == ["pad"] * pad and lst[-pad:] == ["pad"] * pad
    merged = lst[bounds[0] : bounds[-1]]
    # Exactly the input's objects: no sentinel or other object leaks in.
    assert sorted(map(id, merged)) == sorted(
        id(x) for region in regions for x in region)
    return merged


def split_records(keys_per_region):
    uid = itertools.count()
    return [
        sorted(make_records_with(uid, keys), key=KEY)
        for keys in keys_per_region
    ]


def make_records_with(uid, keys):
    return [(k, next(uid)) for k in keys]


VALUE = attrgetter("value")


def counted_regions(keys_per_region, tally):
    """Each region's keys as sorted ``Counted`` elements of ``tally``, for
    unkeyed merges.  Every element is a distinct object, so identity shows
    where each one went."""
    return [sorted(tally.wrap(keys), key=VALUE) for keys in keys_per_region]


def same_objects(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


# --- two-way kernels -------------------------------------------------------


@pytest.mark.parametrize("kernel", kernels_of(2))
def test_merge2_plain(kernel):
    out, stats = run_kernel(kernel, [[1, 3, 5], [2, 4, 6]])
    assert out == [1, 2, 3, 4, 5, 6]
    assert stats.merge_cost == 6


@pytest.mark.parametrize("kernel", kernels_of(2))
def test_merge2_left_wins_ties(kernel):
    out, _ = run_kernel(kernel, [[(1, "a"), (2, "b")], [(1, "c")]], key=KEY)
    assert out == [(1, "a"), (1, "c"), (2, "b")]


def test_merge2_sentinel_counts_element_comparisons_only():
    # After the left run empties its sentinel loses every comparison, and
    # sentinel comparisons are not element comparisons: only 2 remain.
    out, stats = run_kernel(merge_2way_sentinel, [[1, 2], [3, 4]])
    assert out == [1, 2, 3, 4]
    assert stats.comparisons == 2


def test_copy_smaller_buffers_only_the_smaller_run():
    out, stats = run_kernel(merge_2way_copy_smaller, [[1, 3], [2]])
    assert out == [1, 2, 3]
    assert stats.buffer_cost == 1
    out, stats = run_kernel(merge_2way_copy_smaller, [[5], [1, 2, 3]])
    assert out == [1, 2, 3, 5]
    assert stats.buffer_cost == 1


def test_copy_smaller_stable_in_both_directions():
    out, _ = run_kernel(merge_2way_copy_smaller, [[(1, "a")], [(1, "b")]], key=KEY)
    assert out == [(1, "a"), (1, "b")]
    # right run strictly smaller forces the backward path
    out, _ = run_kernel(
        merge_2way_copy_smaller, [[(1, "a"), (1, "b")], [(1, "c")]], key=KEY
    )
    assert out == [(1, "a"), (1, "b"), (1, "c")]


def test_no_sentinel_matches_sentinel_kernel():
    rng = random.Random(11)
    for _ in range(100):
        n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
        left = sorted(rng.randint(0, 4) for _ in range(n1))
        right = sorted(rng.randint(0, 4) for _ in range(n2))
        out_a, st_a = run_kernel(merge_2way_sentinel, [left, right])
        out_b, st_b = run_kernel(merge_2way_no_sentinel, [left, right])
        assert out_a == out_b
        # Both compare once per output until a run runs dry.
        assert st_a.comparisons == st_b.comparisons
        assert st_a.moves == st_b.moves
        assert st_a.merge_cost == st_b.merge_cost


# --- multiway kernels ------------------------------------------------------


@pytest.mark.parametrize("kernel", kernels_of(3))
def test_merge3_plain(kernel):
    out, stats = run_kernel(kernel, [[1, 4], [2, 5], [3, 6]])
    assert out == [1, 2, 3, 4, 5, 6]
    assert stats.merge_cost == 6


@pytest.mark.parametrize("kernel", kernels_of(4))
def test_merge4_all_ties_keeps_run_order(kernel):
    regions = [[(1, "a")], [(1, "b")], [(1, "c")], [(1, "d")]]
    out, _ = run_kernel(kernel, regions, key=KEY)
    assert out == [(1, "a"), (1, "b"), (1, "c"), (1, "d")]


@pytest.mark.parametrize("kernel", kernels_of(4))
def test_merge4_one_long_run(kernel):
    out, stats = run_kernel(kernel, [[1, 2, 3, 4], [5], [6], [7]])
    assert out == [1, 2, 3, 4, 5, 6, 7]
    assert stats.merge_cost == 7


# --- exhaustive oracle equivalence ----------------------------------------


def exhaustive_cases(arity, max_total, alphabet=(0, 1)):
    """Every split of every key string over the alphabet into `arity`
    nonempty sorted regions."""
    for total in range(arity, max_total + 1):
        for shape in compositions(total, arity):
            for keys in itertools.product(alphabet, repeat=total):
                regions = []
                at = 0
                for part in shape:
                    regions.append(list(keys[at : at + part]))
                    at += part
                yield regions


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_exhaustive_small_merges_match_reference(kernel, arity):
    # Keyed records, and unkeyed elements checked by identity: the output
    # is the stable sort of the input either way.
    max_total = {2: 10, 3: 9, 4: 8}[arity]
    count = 0
    for key_regions in exhaustive_cases(arity, max_total):
        regions = split_records(key_regions)
        flat = [rec for region in regions for rec in region]
        out, _ = run_kernel(kernel, regions, key=KEY, pad=1)
        assert out == sorted(flat, key=KEY), (kernel.__name__, key_regions)
        regions = counted_regions(key_regions, LtTally())
        flat = [x for region in regions for x in region]
        out, _ = run_kernel(kernel, regions, pad=1)
        assert same_objects(out, sorted(flat, key=VALUE)), (
            kernel.__name__, key_regions)
        count += 1
    assert count > 1000


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_exhaustive_derived_comparisons_match_key_calls(kernel, arity):
    # The kernels count their comparisons from loop structure instead of
    # per call; keys, or unkeyed elements, that count their own ``<`` see
    # the comparisons that ran.
    max_total = {2: 10, 3: 9, 4: 8}[arity]
    for key_regions in exhaustive_cases(arity, max_total):
        regions = split_records(key_regions)
        spy = LtSpyKey()
        _, stats = run_kernel(kernel, regions, key=spy, pad=1)
        assert stats.comparisons == spy.lt_calls, (
            kernel.__name__, key_regions)
        tally = LtTally()
        _, stats = run_kernel(
            kernel, counted_regions(key_regions, tally), pad=1)
        assert stats.comparisons == tally.lt_calls, (
            kernel.__name__, key_regions)


class Logged:
    """An element, or a key, ordered by ``value`` that logs the uids of the
    left and the right side of each decision it answers.  A decision asks
    ``right < left``, so the ``other`` side of ``<`` is the left one."""

    __slots__ = ("value", "uid", "log")

    def __init__(self, value, uid, log):
        self.value = value
        self.uid = uid
        self.log = log

    def __lt__(self, other):
        self.log.append((other.uid, self.uid))
        return self.value < other.value


def reference_2way_pairs(left, right, backward):
    """The ``(left uid, right uid)`` pairs that an index-cursor merge of two
    sorted ``(key, uid)`` runs compares, in order, until a run runs out.
    Forward, the left run wins ties; backward, taking the larger, the right
    run does."""
    pairs = []
    i, j = (len(left) - 1, len(right) - 1) if backward else (0, 0)
    while 0 <= i < len(left) and 0 <= j < len(right):
        pairs.append((left[i][1], right[j][1]))
        if backward:
            if left[i][0] <= right[j][0]:
                j -= 1
            else:
                i -= 1
        elif left[i][0] <= right[j][0]:
            i += 1
        else:
            j += 1
    return pairs


@pytest.mark.parametrize(
    "kernel", [merge_2way_no_sentinel, merge_2way_copy_smaller])
def test_exhaustive_2way_compares_the_reference_pairs_in_order(kernel):
    # The same comparisons, in the same order, as a plain index-cursor
    # merge: keyed, through keys that log their partner, and unkeyed.
    directions = set()
    log = []
    for key_regions in exhaustive_cases(2, 10):
        left, right = split_records(key_regions)
        backward = kernel is merge_2way_copy_smaller and len(left) > len(right)
        directions.add(backward)
        expected = reference_2way_pairs(left, right, backward)
        log.clear()
        run_kernel(kernel, [left, right], key=lambda rec: Logged(*rec, log),
                   pad=1)
        assert log == expected, ("keyed", key_regions)
        log.clear()
        run_kernel(kernel, [[Logged(*rec, log) for rec in run]
                            for run in (left, right)], pad=1)
        assert log == expected, ("unkeyed", key_regions)
    assert directions == {False, kernel is merge_2way_copy_smaller}


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_exhaustive_merges_key_each_element_once(kernel, arity):
    # A kernel keys an element when it loads it, and holds the key while
    # it holds the element.
    max_total = {2: 10, 3: 9, 4: 8}[arity]
    for key_regions in exhaustive_cases(arity, max_total):
        regions = split_records(key_regions)
        spy = SpyKey()
        run_kernel(kernel, regions, key=spy, pad=1)
        assert spy.calls <= sum(map(len, regions)), (
            kernel.__name__, key_regions)


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_raising_key_leaves_a_permutation(kernel, arity):
    # A key that raises on its j-th call, for every j the merge reaches:
    # the error propagates and the merged region still holds its input.
    # Unkeyed, an element's ``<`` raises on its j-th call instead, and the
    # region must hold the same objects.
    max_total = {2: 8, 3: 7, 4: 7}[arity]
    for key_regions in exhaustive_cases(arity, max_total):
        check_every_failure(kernel, key_regions)


def check_every_failure(kernel, key_regions):
    """Merge the keys with a key that raises on call j, and unkeyed with a
    ``<`` that does, for every j the merge reaches."""
    regions = split_records(key_regions)
    region_input = sorted(rec for region in regions for rec in region)
    spy = SpyKey()
    run_kernel(kernel, regions, key=spy, pad=1)
    for fail_at in range(1, spy.calls + 1):
        lst, bounds = padded(regions, 1)
        with pytest.raises(KeyFailure):
            kernel(lst, bounds, buffer_for(bounds), FailingKey(fail_at),
                   fresh_instruments())
        assert lst[0] == lst[-1] == "pad"
        assert sorted(lst[1:-1]) == region_input, (key_regions, fail_at)
    tally = LtTally()
    run_kernel(kernel, counted_regions(key_regions, tally), pad=1)
    for fail_at in range(1, tally.lt_calls + 1):
        check_raising_lt(kernel, key_regions, fail_at)


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_raising_key_puts_back_rests_several_chunks_long(kernel, arity):
    # Put-backs go a chunk at a time.  Regions of four chunks, run i keyed
    # over [0, 50 (i + 1)], so that wider runs outlast narrower ones: a key
    # that raises early leaves every rest several chunks long, midway some,
    # and on its last call what the merge has not yet output.
    rng = random.Random(arity * 100 + 7)
    size = 4 * merges._CHUNK + 5
    regions = split_records(
        [[rng.randint(0, 50 * (i + 1)) for _ in range(size)]
         for i in range(arity)])
    spy = SpyKey()
    run_kernel(kernel, regions, key=spy)
    for fail_at in (3, spy.calls // 2, spy.calls):
        lst, bounds = padded(regions, 3)
        with pytest.raises(KeyFailure):
            kernel(lst, bounds, buffer_for(bounds), FailingKey(fail_at),
                   fresh_instruments())
        checked_region(lst, bounds, regions, 3)


def test_backward_copy_smaller_puts_back_rests_several_chunks_long():
    # The right run is the smaller one, so copy-smaller merges backward.  A
    # key, or an unkeyed ``<``, that raises early leaves both rests several
    # chunks long, midway some, and on its last call what is not yet output.
    rng = random.Random(29)
    key_regions = [[rng.randint(0, 200) for _ in range(size)]
                   for size in (5 * merges._CHUNK + 3, 3 * merges._CHUNK + 7)]
    regions = split_records(key_regions)
    spy = SpyKey()
    _, stats = run_kernel(merge_2way_copy_smaller, regions, key=spy)
    assert stats.buffer_cost == len(regions[1])
    for fail_at in (3, spy.calls // 2, spy.calls):
        lst, bounds = padded(regions, 3)
        with pytest.raises(KeyFailure):
            merge_2way_copy_smaller(lst, bounds, buffer_for(bounds),
                                    FailingKey(fail_at), fresh_instruments())
        checked_region(lst, bounds, regions, 3)
    tally = LtTally()
    run_kernel(merge_2way_copy_smaller, counted_regions(key_regions, tally))
    for fail_at in (3, tally.lt_calls // 2, tally.lt_calls):
        check_raising_lt(merge_2way_copy_smaller, key_regions, fail_at)


def check_raising_lt(kernel, key_regions, fail_at):
    """Merge unkeyed elements whose ``<`` raises on its fail_at-th call:
    the error propagates and the region holds the same objects."""
    tally = LtTally()
    tally.at = fail_at
    tally.action = raise_key_failure
    lst, bounds = padded(counted_regions(key_regions, tally), 1)
    region_input = sorted(map(id, lst[1:-1]))
    with pytest.raises(KeyFailure):
        kernel(lst, bounds, buffer_for(bounds), None, fresh_instruments())
    assert lst[0] == lst[-1] == "pad"
    assert sorted(map(id, lst[1:-1])) == region_input, (key_regions, fail_at)


def raise_key_failure():
    raise KeyFailure("<")


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_randomized_large_merges_match_reference(kernel, arity):
    # Keyed records, and unkeyed elements checked by identity, in runs
    # long enough for every phase of each tournament.
    rng = random.Random(arity * 1000 + 17)
    for _ in range(30):
        key_regions = [
            [rng.randint(0, 6) for _ in range(rng.randint(1, 400))]
            for _ in range(arity)
        ]
        regions = split_records(key_regions)
        flat = [rec for region in regions for rec in region]
        out, _ = run_kernel(kernel, regions, key=KEY)
        assert out == sorted(flat, key=KEY)
        tally = LtTally()
        regions = counted_regions(key_regions, tally)
        flat = [x for region in regions for x in region]
        out, stats = run_kernel(kernel, regions)
        assert same_objects(out, sorted(flat, key=VALUE)), key_regions
        assert stats.comparisons == tally.lt_calls, key_regions


def merge_log(kernel, key_regions, keyed):
    """The ``(left uid, right uid)`` pairs of each decision a merge of the
    given keys made, in order, the uids in output order and the counted
    comparisons.  Keyed, the keys log their ``<``; unkeyed, the elements."""
    log = []
    regions = split_records(key_regions)
    if keyed:
        out, stats = run_kernel(kernel, regions, pad=1,
                                key=lambda rec: Logged(*rec, log))
        uids = [uid for _, uid in out]
    else:
        out, stats = run_kernel(kernel, [[Logged(*rec, log) for rec in run]
                                         for run in regions], pad=1)
        uids = [x.uid for x in out]
    return log, uids, stats.comparisons


def long_key_regions(rng, arity, span):
    """Runs of 1 to 3000 keys in [0, span], lengths drawn log-uniform."""
    return [[rng.randint(0, span) for _ in range(int(3000 ** rng.random()))]
            for _ in range(arity)]


@pytest.mark.parametrize("arity", [3, 4])
def test_sentinel_free_tournament_compares_the_same_pairs_as_4way(arity):
    # Every split of up to 9 keys over {0, 1}, then long random merges over
    # key ranges from heavy ties to nearly distinct keys, keyed and
    # unkeyed: the same ``<`` calls in the same order, the same output and
    # the same count as the sentinel tournament's.  In each kernel a keyed
    # merge decides as the unkeyed one does, though only unkeyed 3-way
    # merges run the 3-way loop.
    rng = random.Random(arity * 7919)
    cases = list(exhaustive_cases(arity, 9))
    for span in (3, 60, 10**6):
        cases += [long_key_regions(rng, arity, span) for _ in range(4)]
    kernels = (merge_tournament, merge_tournament_no_sentinel)
    for key_regions in cases:
        logs = {(kernel, keyed): merge_log(kernel, key_regions, keyed)
                for kernel in kernels for keyed in (False, True)}
        for keyed in (False, True):
            assert logs[merge_tournament_no_sentinel, keyed] == logs[
                merge_tournament, keyed], (keyed, key_regions)
        for kernel in kernels:
            assert logs[kernel, True] == logs[kernel, False], (
                kernel.__name__, key_regions)


#: Merges that leave the sentinel-free tournament's hot loops by each exit,
#: with lines of ``merge_tournament_no_sentinel`` each must run, keyed and
#: unkeyed (``hN = kN = marker`` read as ``hN = marker``).  Only unkeyed
#: 3-way merges run the 3-way loop (``THREE_WAY``); a keyed one goes from
#: its first draws to the checked phase and runs none of its lines.
THREE_WAY = "rest = length_hint(u2)"
EXITS = {
    "run0-ends-first": ([[1, 2], [3, 9, 10, 11], [4, 12, 13], [5, 14, 15]],
                        {"h0 = marker"}),
    "run1-ends-first": ([[3, 9, 10, 11], [1, 2], [4, 12, 13], [5, 14, 15]],
                        {"h1 = marker"}),
    "run2-ends-before-run3": (
        [[3, 6, 9, 20], [4, 7, 10, 21], [1, 2], [5, 8, 11, 22]],
        {"h2 = marker"}),
    "run3-ends-first": (
        [[3, 6, 9, 20], [4, 7, 10, 21], [5, 8, 11, 22], [1, 2]],
        {"h3 = marker"}),
    "3way-run0-ends-first": ([[1, 2], [4, 7, 10, 21], [3, 6, 9, 20]],
                             {"h0 = marker", THREE_WAY}),
    "3way-run1-ends-first": ([[4, 7, 10, 21], [1, 2], [3, 6, 9, 20]],
                             {"h1 = marker", THREE_WAY}),
    "3way-run2-ends-first": ([[3, 6, 9, 20], [4, 7, 10, 21], [1, 2, 5]],
                             {"h2 = marker", THREE_WAY}),
    "runs-of-one": ([[2], [1], [4], [3]], set()),
    "3way-runs-of-one": ([[3], [2], [1]], set()),
}


def executed_lines(kernel, regions, key):
    """The source lines of ``kernel`` that a merge of the regions ran."""
    code = kernel.__code__
    lines = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(linecache.getline(code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        run_kernel(kernel, regions, key=key)
    finally:
        sys.settrace(previous)
    return {re.sub(r"= k\d = marker$", "= marker", line.strip())
            for line in lines}


def phase_lines(exits, key):
    """The lines of an ``EXITS`` entry that a merge with this key runs:
    none for a keyed 3-way merge, which runs no 3-way-loop line."""
    return exits if key is None or THREE_WAY not in exits else set()


@pytest.mark.parametrize("case", sorted(EXITS))
def test_sentinel_free_tournament_exits_keep_a_permutation(case):
    # A key, or an unkeyed ``<``, that raises on call j, for every j, of a
    # merge that leaves the hot loops by each exit leaves the region holding
    # its input.
    key_regions, exits = EXITS[case]
    kernel = merge_tournament_no_sentinel
    for regions, key in ((split_records(key_regions), KEY),
                         (counted_regions(key_regions, LtTally()), None)):
        ran = executed_lines(kernel, regions, key)
        lines = phase_lines(exits, key)
        assert lines <= ran, key
        assert not (exits - lines) & ran, key
        assert (THREE_WAY in ran) == (THREE_WAY in lines), key
    check_every_failure(kernel, key_regions)


def keyed_uids(kernel, key_regions):
    """The uids of the records a keyed merge of the keys called its key on,
    in order."""
    uids = []

    def key(rec):
        uids.append(rec[1])
        return rec[0]

    run_kernel(kernel, split_records(key_regions), key=key, pad=1)
    return uids


@pytest.mark.parametrize("case", sorted(EXITS))
def test_sentinel_tournament_phases_end_as_the_sentinel_free_ones(case):
    # Each way a phase of a 3- or 4-way merge can end, keyed and unkeyed:
    # the sentinel tournament runs the same phases as the sentinel-free
    # one, makes the same ``<`` calls in the same order, outputs what
    # ``sorted`` does and keys the same elements in the same order.  A key,
    # or an unkeyed ``<``, that raises on call j, for every j, leaves the
    # region holding its input.
    key_regions, exits = EXITS[case]
    for regions, key in ((split_records(key_regions), KEY),
                         (counted_regions(key_regions, LtTally()), None)):
        ran = executed_lines(merge_tournament, regions, key)
        lines = phase_lines(exits, key)
        assert (THREE_WAY in ran) == (THREE_WAY in lines), key
    records = sorted(rec for run in split_records(key_regions) for rec in run)
    for keyed in (False, True):
        log, uids, count = merge_log(merge_tournament, key_regions, keyed)
        assert uids == [uid for _, uid in records]
        assert (log, uids, count) == merge_log(
            merge_tournament_no_sentinel, key_regions, keyed), keyed
    assert keyed_uids(merge_tournament, key_regions) == keyed_uids(
        merge_tournament_no_sentinel, key_regions)
    check_every_failure(merge_tournament, key_regions)


class Poison:
    """A buffer slot past the merge's n: reading it is an error."""

    def __lt__(self, other):
        raise AssertionError("compared a slot past the buffer's n")

    __gt__ = __lt__


@pytest.mark.parametrize("case", sorted(EXITS) + ["random"])
def test_sentinel_free_tournament_needs_n_buffer_slots(case):
    # A buffer of exactly n slots suffices, and slots past n are never read
    # or written.
    if case == "random":
        key_regions = long_key_regions(random.Random(5), 4, 60)
    else:
        key_regions = EXITS[case][0]
    regions = split_records(key_regions)
    n = sum(map(len, regions))
    poison = [Poison() for _ in range(4)]

    def key(rec):
        assert not isinstance(rec, Poison)
        return rec[0]

    for B in ([None] * n, [None] * n + poison):
        for keyed in (False, True):
            lst, bounds = padded(regions, 1)
            merge_tournament_no_sentinel(
                lst, bounds, B, key if keyed else None, fresh_instruments())
            assert lst[1:-1] == sorted(lst[1:-1], key=KEY)
            checked_region(lst, bounds, regions, 1)
            assert B[n:] == poison[: len(B) - n]

# --- accounting ------------------------------------------------------------


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_merge_cost_is_output_size(kernel, arity):
    rng = random.Random(arity)
    regions = [sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 20)))
               for _ in range(arity)]
    n = sum(len(r) for r in regions)
    _, stats = run_kernel(kernel, regions)
    assert stats.merge_cost == n
    assert getattr(stats, "merges%d" % arity) == 1
    assert stats.merges_total == 1


@pytest.mark.parametrize(
    "kernel,arity,slack",
    cases(
        (merge_2way_sentinel, 2, 2),
        (merge_2way_no_sentinel, 2, 0),
        (merge_tournament, 3, 3),
        (merge_tournament_no_sentinel, 3, 0),
        (merge_tournament, 4, 4),
        (merge_tournament_no_sentinel, 4, 0),
    ),
)
def test_copy_all_kernels_stream_2m_reads_2m_writes(kernel, arity, slack):
    rng = random.Random(arity + 100)
    regions = [sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 30)))
               for _ in range(arity)]
    n = sum(len(r) for r in regions)
    _, stats = run_kernel(kernel, regions)
    assert stats.buffer_cost == n
    assert stats.scan_reads == 2 * n
    assert stats.scan_writes == 2 * n + slack


def test_copy_smaller_costs():
    _, stats = run_kernel(merge_2way_copy_smaller, [[1, 2, 3, 4], [0]])
    assert stats.merge_cost == 5
    assert stats.buffer_cost == 1
    # backward path: 1 copied, and every slot rewritten
    assert stats.scan_reads == stats.scan_writes


def copy_smaller_left_in_place(left, right):
    """How many of the larger run's elements a copy-smaller merge of the
    sorted key lists leaves where they are.  Forward, that is the right
    run's keys at or after the left run's last; backward, the left run's
    keys at or before the right run's first (ties keep the left first)."""
    if len(left) <= len(right):
        return sum(k >= left[-1] for k in right)
    return sum(k <= right[0] for k in left)


def test_copy_smaller_costs_match_closed_form():
    # The smaller run is copied out; every slot but the larger run's
    # elements left in place is written; each of those moves reads and
    # writes one element.
    directions = set()
    for key_regions in exhaustive_cases(2, 10):
        left, right = map(sorted, key_regions)
        n = len(left) + len(right)
        copied = min(len(left), len(right))
        written = n - copy_smaller_left_in_place(left, right)
        directions.add(len(left) <= len(right))
        for regions, key in (([left, right], None),
                             (split_records(key_regions), KEY)):
            _, stats = run_kernel(
                merge_2way_copy_smaller, regions, key=key, pad=1)
            costs = (stats.merge_cost, stats.buffer_cost, stats.moves,
                     stats.scan_reads, stats.scan_writes)
            moved = copied + written
            assert costs == (n, copied, moved, moved, moved), (
                key_regions, key)
    assert directions == {True, False}


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_empty_region_rejected(kernel, arity):
    lst = list(range(2 * arity))
    # first region is empty
    bounds = [0, 0] + list(range(2, 2 * arity + 1, 2))[: arity - 1]
    assert len(bounds) == arity + 1
    with pytest.raises(ValueError):
        kernel(lst, tuple(bounds), [None] * (len(lst) + 4), None,
               fresh_instruments())


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_too_small_buffer_rejected(kernel, arity):
    regions = [[1, 2], [3, 4], [5, 6], [7, 8]][:arity]
    lst = [x for r in regions for x in r]
    bounds = list(range(0, 2 * arity + 1, 2))
    with pytest.raises(ValueError):
        kernel(lst, tuple(bounds), [None], None, fresh_instruments())


@pytest.mark.parametrize(
    "kernel,runs",
    [(kernel, 3) for kernel in KERNELS_BY_ARITY[2]]
    + [(kernel, runs) for kernel in KERNELS_BY_ARITY[4] for runs in (2, 5)]
    + [(kernel, runs) for kernel in KERNELS_BY_ARITY[2] + KERNELS_BY_ARITY[4]
       for runs in (0, -1)],
)
def test_wrong_width_rejected(kernel, runs):
    # Bounds of a group the kernel cannot merge, but otherwise valid: the
    # kernel raises before it touches the list, buffer or counts.  0 and -1
    # runs give the bounds (0,) and (), too short to index.
    lst = list(range(2 * runs))
    bounds = tuple(range(0, 2 * runs + 1, 2))
    buf = [None] * (len(lst) + 8)
    stats = fresh_instruments()
    with pytest.raises(ValueError, match="cannot merge"):
        kernel(lst, bounds, buf, None, stats)
    assert lst == list(range(2 * runs))
    assert buf == [None] * len(buf)
    assert stats == fresh_instruments()


def test_sentinel_values_never_emitted():
    # run_kernel checks that no kernel leaks its sentinel.
    out, _ = run_kernel(merge_tournament, [[1], [2, 2], [0], [3]])
    assert out == [0, 1, 2, 2, 3]


def test_list_iterator_placement_and_cursor_recovery():
    # The merge kernels and run detection place list iterators, forward and
    # reverse, with ``__setstate__``, the sentinel-free kernels bound them
    # with ``islice``, and all recover the index of the element ``next()``
    # returned last from ``length_hint``.  This pins that CPython behaviour.
    B = list(range(10, 16))
    for start in range(len(B)):
        it = iter(B)
        it.__setstate__(start)
        for j in range(start, len(B)):
            assert next(it) == B[j]
            # Also at j == len(B) - 1, the buffer's last slot.
            assert len(B) - 1 - length_hint(it) == j, (start, j)
        it = reversed(B)
        it.__setstate__(start)
        for j in range(start, -1, -1):
            assert next(it) == B[j]
            # A reverse iterator's hint is that index, down to index 0.
            assert length_hint(it) == j, (start, j)
    # islice(it, count) raises StopIteration at its count without drawing
    # item count + 1 from its source, so the source's length_hint still
    # gives the index after the run, and the cursor of each element drawn
    # before; ``next`` with a default then returns the default.
    for start in range(len(B)):
        for count in range(len(B) - start + 1):
            it = iter(B)
            it.__setstate__(start)
            run = itertools.islice(it, count)
            for j in range(start, start + count):
                assert next(run) == B[j]
                assert len(B) - 1 - length_hint(it) == j, (start, j)
            with pytest.raises(StopIteration):
                next(run)
            assert length_hint(it) == len(B) - start - count, (start, count)
            assert next(run, "end") == "end"
            assert length_hint(it) == len(B) - start - count, (start, count)
        for count in range(start + 2):
            it = reversed(B)
            it.__setstate__(start)
            drawn = list(itertools.islice(it, count))
            assert drawn == B[start::-1][:count]
            assert length_hint(it) == start + 1 - count, (start, count)


def test_kernels_hold_no_closure_cells():
    # A local that a nested function reads, or, before CPython 3.12, a
    # comprehension, is a cell, and each read of it a LOAD_DEREF: in the
    # tournament, every ``is sentinel`` test of the fast loop.
    functions = [f for f in vars(merges).values()
                 if inspect.isfunction(f) and f.__module__ == merges.__name__]
    assert merge_tournament in functions
    assert merge_tournament_no_sentinel in functions
    for f in functions:
        assert f.__code__.co_cellvars == (), f.__name__
