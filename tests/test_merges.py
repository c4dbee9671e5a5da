import collections
import dataclasses
import hashlib
import itertools
import json
import random
import sys
from operator import attrgetter, length_hint

import pytest

import powersort.merges as merges
from powersort.merges import (
    merge_2way_copy_smaller,
    merge_2way_no_sentinel,
    merge_2way_sentinel,
    merge_stages,
    merge_tournament,
)

from conftest import (
    KEY,
    FailingKey,
    KeyFailure,
    LeSpyKey,
    LeTally,
    SpyKey,
    compositions,
    fresh_instruments,
    make_records,
)

KERNELS_BY_ARITY = {
    2: [merge_2way_sentinel, merge_2way_no_sentinel, merge_2way_copy_smaller],
    3: [merge_tournament, merge_stages],
    4: [merge_tournament, merge_stages],
}

#: A multiway case's test id names its width and buffer strategy, so each
#: case keeps one id whichever kernel function serves that width.
MULTIWAY_IDS = {
    (merge_tournament, 3): "merge_3way",
    (merge_stages, 3): "merge_3way_stages",
    (merge_tournament, 4): "merge_4way_sentinel",
    (merge_stages, 4): "merge_4way_stages",
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


def test_stages_rollback_into_emptied_run():
    # Shaped so the rolled-back element's own run is the one that ran dry:
    # the merger must replay at the same width and still come out stable.
    before = merges.nasty_rebuilds
    out, _ = run_kernel(merge_stages, [[1, 2], [3], [3], [4]])
    assert out == [1, 2, 3, 3, 4]
    assert merges.nasty_rebuilds > before


def test_stages_rollback_into_emptied_run_3way():
    # The 3-way tree's rollback lands in the run that ran dry, too.
    before = merges.nasty_rebuilds
    out, _ = run_kernel(merge_stages, [[1], [1], [0, 0]])
    assert out == [0, 0, 1, 1]
    assert merges.nasty_rebuilds > before


def test_stages_single_elements():
    out, _ = run_kernel(merge_stages, [[1], [2], [3], [4]])
    assert out == [1, 2, 3, 4]


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
        regions = counted_regions(key_regions, LeTally())
        flat = [x for region in regions for x in region]
        out, _ = run_kernel(kernel, regions, pad=1)
        assert same_objects(out, sorted(flat, key=VALUE)), (
            kernel.__name__, key_regions)
        count += 1
    assert count > 1000


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_exhaustive_derived_comparisons_match_key_calls(kernel, arity):
    # The kernels count their comparisons from loop structure instead of
    # per call; keys, or unkeyed elements, that count their own ``<=`` see
    # the comparisons that ran.  Merges never use ``<``.
    max_total = {2: 10, 3: 9, 4: 8}[arity]
    for key_regions in exhaustive_cases(arity, max_total):
        regions = split_records(key_regions)
        spy = LeSpyKey()
        _, stats = run_kernel(kernel, regions, key=spy, pad=1)
        assert (stats.comparisons, spy.lt_calls) == (spy.le_calls, 0), (
            kernel.__name__, key_regions)
        tally = LeTally()
        _, stats = run_kernel(
            kernel, counted_regions(key_regions, tally), pad=1)
        assert (stats.comparisons, tally.lt_calls) == (tally.le_calls, 0), (
            kernel.__name__, key_regions)


#: Key calls beyond one per element in a staged merge, rebuilds aside: the
#: narrower trees key their heads again, and a stage may key a head read
#: one slot past its run.  Worst case over the exhaustive cases below.
STAGE_EXTRA_KEY_CALLS = {3: 4, 4: 9}


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_exhaustive_merges_key_each_element_once(kernel, arity):
    # A kernel keys an element when it loads it, and holds the key while
    # it holds the element.  The staged merger re-takes a rolled-back
    # loser, which keys the head after it once more per rebuild.
    max_total = {2: 10, 3: 9, 4: 8}[arity]
    staged = kernel is merge_stages
    for key_regions in exhaustive_cases(arity, max_total):
        regions = split_records(key_regions)
        n = sum(len(region) for region in regions)
        spy = SpyKey()
        before = merges.nasty_rebuilds
        run_kernel(kernel, regions, key=spy, pad=1)
        bound = n
        if staged:
            bound += (STAGE_EXTRA_KEY_CALLS[arity]
                      + merges.nasty_rebuilds - before)
        assert spy.calls <= bound, (kernel.__name__, key_regions)


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_raising_key_leaves_a_permutation(kernel, arity):
    # A key that raises on its j-th call, for every j the merge reaches:
    # the error propagates and the merged region still holds its input.
    # Unkeyed, an element's ``<=`` raises on its j-th call instead, and the
    # region must hold the same objects.
    max_total = {2: 8, 3: 7, 4: 7}[arity]
    for key_regions in exhaustive_cases(arity, max_total):
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
        tally = LeTally()
        run_kernel(kernel, counted_regions(key_regions, tally), pad=1)
        for fail_at in range(1, tally.le_calls + 1):
            check_raising_le(kernel, key_regions, fail_at)


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


def check_raising_le(kernel, key_regions, fail_at):
    """Merge unkeyed elements whose ``<=`` raises on its fail_at-th call:
    the error propagates and the region holds the same objects."""
    tally = LeTally()
    tally.at = fail_at
    tally.action = raise_key_failure
    lst, bounds = padded(counted_regions(key_regions, tally), 1)
    region_input = sorted(map(id, lst[1:-1]))
    with pytest.raises(KeyFailure):
        kernel(lst, bounds, buffer_for(bounds), None, fresh_instruments())
    assert lst[0] == lst[-1] == "pad"
    assert sorted(map(id, lst[1:-1])) == region_input, (key_regions, fail_at)


def raise_key_failure():
    raise KeyFailure("<=")


def stage_counts_digest(kernel, arity, max_total, keyed):
    """Digest of the comparisons, the ``nasty_rebuilds`` delta and the other
    ``SortStats`` counters of a staged kernel over every exhaustive case."""
    digest = hashlib.sha256()
    for key_regions in exhaustive_cases(arity, max_total):
        if keyed:
            regions = split_records(key_regions)
        else:
            regions = [sorted(keys) for keys in key_regions]
        before = merges.nasty_rebuilds
        _, stats = run_kernel(
            kernel, regions, key=KEY if keyed else None, pad=1)
        # Recorded with the comparisons tallied apart from the SortStats,
        # whose own field read 0.
        counts = dataclasses.asdict(stats)
        comparisons, counts["comparisons"] = counts["comparisons"], 0
        digest.update(json.dumps([
            comparisons, merges.nasty_rebuilds - before, counts]).encode())
    return digest.hexdigest()[:16]


#: Recorded from the staged merger's closure-based tournament, before its
#: heads, winners and cursors moved into locals.
#: Keyed by (arity, keyed).
STAGE_COUNTS_GOLDEN = {
    (3, False): "9714d1831691e1a7",
    (3, True): "9714d1831691e1a7",
    (4, False): "6228df90fee6af5c",
    (4, True): "6228df90fee6af5c",
}


@pytest.mark.parametrize("keyed", [False, True], ids=["plain", "keyed"])
@pytest.mark.parametrize("kernel,arity,max_total",
                         cases((merge_stages, 3, 9), (merge_stages, 4, 8)))
def test_stage_counts_match_golden(kernel, arity, max_total, keyed):
    assert stage_counts_digest(kernel, arity, max_total, keyed) == (
        STAGE_COUNTS_GOLDEN[arity, keyed])


def test_exhaustive_sweep_exercises_nasty_rollback():
    before = merges.nasty_rebuilds
    for key_regions in exhaustive_cases(4, 8):
        regions = [sorted(keys) for keys in key_regions]
        flat = sorted(x for r in regions for x in r)
        out, _ = run_kernel(merge_stages, regions, pad=1)
        assert out == flat
    assert merges.nasty_rebuilds > before


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_randomized_large_merges_match_reference(kernel, arity):
    # Keyed records, and unkeyed elements checked by identity.  The runs
    # are long enough for many stages and rebuilds of the staged merger.
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
        tally = LeTally()
        regions = counted_regions(key_regions, tally)
        flat = [x for region in regions for x in region]
        out, stats = run_kernel(kernel, regions)
        assert same_objects(out, sorted(flat, key=VALUE)), key_regions
        assert stats.comparisons == tally.le_calls, key_regions


def stage_call_lines(key_regions):
    """For each ``<=`` call of an unkeyed 4-way ``merge_stages`` merge, the
    line of ``_stage_tournament`` that made it, or None if another
    function made it."""
    lines = []
    code = merges._stage_tournament.__code__
    tally = LeTally()

    def record():
        caller = sys._getframe(2)
        lines.append(caller.f_lineno if caller.f_code is code else None)
        tally.at += 1

    tally.at = 1
    tally.action = record
    run_kernel(merge_stages, counted_regions(key_regions, tally))
    return lines


def test_raising_le_in_large_staged_merge_keeps_the_objects():
    # A ``<=`` that raises in the unkeyed rounds, or at the root decided at
    # a stage's end, leaves the region holding the same objects.  The last
    # comparison in the tournament's source is that stage-end root; a
    # round's root and refills are the lines called most often.
    rng = random.Random(4017)
    key_regions = [[rng.randint(0, 6) for _ in range(rng.randint(200, 400))]
                   for _ in range(4)]
    lines = stage_call_lines(key_regions)
    stage_end = max(line for line in lines if line is not None)
    in_rounds = collections.Counter(lines).most_common(3)
    picks = {lines.index(stage_end, len(lines) // 2) + 1}
    for line, _ in in_rounds:
        assert line is not None and line < stage_end
        picks.add(lines.index(line, len(lines) // 3) + 1)
    assert len(picks) == 4
    for fail_at in sorted(picks):
        check_raising_le(merge_stages, key_regions, fail_at)


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
        (merge_stages, 3, 1),
        (merge_tournament, 4, 4),
        (merge_stages, 4, 1),
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
    + [(kernel, runs) for kernel in (merge_tournament, merge_stages)
       for runs in (2, 5)]
    + [(kernel, runs) for kernel in KERNELS_BY_ARITY[2] + [
        merge_tournament, merge_stages] for runs in (0, -1)],
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
    # The sentinel kernels and run detection place list iterators with
    # ``__setstate__`` and recover the index of the element ``next()``
    # returned last from ``length_hint``.  This pins that CPython behaviour.
    B = list(range(10, 16))
    for start in range(len(B)):
        it = iter(B)
        it.__setstate__(start)
        for j in range(start, len(B)):
            assert next(it) == B[j]
            # Also at j == len(B) - 1, the buffer's last slot.
            assert len(B) - 1 - length_hint(it) == j, (start, j)

