import itertools
import random

import pytest

import powersort.merges as merges
from powersort.merges import (
    MergeBuffer,
    merge_2way_copy_smaller,
    merge_2way_no_sentinel,
    merge_2way_sentinel,
    merge_3way,
    merge_3way_stages,
    merge_4way_sentinel,
    merge_4way_stages,
)
from powersort.statskit import SENTINEL

from conftest import (
    KEY,
    FailingKey,
    KeyFailure,
    SpyKey,
    compositions,
    fresh_instruments,
    make_records,
)

KERNELS_BY_ARITY = {
    2: [merge_2way_sentinel, merge_2way_no_sentinel, merge_2way_copy_smaller],
    3: [merge_3way, merge_3way_stages],
    4: [merge_4way_sentinel, merge_4way_stages],
}
ALL_KERNELS = [(k, a) for a, ks in KERNELS_BY_ARITY.items() for k in ks]


def padded(regions, pad):
    """Concatenate the given sorted regions with noise padding around them;
    return (list, region bounds)."""
    lst = ["pad"] * pad
    bounds = [pad]
    for region in regions:
        lst.extend(region)
        bounds.append(len(lst))
    lst.extend(["pad"] * pad)
    return lst, bounds


def run_kernel(kernel, regions, key=None, pad=3):
    """Merge the given sorted regions in place inside noise padding, and
    return (merged slice, order, stats)."""
    lst, bounds = padded(regions, pad)
    order, stats = fresh_instruments(key)
    buf = MergeBuffer((bounds[-1] - bounds[0]) + 4)
    kernel(lst, *bounds, buf, order, stats)
    assert lst[:pad] == ["pad"] * pad and lst[-pad:] == ["pad"] * pad
    return lst[bounds[0] : bounds[-1]], order, stats


def split_records(keys_per_region):
    uid = itertools.count()
    return [
        sorted(make_records_with(uid, keys), key=KEY)
        for keys in keys_per_region
    ]


def make_records_with(uid, keys):
    return [(k, next(uid)) for k in keys]


# --- two-way kernels -------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS_BY_ARITY[2])
def test_merge2_plain(kernel):
    out, _, stats = run_kernel(kernel, [[1, 3, 5], [2, 4, 6]])
    assert out == [1, 2, 3, 4, 5, 6]
    assert stats.merge_cost == 6


@pytest.mark.parametrize("kernel", KERNELS_BY_ARITY[2])
def test_merge2_left_wins_ties(kernel):
    out, _, _ = run_kernel(kernel, [[(1, "a"), (2, "b")], [(1, "c")]], key=KEY)
    assert out == [(1, "a"), (1, "c"), (2, "b")]


def test_merge2_sentinel_counts_element_comparisons_only():
    # After the left run empties its sentinel loses every comparison, and
    # sentinel comparisons are not element comparisons: only 2 remain.
    out, order, _ = run_kernel(merge_2way_sentinel, [[1, 2], [3, 4]])
    assert out == [1, 2, 3, 4]
    assert order.comparisons == 2


def test_copy_smaller_buffers_only_the_smaller_run():
    out, _, stats = run_kernel(merge_2way_copy_smaller, [[1, 3], [2]])
    assert out == [1, 2, 3]
    assert stats.buffer_cost == 1
    out, _, stats = run_kernel(merge_2way_copy_smaller, [[5], [1, 2, 3]])
    assert out == [1, 2, 3, 5]
    assert stats.buffer_cost == 1


def test_copy_smaller_stable_in_both_directions():
    out, _, _ = run_kernel(merge_2way_copy_smaller, [[(1, "a")], [(1, "b")]], key=KEY)
    assert out == [(1, "a"), (1, "b")]
    # right run strictly smaller forces the backward path
    out, _, _ = run_kernel(
        merge_2way_copy_smaller, [[(1, "a"), (1, "b")], [(1, "c")]], key=KEY
    )
    assert out == [(1, "a"), (1, "b"), (1, "c")]


def test_no_sentinel_matches_sentinel_kernel():
    rng = random.Random(11)
    for _ in range(100):
        n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
        left = sorted(rng.randint(0, 4) for _ in range(n1))
        right = sorted(rng.randint(0, 4) for _ in range(n2))
        out_a, order_a, st_a = run_kernel(merge_2way_sentinel, [left, right])
        out_b, order_b, st_b = run_kernel(merge_2way_no_sentinel, [left, right])
        assert out_a == out_b
        # Both compare once per output until a run runs dry.
        assert order_a.comparisons == order_b.comparisons
        assert st_a.moves == st_b.moves
        assert st_a.merge_cost == st_b.merge_cost


# --- multiway kernels ------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS_BY_ARITY[3])
def test_merge3_plain(kernel):
    out, _, stats = run_kernel(kernel, [[1, 4], [2, 5], [3, 6]])
    assert out == [1, 2, 3, 4, 5, 6]
    assert stats.merge_cost == 6


@pytest.mark.parametrize("kernel", KERNELS_BY_ARITY[4])
def test_merge4_all_ties_keeps_run_order(kernel):
    regions = [[(1, "a")], [(1, "b")], [(1, "c")], [(1, "d")]]
    out, _, _ = run_kernel(kernel, regions, key=KEY)
    assert out == [(1, "a"), (1, "b"), (1, "c"), (1, "d")]


@pytest.mark.parametrize("kernel", KERNELS_BY_ARITY[4])
def test_merge4_one_long_run(kernel):
    out, _, stats = run_kernel(kernel, [[1, 2, 3, 4], [5], [6], [7]])
    assert out == [1, 2, 3, 4, 5, 6, 7]
    assert stats.merge_cost == 7


def test_stages_rollback_into_emptied_run():
    # Shaped so the rolled-back element's own run is the one that ran dry:
    # the merger must replay at the same width and still come out stable.
    before = merges.nasty_rebuilds
    out, _, _ = run_kernel(merge_4way_stages, [[1, 2], [3], [3], [4]])
    assert out == [1, 2, 3, 3, 4]
    assert merges.nasty_rebuilds > before


def test_stages_single_elements():
    out, _, _ = run_kernel(merge_4way_stages, [[1], [2], [3], [4]])
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


@pytest.mark.parametrize("kernel,arity", [(k, a) for a, ks in KERNELS_BY_ARITY.items() for k in ks])
def test_exhaustive_small_merges_match_reference(kernel, arity):
    max_total = {2: 10, 3: 9, 4: 8}[arity]
    count = 0
    for key_regions in exhaustive_cases(arity, max_total):
        uid = itertools.count()
        regions = [
            sorted(make_records_with(uid, keys), key=KEY)
            for keys in key_regions
        ]
        flat = [rec for region in regions for rec in region]
        out, _, _ = run_kernel(kernel, regions, key=KEY, pad=1)
        assert out == sorted(flat, key=KEY), (kernel.__name__, key_regions)
        assert SENTINEL not in out
        count += 1
    assert count > 1000


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_exhaustive_derived_comparisons_match_key_calls(kernel, arity):
    # The kernels count their comparisons from loop structure instead of
    # per call; a key that counts its calls sees the comparisons that ran.
    max_total = {2: 10, 3: 9, 4: 8}[arity]
    for key_regions in exhaustive_cases(arity, max_total):
        uid = itertools.count()
        regions = [
            sorted(make_records_with(uid, keys), key=KEY)
            for keys in key_regions
        ]
        spy = SpyKey()
        _, order, _ = run_kernel(kernel, regions, key=spy, pad=1)
        assert 2 * order.comparisons == spy.calls, (kernel.__name__, key_regions)


@pytest.mark.parametrize(
    "kernel,arity",
    [(k, a) for k, a in ALL_KERNELS
     if k not in (merge_3way_stages, merge_4way_stages)])
def test_raising_key_leaves_a_permutation(kernel, arity):
    # A key that raises on its j-th call, for every j the merge reaches:
    # the error propagates and the merged region still holds its input.
    max_total = {2: 8, 3: 7, 4: 7}[arity]
    for key_regions in exhaustive_cases(arity, max_total):
        regions = split_records(key_regions)
        region_input = sorted(rec for region in regions for rec in region)
        spy = SpyKey()
        run_kernel(kernel, regions, key=spy, pad=1)
        for fail_at in range(1, spy.calls + 1):
            lst, bounds = padded(regions, 1)
            order, stats = fresh_instruments(FailingKey(fail_at))
            buf = MergeBuffer((bounds[-1] - bounds[0]) + 4)
            with pytest.raises(KeyFailure):
                kernel(lst, *bounds, buf, order, stats)
            assert lst[0] == lst[-1] == "pad"
            assert sorted(lst[1:-1]) == region_input, (key_regions, fail_at)


def test_exhaustive_sweep_exercises_nasty_rollback():
    before = merges.nasty_rebuilds
    for key_regions in exhaustive_cases(4, 8):
        regions = [sorted(keys) for keys in key_regions]
        flat = sorted(x for r in regions for x in r)
        out, _, _ = run_kernel(merge_4way_stages, regions, pad=1)
        assert out == flat
    assert merges.nasty_rebuilds > before


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_randomized_large_merges_match_reference(kernel, arity):
    rng = random.Random(arity * 1000 + 17)
    for _ in range(30):
        uid = itertools.count()
        regions = [
            sorted(
                make_records_with(
                    uid, (rng.randint(0, 6) for _ in range(rng.randint(1, 400)))
                ),
                key=KEY,
            )
            for _ in range(arity)
        ]
        flat = [rec for region in regions for rec in region]
        out, _, _ = run_kernel(kernel, regions, key=KEY)
        assert out == sorted(flat, key=KEY)


# --- accounting ------------------------------------------------------------


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_merge_cost_is_output_size(kernel, arity):
    rng = random.Random(arity)
    regions = [sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 20)))
               for _ in range(arity)]
    n = sum(len(r) for r in regions)
    _, _, stats = run_kernel(kernel, regions)
    assert stats.merge_cost == n
    assert getattr(stats, "merges%d" % arity) == 1
    assert stats.merges_total == 1


@pytest.mark.parametrize(
    "kernel,arity,slack",
    [
        (merge_2way_sentinel, 2, 2),
        (merge_2way_no_sentinel, 2, 0),
        (merge_3way, 3, 3),
        (merge_3way_stages, 3, 1),
        (merge_4way_sentinel, 4, 4),
        (merge_4way_stages, 4, 1),
    ],
)
def test_copy_all_kernels_stream_2m_reads_2m_writes(kernel, arity, slack):
    rng = random.Random(arity + 100)
    regions = [sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 30)))
               for _ in range(arity)]
    n = sum(len(r) for r in regions)
    _, _, stats = run_kernel(kernel, regions)
    assert stats.buffer_cost == n
    assert stats.scan_reads == 2 * n
    assert stats.scan_writes == 2 * n + slack


def test_copy_smaller_costs():
    _, _, stats = run_kernel(merge_2way_copy_smaller, [[1, 2, 3, 4], [0]])
    assert stats.merge_cost == 5
    assert stats.buffer_cost == 1
    # backward path: 1 copied, and every slot rewritten
    assert stats.scan_reads == stats.scan_writes


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_empty_region_rejected(kernel, arity):
    lst = list(range(2 * arity))
    # first region is empty
    bounds = [0, 0] + list(range(2, 2 * arity + 1, 2))[: arity - 1]
    assert len(bounds) == arity + 1
    buf = MergeBuffer(len(lst) + 4)
    order, stats = fresh_instruments()
    with pytest.raises(ValueError):
        kernel(lst, *bounds, buf, order, stats)


@pytest.mark.parametrize("kernel,arity", ALL_KERNELS)
def test_too_small_buffer_rejected(kernel, arity):
    regions = [[1, 2], [3, 4], [5, 6], [7, 8]][:arity]
    lst = [x for r in regions for x in r]
    bounds = list(range(0, 2 * arity + 1, 2))
    buf = MergeBuffer(1)
    order, stats = fresh_instruments()
    with pytest.raises(ValueError):
        kernel(lst, *bounds, buf, order, stats)


def test_sentinel_values_never_emitted():
    # Inputs never contain the reserved value when a sentinel kernel runs
    # (the sort falls back otherwise); the kernels must not leak it either.
    out, _, _ = run_kernel(merge_4way_sentinel, [[1], [2, 2], [0], [3]])
    assert SENTINEL not in out
    assert out == [0, 1, 2, 2, 3]
