import itertools
import random

import pytest

from powersort.runs import Run, extend_run, find_first_run, insertion_sort

from conftest import (
    KEY,
    FailingKey,
    KeyFailure,
    SpyKey,
    fresh_instruments,
    is_weakly_increasing,
    make_records,
)


def test_single_element_is_a_run():
    order, stats = fresh_instruments()
    assert find_first_run([5], 0, 1, order, stats) == Run(0, 1)
    assert order.comparisons == 0


def test_equal_pair_does_not_break_an_increasing_run():
    order, stats = fresh_instruments()
    lst = [1, 2, 2, 1]
    assert find_first_run(lst, 0, 4, order, stats) == Run(0, 3)
    assert lst == [1, 2, 2, 1]


def test_strictly_decreasing_run_is_reversed_in_place():
    order, stats = fresh_instruments()
    lst = [3, 2, 1, 9]
    assert find_first_run(lst, 0, 4, order, stats) == Run(0, 3)
    assert lst == [1, 2, 3, 9]
    assert stats.moves == 3


def test_weakly_decreasing_pair_stays_an_increasing_run():
    # [2, 2] must be read as a weakly increasing run; reversing it would
    # swap equal elements.
    order, stats = fresh_instruments()
    lst = [2, 2, 1]
    assert find_first_run(lst, 0, 3, order, stats) == Run(0, 2)
    assert lst == [2, 2, 1]


def test_empty_view_rejected():
    order, stats = fresh_instruments()
    with pytest.raises(ValueError):
        find_first_run([1], 1, 1, order, stats)


def test_view_offsets_respected():
    order, stats = fresh_instruments()
    lst = [9, 0, 5, 4, 3, 7]
    assert find_first_run(lst, 2, 6, order, stats) == Run(2, 5)
    assert lst == [9, 0, 3, 4, 5, 7]


def decompose(lst, order, stats):
    runs = []
    at = 0
    while at < len(lst):
        run = find_first_run(lst, at, len(lst), order, stats)
        runs.append(run)
        at = run.end
    return runs


def test_decomposition_partitions_any_array():
    rng = random.Random(0xC0FFEE)
    for _ in range(300):
        n = rng.randint(1, 80)
        lst = [rng.randint(0, 9) for _ in range(n)]
        order, stats = fresh_instruments()
        runs = decompose(lst, order, stats)
        assert [r.begin for r in runs] == [0] + [r.end for r in runs[:-1]]
        assert runs[-1].end == n
        assert sum(r.end - r.begin for r in runs) == n
        for r in runs:
            assert is_weakly_increasing(lst[r.begin : r.end])


def test_decomposition_is_deterministic():
    rng = random.Random(7)
    lst = [rng.randint(0, 5) for _ in range(60)]
    copies = [list(lst), list(lst)]
    outcomes = []
    for copy in copies:
        order, stats = fresh_instruments()
        outcomes.append((decompose(copy, order, stats), copy))
    assert outcomes[0] == outcomes[1]


def test_detection_never_reorders_equal_records():
    # Strictness of the decreasing rule means equal keys never sit in a
    # reversed region.
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 60)
        records = make_records([rng.randint(0, 3) for _ in range(n)])
        order, stats = fresh_instruments(KEY)
        lst = list(records)
        for r in decompose(lst, order, stats):
            region = lst[r.begin : r.end]
            assert is_weakly_increasing(region, key=KEY)
            for a, b in zip(region, region[1:]):
                if a[0] == b[0]:
                    assert a[1] < b[1]


def test_detection_comparisons_on_sorted_input():
    for n in (1, 2, 10, 257):
        order, stats = fresh_instruments()
        lst = list(range(n))
        assert find_first_run(lst, 0, n, order, stats) == Run(0, n)
        assert order.comparisons == n - 1


def test_insertion_sort_basic():
    order, stats = fresh_instruments()
    lst = [2, 1]
    insertion_sort(lst, 0, 2, 1, order, stats)
    assert lst == [1, 2]


def test_insertion_sort_sorted_prefix_is_free():
    order, stats = fresh_instruments()
    lst = [1, 2, 3]
    insertion_sort(lst, 0, 3, 3, order, stats)
    assert lst == [1, 2, 3]
    assert stats.moves == 0
    assert order.comparisons == 0


def test_insertion_sort_keeps_equal_records_in_order():
    order, stats = fresh_instruments(KEY)
    lst = [(1, "a"), (1, "b")]
    insertion_sort(lst, 0, 2, 1, order, stats)
    assert lst == [(1, "a"), (1, "b")]


def test_insertion_sort_random_against_reference():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(0, 40)
        records = make_records([rng.randint(0, 5) for _ in range(n)])
        lst = list(records)
        order, stats = fresh_instruments(KEY)
        insertion_sort(lst, 0, n, 0, order, stats)
        assert lst == sorted(records, key=KEY)


def test_insertion_sort_subrange_only():
    order, stats = fresh_instruments()
    lst = [9, 3, 1, 2, 0]
    insertion_sort(lst, 1, 4, 0, order, stats)
    assert lst == [9, 1, 2, 3, 0]


def test_extend_run_long_enough_is_unchanged():
    order, stats = fresh_instruments()
    lst = list(range(30))
    run = Run(0, 30)
    assert extend_run(lst, run, 24, 30, order, stats) == run
    assert order.comparisons == 0


def test_extend_run_clamps_to_view_end():
    order, stats = fresh_instruments()
    lst = [4, 7, 9, 3, 8, 1, 0, 5, 2, 6]
    run = extend_run(lst, Run(0, 3), 24, 10, order, stats)
    assert run == Run(0, 10)
    assert lst == sorted([4, 7, 9, 3, 8, 1, 0, 5, 2, 6])


def test_extend_run_skips_sorted_prefix():
    order, stats = fresh_instruments()
    lst = [1, 5, 2, 4, 3]
    run = extend_run(lst, Run(0, 2), 4, 5, order, stats)
    assert run == Run(0, 4)
    assert lst[:4] == [1, 2, 4, 5]
    assert lst[4] == 3


# --- derived comparison counts ---------------------------------------------


def key_strings(max_len, alphabet=(0, 1, 2)):
    for n in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_exhaustive_detection_comparisons_match_key_calls():
    for keys in key_strings(6):
        n = len(keys)
        for begin in range(n):
            for end in range(begin + 1, n + 1):
                spy = SpyKey()
                order, stats = fresh_instruments(spy)
                find_first_run(make_records(keys), begin, end, order, stats)
                assert 2 * order.comparisons == spy.calls, (keys, begin, end)


def test_exhaustive_insertion_comparisons_match_key_calls():
    for keys in key_strings(7):
        records = make_records(keys)
        n = len(records)
        for begin in range(min(n, 2)):
            # A prefix of 0, and the detected run (reversed in place if it
            # was decreasing) as extend_run passes it.
            detected = list(records)
            run = find_first_run(detected, begin, n, *fresh_instruments(KEY))
            for lst, prefix in ((list(records), 0),
                                (detected, run.end - run.begin)):
                spy = SpyKey()
                order, stats = fresh_instruments(spy)
                insertion_sort(lst, begin, n, prefix, order, stats)
                assert lst[begin:] == sorted(records[begin:], key=KEY)
                assert 2 * order.comparisons == spy.calls, (keys, begin, prefix)


def test_raising_key_leaves_insertion_sort_a_permutation():
    # The element held out for insertion goes back when the key raises.
    for keys in key_strings(6):
        records = make_records(keys)
        n = len(records)
        spy = SpyKey()
        insertion_sort(list(records), 0, n, 0, *fresh_instruments(spy))
        for fail_at in range(1, spy.calls + 1):
            lst = ["pad"] + list(records) + ["pad"]
            order, stats = fresh_instruments(FailingKey(fail_at))
            with pytest.raises(KeyFailure):
                insertion_sort(lst, 1, n + 1, 0, order, stats)
            assert lst[0] == lst[-1] == "pad"
            assert sorted(lst[1:-1]) == sorted(records), (keys, fail_at)
