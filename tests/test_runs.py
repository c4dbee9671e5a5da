import itertools
import random
from bisect import bisect_right

import pytest

from powersort.runs import (
    _SCAN_INLINE,
    _TABLE_ROWS,
    _insertion_rows,
    extend_run,
    find_first_run,
    insertion_sort,
)

from conftest import (
    KEY,
    FailingKey,
    KeyFailure,
    LeSpyKey,
    LeTally,
    SpyKey,
    fresh_instruments,
    is_weakly_increasing,
    make_records,
)


def test_single_element_is_a_run():
    order, stats = fresh_instruments()
    assert find_first_run([5], 0, 1, order, stats) == 1
    assert order.comparisons == 0


def test_equal_pair_does_not_break_an_increasing_run():
    order, stats = fresh_instruments()
    lst = [1, 2, 2, 1]
    assert find_first_run(lst, 0, 4, order, stats) == 3
    assert lst == [1, 2, 2, 1]


def test_strictly_decreasing_run_is_reversed_in_place():
    order, stats = fresh_instruments()
    lst = [3, 2, 1, 9]
    assert find_first_run(lst, 0, 4, order, stats) == 3
    assert lst == [1, 2, 3, 9]
    assert stats.moves == 3


def test_weakly_decreasing_pair_stays_an_increasing_run():
    # [2, 2] must be read as a weakly increasing run; reversing it would
    # swap equal elements.
    order, stats = fresh_instruments()
    lst = [2, 2, 1]
    assert find_first_run(lst, 0, 3, order, stats) == 2
    assert lst == [2, 2, 1]


def test_empty_view_rejected():
    order, stats = fresh_instruments()
    with pytest.raises(ValueError):
        find_first_run([1], 1, 1, order, stats)


def test_view_offsets_respected():
    order, stats = fresh_instruments()
    lst = [9, 0, 5, 4, 3, 7]
    assert find_first_run(lst, 2, 6, order, stats) == 5
    assert lst == [9, 0, 3, 4, 5, 7]


def decompose(lst, order, stats):
    runs = []
    at = 0
    while at < len(lst):
        end = find_first_run(lst, at, len(lst), order, stats)
        runs.append((at, end))
        at = end
    return runs


def test_decomposition_partitions_any_array():
    rng = random.Random(0xC0FFEE)
    for _ in range(300):
        n = rng.randint(1, 80)
        lst = [rng.randint(0, 9) for _ in range(n)]
        order, stats = fresh_instruments()
        runs = decompose(lst, order, stats)
        assert [b for b, _ in runs] == [0] + [e for _, e in runs[:-1]]
        assert runs[-1][1] == n
        assert sum(e - b for b, e in runs) == n
        for b, e in runs:
            assert is_weakly_increasing(lst[b:e])


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
        for b, e in decompose(lst, order, stats):
            region = lst[b:e]
            assert is_weakly_increasing(region, key=KEY)
            for a, b in zip(region, region[1:]):
                if a[0] == b[0]:
                    assert a[1] < b[1]


def test_detection_comparisons_on_sorted_input():
    for n in (1, 2, 10, 257):
        order, stats = fresh_instruments()
        lst = list(range(n))
        assert find_first_run(lst, 0, n, order, stats) == n
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
    assert extend_run(lst, 0, 30, 24, 30, order, stats) == 30
    assert order.comparisons == 0


def test_extend_run_clamps_to_view_end():
    order, stats = fresh_instruments()
    lst = [4, 7, 9, 3, 8, 1, 0, 5, 2, 6]
    assert extend_run(lst, 0, 3, 24, 10, order, stats) == 10
    assert lst == sorted([4, 7, 9, 3, 8, 1, 0, 5, 2, 6])


def test_extend_run_skips_sorted_prefix():
    order, stats = fresh_instruments()
    lst = [1, 5, 2, 4, 3]
    assert extend_run(lst, 0, 2, 4, 5, order, stats) == 4
    assert lst[:4] == [1, 2, 4, 5]
    assert lst[4] == 3


# --- derived comparison counts ---------------------------------------------


def key_strings(max_len, alphabet=(0, 1, 2)):
    for n in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_exhaustive_detection_comparisons_match_key_calls():
    # Detection holds the previous element's key, so it keys each element
    # it scans once: the run's and the one that ended it, if any.
    for keys in key_strings(6):
        n = len(keys)
        for begin in range(n):
            for end in range(begin + 1, n + 1):
                spy = LeSpyKey()
                order, stats = fresh_instruments(spy)
                run_end = find_first_run(make_records(keys), begin, end, order,
                                         stats)
                case = (keys, begin, end)
                # Detection decides with ``<=`` only.
                assert (order.comparisons, spy.lt_calls) == (spy.le_calls, 0), case
                scanned = run_end - begin + (run_end < end)
                assert spy.calls == (scanned if scanned > 1 else 0), case


def reference_run_end(values, begin, end):
    """The end of the run at ``begin`` in the view [begin, end), found by
    one comparison per pair."""
    i = begin + 1
    if i < end:
        ascending = values[begin] <= values[i]
        while i + 1 < end and (values[i] <= values[i + 1]) == ascending:
            i += 1
        i += 1
    return i


@pytest.mark.parametrize("truthy", [False, True], ids=["bool", "truthy"])
@pytest.mark.parametrize("descending", [False, True],
                         ids=["ascending", "descending"])
@pytest.mark.parametrize("length", [31, 32, 33, 100, 1000])
def test_unkeyed_tail_matches_the_loop(length, descending, truthy):
    # Past _SCAN_INLINE elements an unkeyed run is finished in C: the run
    # end, the reversal and the ``<=`` calls are the loop's, and no ``<``
    # runs.  Ascending runs hold equal pairs; descending ones end at one.
    # Views end inside the run, at it, one past it and at the list's end.
    assert _SCAN_INLINE == 32
    if descending:
        run, after = list(range(length, 0, -1)), [1, 1, 0, 5]
    else:
        run, after = [i // 2 for i in range(length)], [-1, 7, 8]
    pad = [50, -50, 50]
    begin = len(pad)
    cases = [(pad + run + after, end) for end in (
        begin + length - 1, begin + length, begin + length + 1,
        begin + length + len(after))]
    cases.append((pad + run, begin + length))
    for values, end in cases:
        tally = LeTally(truthy)
        lst = tally.wrap(values)
        order, stats = fresh_instruments()
        got = find_first_run(lst, begin, end, order, stats)
        stop = reference_run_end(values, begin, end)
        case = (length, end, len(values))
        assert got == stop, case
        assert order.comparisons == tally.le_calls, case
        assert order.comparisons == stop - begin - 1 + (stop < end), case
        assert tally.lt_calls == 0, case
        region = values[begin:stop]
        expected = (values[:begin] + (region[::-1] if descending else region)
                    + values[stop:])
        assert [x.value for x in lst] == expected, case


@pytest.mark.parametrize("grow", [True, False], ids=["append", "pop"])
def test_list_modified_in_the_unkeyed_tail_raises(grow):
    # After a pop the tail's iterators stop short and would report a run
    # to the old end, past the list's; after an append they read on.
    values = [0, 0] + list(range(100)) + [-1]
    for at in range(_SCAN_INLINE, 101):
        tally = LeTally()
        lst = tally.wrap(values)
        tally.at = at
        tally.action = (lambda: lst.append(lst[0])) if grow else lst.pop
        with pytest.raises(ValueError, match="list modified"):
            find_first_run(lst, 2, len(values), *fresh_instruments())


def test_exhaustive_insertion_comparisons_match_key_calls():
    for keys in key_strings(7):
        records = make_records(keys)
        n = len(records)
        for begin in range(min(n, 2)):
            # A prefix of 0, and the detected run (reversed in place if it
            # was decreasing) as extend_run passes it.
            detected = list(records)
            run_end = find_first_run(detected, begin, n,
                                     *fresh_instruments(KEY))
            for lst, prefix in ((list(records), 0),
                                (detected, run_end - begin)):
                spy = LeSpyKey()
                order, stats = fresh_instruments(spy)
                insertion_sort(lst, begin, n, prefix, order, stats)
                case = (keys, begin, prefix)
                assert lst[begin:] == sorted(records[begin:], key=KEY)
                # bisect_right decides with ``<`` only, and the probe table
                # counts every ``<`` it ran.
                assert (order.comparisons, spy.le_calls) == (spy.lt_calls, 0), case
                # The whole region is keyed once if anything is inserted,
                # and not at all otherwise.
                inserted = n - begin > max(prefix, 1)
                assert spy.calls == (n - begin if inserted else 0), case


class CoinKey:
    """A key whose ``<`` answers from a seeded RNG and counts its calls."""

    def __init__(self, rng):
        self.rng = rng
        self.lt_calls = 0

    def __lt__(self, other):
        self.lt_calls += 1
        return self.rng.random() < 0.5


def test_insertion_rows_match_a_counting_bisect():
    # For every (i, pos) in the table and past it, a row entry holds the
    # ``<`` calls of a bisect_right over i keys that returns pos, and the
    # in-place algorithm's moves for that insertion.
    stop = _TABLE_ROWS + 40
    for i, row in zip(range(stop), _insertion_rows(0, stop)):
        for pos in range(i + 1):
            spy = LeSpyKey()
            keys = [spy((0,))] * pos + [spy((2,))] * (i - pos)
            assert bisect_right(keys, spy((1,))) == pos
            assert row[pos] == (spy.lt_calls, i - pos + 1 if pos != i else 0)


def test_insertion_rows_hold_for_an_inconsistent_order():
    # bisect_right's path is fixed by the position it returns, whatever
    # ``<`` answers, so the row entry still counts the probes.
    rng = random.Random(5)
    stop = _TABLE_ROWS + 40
    for i, row in zip(range(stop), _insertion_rows(0, stop)):
        for _ in range(20):
            x = CoinKey(rng)
            pos = bisect_right([None] * i, x)
            assert row[pos][0] == x.lt_calls, (i, pos)


def test_raising_key_leaves_insertion_sort_a_permutation():
    # The region is sorted in a copy: a raising key leaves it as it was.
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
            assert lst[1:-1] == records, (keys, fail_at)


class FailingLtKey:
    """``KEY`` whose keys' ``<`` raises ``KeyFailure`` on the ``fail_at``-th
    call across all of them."""

    def __init__(self, fail_at):
        self.lt_calls = 0
        self.fail_at = fail_at

    def __call__(self, record):
        return _FailingLt(record[0], self)


class _FailingLt:
    __slots__ = ("key", "spy")

    def __init__(self, key, spy):
        self.key = key
        self.spy = spy

    def __lt__(self, other):
        self.spy.lt_calls += 1
        if self.spy.lt_calls == self.spy.fail_at:
            raise KeyFailure(self.spy.fail_at)
        return self.key < other.key


def test_raising_lt_leaves_insertion_sort_untouched():
    for keys in key_strings(6):
        records = make_records(keys)
        n = len(records)
        spy = FailingLtKey(0)
        insertion_sort(list(records), 0, n, 0, *fresh_instruments(spy))
        for fail_at in range(1, spy.lt_calls + 1):
            lst = list(records)
            order, stats = fresh_instruments(FailingLtKey(fail_at))
            with pytest.raises(KeyFailure):
                insertion_sort(lst, 0, n, 0, order, stats)
            assert lst == records, (keys, fail_at)
            assert (order.comparisons, stats.moves) == (0, 0)
