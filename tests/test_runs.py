import itertools
import os
import random
import subprocess
import sys
from bisect import bisect_right

import pytest

from powersort.merges import _CHUNK
from powersort.runs import (
    _PROBE_BITS,
    _SCAN_INLINE,
    MIN_RUN_LEN,
    _insertion_table,
    extend_run,
    find_first_run,
    insertion_sort,
)

from conftest import (
    KEY,
    FailingKey,
    KeyFailure,
    LtSpyKey,
    LtTally,
    SpyKey,
    fresh_instruments,
    is_weakly_increasing,
    make_records,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_single_element_is_a_run():
    stats = fresh_instruments()
    assert find_first_run([5], 0, 1, None, stats) == 1
    assert stats.comparisons == 0


def test_equal_pair_does_not_break_an_increasing_run():
    stats = fresh_instruments()
    lst = [1, 2, 2, 1]
    assert find_first_run(lst, 0, 4, None, stats) == 3
    assert lst == [1, 2, 2, 1]


def test_strictly_decreasing_run_is_reversed_in_place():
    # One test id for every length.  Runs shorter than two chunks reverse
    # with one slice; longer ones swap chunks from both ends first.
    for length in (3, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1,
                   4 * _CHUNK + 3):
        stats = fresh_instruments()
        lst = list(range(length, 0, -1)) + [length + 6]
        assert find_first_run(lst, 0, len(lst), None, stats) == length
        assert lst == list(range(1, length + 1)) + [length + 6], length
        assert stats.moves == length
        assert stats.comparisons == length  # length - 1 pairs, and the end


def test_reversal_never_lengthens_a_shortened_list():
    # A key that pops two elements while detection scans a run longer than
    # two chunks: the run now ends past the list, and reversing it chunk by
    # chunk would write past the end; it raises before it writes.
    length = 2 * _CHUNK + 5
    lst = make_records(range(length, 0, -1)) + [(length + 1, -1)]
    spy = SpyKey()

    def popping_key(record):
        spy(record)
        if spy.calls == length + 1:  # the key of the element after the run
            del lst[-2:]
        return record[0]

    with pytest.raises(IndexError, match="past the end"):
        find_first_run(lst, 0, length + 1, popping_key, fresh_instruments())
    assert lst == make_records(range(length, 0, -1))[:-1]


def test_weakly_decreasing_pair_stays_an_increasing_run():
    # [2, 2] must be read as a weakly increasing run; reversing it would
    # swap equal elements.
    stats = fresh_instruments()
    lst = [2, 2, 1]
    assert find_first_run(lst, 0, 3, None, stats) == 2
    assert lst == [2, 2, 1]


def test_empty_view_rejected():
    stats = fresh_instruments()
    with pytest.raises(ValueError):
        find_first_run([1], 1, 1, None, stats)


def test_view_offsets_respected():
    stats = fresh_instruments()
    lst = [9, 0, 5, 4, 3, 7]
    assert find_first_run(lst, 2, 6, None, stats) == 5
    assert lst == [9, 0, 3, 4, 5, 7]


def decompose(lst, key, stats):
    runs = []
    at = 0
    while at < len(lst):
        end = find_first_run(lst, at, len(lst), key, stats)
        runs.append((at, end))
        at = end
    return runs


def test_decomposition_partitions_any_array():
    rng = random.Random(0xC0FFEE)
    for _ in range(300):
        n = rng.randint(1, 80)
        lst = [rng.randint(0, 9) for _ in range(n)]
        stats = fresh_instruments()
        runs = decompose(lst, None, stats)
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
        stats = fresh_instruments()
        outcomes.append((decompose(copy, None, stats), copy))
    assert outcomes[0] == outcomes[1]


def test_detection_never_reorders_equal_records():
    # Strictness of the decreasing rule means equal keys never sit in a
    # reversed region.
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 60)
        records = make_records([rng.randint(0, 3) for _ in range(n)])
        stats = fresh_instruments()
        lst = list(records)
        for b, e in decompose(lst, KEY, stats):
            region = lst[b:e]
            assert is_weakly_increasing(region, key=KEY)
            for a, b in zip(region, region[1:]):
                if a[0] == b[0]:
                    assert a[1] < b[1]


def test_detection_comparisons_on_sorted_input():
    for n in (1, 2, 10, 257):
        stats = fresh_instruments()
        lst = list(range(n))
        assert find_first_run(lst, 0, n, None, stats) == n
        assert stats.comparisons == n - 1


def test_insertion_sort_basic():
    stats = fresh_instruments()
    lst = [2, 1]
    insertion_sort(lst, 0, 2, 1, None, stats)
    assert lst == [1, 2]


def test_insertion_sort_sorted_prefix_is_free():
    stats = fresh_instruments()
    lst = [1, 2, 3]
    insertion_sort(lst, 0, 3, 3, None, stats)
    assert lst == [1, 2, 3]
    assert stats.moves == 0
    assert stats.comparisons == 0


def test_insertion_sort_keeps_equal_records_in_order():
    stats = fresh_instruments()
    lst = [(1, "a"), (1, "b")]
    insertion_sort(lst, 0, 2, 1, KEY, stats)
    assert lst == [(1, "a"), (1, "b")]


def test_insertion_sort_random_against_reference():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(0, 40)
        records = make_records([rng.randint(0, 5) for _ in range(n)])
        lst = list(records)
        stats = fresh_instruments()
        insertion_sort(lst, 0, n, 0, KEY, stats)
        assert lst == sorted(records, key=KEY)


def test_insertion_sort_subrange_only():
    stats = fresh_instruments()
    lst = [9, 3, 1, 2, 0]
    insertion_sort(lst, 1, 4, 0, None, stats)
    assert lst == [9, 1, 2, 3, 0]


def test_extend_run_long_enough_is_unchanged():
    stats = fresh_instruments()
    lst = list(range(30))
    assert extend_run(lst, 0, 30, 24, 30, None, stats) == 30
    assert stats.comparisons == 0


def test_extend_run_clamps_to_view_end():
    stats = fresh_instruments()
    lst = [4, 7, 9, 3, 8, 1, 0, 5, 2, 6]
    assert extend_run(lst, 0, 3, 24, 10, None, stats) == 10
    assert lst == sorted([4, 7, 9, 3, 8, 1, 0, 5, 2, 6])


def test_extend_run_skips_sorted_prefix():
    stats = fresh_instruments()
    lst = [1, 5, 2, 4, 3]
    assert extend_run(lst, 0, 2, 4, 5, None, stats) == 4
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
                spy = LtSpyKey()
                stats = fresh_instruments()
                run_end = find_first_run(make_records(keys), begin, end, spy,
                                         stats)
                case = (keys, begin, end)
                assert stats.comparisons == spy.lt_calls, case
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
    # end, the reversal and the ``<`` calls are the loop's.  Ascending runs
    # hold equal pairs; descending ones end at one.
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
        tally = LtTally(truthy)
        lst = tally.wrap(values)
        stats = fresh_instruments()
        got = find_first_run(lst, begin, end, None, stats)
        stop = reference_run_end(values, begin, end)
        case = (length, end, len(values))
        assert got == stop, case
        assert stats.comparisons == tally.lt_calls, case
        assert stats.comparisons == stop - begin - 1 + (stop < end), case
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
        tally = LtTally()
        lst = tally.wrap(values)
        tally.at = at
        tally.action = (lambda: lst.append(lst[0])) if grow else lst.pop
        with pytest.raises(ValueError, match="list modified"):
            find_first_run(lst, 2, len(values), None, fresh_instruments())


def test_exhaustive_insertion_comparisons_match_key_calls():
    for keys in key_strings(7):
        records = make_records(keys)
        n = len(records)
        for begin in range(min(n, 2)):
            # A prefix of 0, and the detected run (reversed in place if it
            # was decreasing) as extend_run passes it.
            detected = list(records)
            run_end = find_first_run(detected, begin, n,
                                     KEY, fresh_instruments())
            for lst, prefix in ((list(records), 0),
                                (detected, run_end - begin)):
                spy = LtSpyKey()
                stats = fresh_instruments()
                insertion_sort(lst, begin, n, prefix, spy, stats)
                case = (keys, begin, prefix)
                assert lst[begin:] == sorted(records[begin:], key=KEY)
                # The probe table counts every ``<`` bisect_right ran.
                assert stats.comparisons == spy.lt_calls, case
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
    # For every (i, pos) in the table, a row entry holds the ``<`` calls of
    # a bisect_right over i keys that returns pos, and the in-place
    # algorithm's moves for that insertion, packed above the probes.
    table = _insertion_table()
    assert len(table) == MIN_RUN_LEN
    for i, row in enumerate(table):
        assert len(row) == i + 1
        for pos in range(i + 1):
            spy = LtSpyKey()
            keys = [spy((0,))] * pos + [spy((2,))] * (i - pos)
            assert bisect_right(keys, spy((1,))) == pos
            unpacked = (row[pos] & ((1 << _PROBE_BITS) - 1),
                        row[pos] >> _PROBE_BITS)
            assert unpacked == (spy.lt_calls, i - pos + 1 if pos != i else 0)


def test_insertion_rows_hold_for_an_inconsistent_order():
    # bisect_right's path is fixed by the position it returns, whatever
    # ``<`` answers, so the row entry still counts the probes.
    rng = random.Random(5)
    mask = (1 << _PROBE_BITS) - 1
    for i, row in enumerate(_insertion_table()):
        for _ in range(20):
            x = CoinKey(rng)
            pos = bisect_right([None] * i, x)
            assert row[pos] & mask == x.lt_calls, (i, pos)


def test_region_past_the_insertion_table_is_refused():
    # The table counts regions of up to MIN_RUN_LEN elements; a longer one
    # is refused before the list is touched, not cut short by the table.
    values = list(range(MIN_RUN_LEN + 1, 0, -1)) + [0]
    for key in (None, KEY):
        lst = list(values) if key is None else make_records(values)
        before = list(lst)
        stats = fresh_instruments()
        with pytest.raises(ValueError, match="longer than"):
            insertion_sort(lst, 0, MIN_RUN_LEN + 1, 0, key, stats)
        with pytest.raises(ValueError, match="longer than"):
            extend_run(lst, 0, 1, MIN_RUN_LEN + 1, len(lst), key, stats)
        assert lst == before
        assert (stats.comparisons, stats.moves) == (0, 0)
    # A region of MIN_RUN_LEN is the longest taken.
    lst = list(values)
    assert extend_run(lst, 1, 2, MIN_RUN_LEN, len(lst), None,
                      fresh_instruments()) == MIN_RUN_LEN + 1
    assert lst == values[:1] + sorted(values[1:-1]) + [0]


def test_importing_the_package_builds_no_insertion_table():
    # The table is built on the first insertion sort, so an import that
    # sorts nothing pays nothing for it.
    code = ("import powersort\n"
            "print(powersort.runs._insertion_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC)).stdout
    assert out.strip() == "0"


def test_raising_key_leaves_insertion_sort_a_permutation():
    # The region is sorted in a copy: a raising key leaves it as it was.
    for keys in key_strings(6):
        records = make_records(keys)
        n = len(records)
        spy = SpyKey()
        insertion_sort(list(records), 0, n, 0, spy, fresh_instruments())
        for fail_at in range(1, spy.calls + 1):
            lst = ["pad"] + list(records) + ["pad"]
            stats = fresh_instruments()
            with pytest.raises(KeyFailure):
                insertion_sort(lst, 1, n + 1, 0, FailingKey(fail_at), stats)
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
        insertion_sort(list(records), 0, n, 0, spy, fresh_instruments())
        for fail_at in range(1, spy.lt_calls + 1):
            lst = list(records)
            stats = fresh_instruments()
            with pytest.raises(KeyFailure):
                insertion_sort(lst, 0, n, 0, FailingLtKey(fail_at), stats)
            assert lst == records, (keys, fail_at)
            assert (stats.comparisons, stats.moves) == (0, 0)
