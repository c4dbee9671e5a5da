import random

import pytest

from powersort.policy import SortConfig, stable_sort_with
from powersort.statskit import (
    CountingOrder,
    SortStats,
    scanned_elements_estimate,
)


def test_scanned_estimate_formula():
    stats = SortStats()
    assert scanned_elements_estimate(stats, 10) == 20
    stats.merge_cost = 6
    assert scanned_elements_estimate(stats, 6) == 36


def test_scanned_estimate_reference_instance():
    # One 4-way sort of 1e8 elements with merge cost 678,233,797 streams
    # about 2.913e9 element accesses; at 16 elements per cache line that is
    # within ~0.1% of the 90,998,034 + 90,941,221 line misses measured for
    # that instance.
    stats = SortStats()
    stats.merge_cost = 678_233_797
    n = 10**8
    estimate = scanned_elements_estimate(stats, n)
    assert estimate == 2_912_935_188
    lines = estimate / 16
    measured = 90_998_034 + 90_941_221
    assert abs(lines / measured - 1.0) < 2e-3


def test_counting_order_counts_element_comparisons():
    order = CountingOrder()
    assert order.le(1, 2) and not order.le(3, 2) and order.le(2, 2)
    assert order.comparisons == 3


def test_counting_order_key_extraction():
    order = CountingOrder(key=lambda rec: rec["k"])
    assert order.le({"k": 1, "x": 9}, {"k": 1, "x": 0})
    assert order.comparisons == 1


class Strict:
    """A key type that refuses to compare with any other type."""

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        if not isinstance(other, Strict):
            raise TypeError("Strict compared with %r" % (other,))
        return self.value < other.value


@pytest.mark.parametrize("variant", ["2way", "4way", "2way-copy-smaller"])
def test_admitted_sort_never_shows_a_user_key_the_sentinel(variant):
    # A merge's own sentinel never reaches the user's key, nor ``<``:
    # keyed, the key sees only input elements and its keys meet only their
    # own kind; unkeyed, the elements themselves refuse any other type.
    rng = random.Random(15)
    values = [rng.randint(0, 20) for _ in range(300)]
    seen = []

    def key(x):
        seen.append(x)
        return Strict(x)

    k = 4 if variant == "4way" else 2
    lst = list(values)
    stable_sort_with(lst, SortConfig(k=k, variant=variant, key=key,
                                     min_run_len=4))
    assert lst == sorted(values)
    assert seen and all(type(x) is int for x in seen)
    lst = [Strict(v) for v in values]
    stable_sort_with(lst, SortConfig(k=k, variant=variant, min_run_len=4))
    assert [x.value for x in lst] == sorted(values)


def test_counters_monotone_during_sort(monkeypatch):
    rng = random.Random(12)
    lst = [rng.randint(0, 999) for _ in range(5000)]
    stats_holder = {}
    seen = []

    def watch(_entry):
        st = stats_holder["stats"]
        seen.append(
            (st.comparisons, st.merge_cost, st.buffer_cost, st.moves,
             st.scan_reads, st.scan_writes)
        )

    # Capture the sort's own stats object as it is created, so the merge
    # hook can snapshot the counters mid-sort.
    from powersort import policy

    class Spy(SortStats):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            stats_holder["stats"] = self

    monkeypatch.setattr(policy, "SortStats", Spy)
    stats = stable_sort_with(lst, SortConfig(min_run_len=1, on_merge=watch))
    assert len(seen) > 2
    assert all(a <= b for a, b in zip(seen, seen[1:]))
    # Comparisons are live too: the last merge leaves the final tally.
    assert seen[-1][0] == stats.comparisons > 0


def test_merge_cost_equals_trace_total():
    rng = random.Random(13)
    for _ in range(30):
        lst = [rng.randint(0, 50) for _ in range(rng.randint(1, 500))]
        trace = []
        stats = stable_sort_with(
            lst, SortConfig(min_run_len=1, on_merge=trace.append)
        )
        assert stats.merge_cost == sum(length for _, length in trace)


def test_buffer_cost_vs_merge_cost_relations():
    rng = random.Random(14)
    lst = [rng.randint(0, 9999) for _ in range(4000)]
    copy_all = stable_sort_with(
        list(lst), SortConfig(k=2, variant="2way", min_run_len=1)
    )
    assert copy_all.buffer_cost == copy_all.merge_cost
    smaller = stable_sort_with(
        list(lst), SortConfig(k=2, variant="2way-copy-smaller", min_run_len=1)
    )
    assert smaller.merge_cost == copy_all.merge_cost
    assert smaller.buffer_cost < smaller.merge_cost
