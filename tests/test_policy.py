import array
import random
import sys
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from powersort import oracle, policy, runs
from powersort.harness import GeneratorSpec, generate
from powersort.merges import _CHUNK
from powersort.policy import (
    MIN_RUN_LEN,
    SortConfig,
    VARIANTS,
    merge_cost_for_profile,
    merge_schedule,
    stable_sort,
    stable_sort_with,
)
from powersort.power import run_stack_capacity
from powersort.runs import _TABLE_ROWS
from powersort.statskit import SortStats

from conftest import (
    KEY,
    FailingKey,
    KeyFailure,
    LtSpyKey,
    LtTally,
    SpyKey,
    Top,
    assert_stable_sorted,
    make_records,
)

ALL_VARIANTS = sorted(VARIANTS)


def config_for(variant, **kw):
    return SortConfig(k=VARIANTS[variant].k, variant=variant, **kw)


# --- anchors ----------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 24, 100, 1000])
def test_sorted_input_costs_nothing(variant, n):
    lst = list(range(n))
    stats = stable_sort_with(lst, config_for(variant))
    assert lst == list(range(n))
    assert stats.merge_cost == 0
    assert stats.comparisons == n - 1
    assert stats.max_stack_height <= 1
    assert stats.runs_detected == 1


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_reverse_input_is_one_reversed_run(variant):
    n = 500
    lst = list(range(n - 1, -1, -1))
    stats = stable_sort_with(lst, config_for(variant, min_run_len=1))
    assert lst == list(range(n))
    assert stats.merge_cost == 0
    assert stats.comparisons == n - 1


def test_empty_and_singleton():
    for lst in ([], [7]):
        out = list(lst)
        stats = stable_sort_with(out, SortConfig())
        assert out == lst
        assert stats.merge_cost == 0


# --- hand-traced merge schedules -------------------------------------------


def test_profile_2_2_4_8_binary_schedule():
    lst = oracle.realize_profile([2, 2, 4, 8])
    trace = []
    stats = stable_sort_with(
        lst,
        config_for("2way", min_run_len=1, on_merge=trace.append),
    )
    assert lst == sorted(lst)
    assert stats.run_lengths == [2, 2, 4, 8]
    assert [length for _, length in trace] == [4, 8, 16]
    assert stats.merge_cost == 28


def test_profile_2_2_4_8_quaternary_schedule():
    lst = oracle.realize_profile([2, 2, 4, 8])
    trace = []
    stats = stable_sort_with(
        lst,
        config_for("4way", min_run_len=1, on_merge=trace.append),
    )
    assert lst == sorted(lst)
    # one 2-way merge of the two short runs, then a final 3-way merge
    assert [(len(bounds) - 1, length) for bounds, length in trace] == [
        (2, 4),
        (3, 16),
    ]
    assert stats.merge_cost == 20
    assert stats.merges2 == 1 and stats.merges3 == 1 and stats.merges4 == 0


def test_equal_power_group_merges_as_one_4way():
    # Three stacked runs with equal power plus the current run collapse in a
    # single 4-way merge once a lower power arrives.  The first three
    # boundary midpoint intervals of this profile each contain one of the
    # sixteenth marks 1/16, 2/16, 3/16 but no quarter mark; the fourth
    # contains 1/4.
    profile = [4, 4, 4, 4, 48]
    from powersort.power import boundary_powers

    assert boundary_powers(profile, 4) == [2, 2, 2, 1]
    lst = oracle.realize_profile(profile)
    trace = []
    stats = stable_sort_with(
        lst, config_for("4way", min_run_len=1, on_merge=trace.append)
    )
    assert lst == sorted(lst)
    assert (len(trace[0][0]) - 1, trace[0][1]) == (4, 16)
    assert stats.merges4 == 1


def test_cascade_merges_innermost_power_group_first():
    # Powers run [2, 3, 1]: the third boundary undercuts two stacked levels
    # at once, so one arrival triggers two merges, topmost group first.
    profile = [4, 2, 2, 8]
    from powersort.power import boundary_powers

    assert boundary_powers(profile, 2) == [2, 3, 1]
    lst = oracle.realize_profile(profile)
    trace = []
    stable_sort_with(lst, config_for("2way", min_run_len=1, on_merge=trace.append))
    assert lst == sorted(lst)
    assert trace == [((4, 6, 8), 4), ((0, 4, 8), 8), ((0, 8, 16), 16)]


# --- merge_down -------------------------------------------------------------


def final_stack_profile(heights):
    """A profile whose boundary powers weakly increase left to right, so
    nothing merges until the final collapse and the stack ends at the given
    height.  Halving run lengths left to right does exactly that."""
    return [2 ** (heights - i) for i in range(heights + 1)]


@pytest.mark.parametrize(
    "stack_runs,expected_arities",
    [
        (4, [4]),          # 3j + 1 already
        (5, [2, 4]),       # one 2-way, then 4-way
        (6, [3, 4]),       # one 3-way, then 4-way
        (7, [4, 4]),
        (9, [3, 4, 4]),
    ],
)
def test_merge_down_normalizes_to_3j_plus_1(stack_runs, expected_arities):
    profile = final_stack_profile(stack_runs - 1)
    from powersort.power import boundary_powers

    powers = boundary_powers(profile, 4)
    assert powers == sorted(powers), "profile must stack without merging"
    lst = oracle.realize_profile(profile)
    trace = []
    stable_sort_with(lst, config_for("4way", min_run_len=1, on_merge=trace.append))
    assert lst == sorted(lst)
    assert [len(bounds) - 1 for bounds, _ in trace] == expected_arities


@pytest.mark.parametrize(
    "stack_runs,expected_arities",
    [
        (6, [4, 3]),   # pop 3, then the remaining 2
        (7, [4, 4]),
        (5, [4, 2]),
    ],
)
def test_merge_down_strict_pops_up_to_k_minus_1(stack_runs, expected_arities):
    profile = final_stack_profile(stack_runs - 1)
    lst = oracle.realize_profile(profile)
    trace = []
    stable_sort_with(
        lst,
        config_for(
            "4way", min_run_len=1, strict_merge_down=True, on_merge=trace.append
        ),
    )
    assert lst == sorted(lst)
    assert [len(bounds) - 1 for bounds, _ in trace] == expected_arities


@pytest.mark.parametrize(
    "stack_runs,strict,expected_arities",
    [
        (8, False, [8]),          # 7j + 1 already
        (10, False, [3, 8]),      # one 3-way, then 8-way
        (16, False, [2, 8, 8]),
        (10, True, [8, 3]),       # strict: pop 7, then the remaining 2
    ],
)
def test_merge_down_at_k8_on_profiles(stack_runs, strict, expected_arities):
    # The profile cost serves k = 8, and its collapse first normalizes to
    # (k - 1)j + 1 runs by the same rule as k = 4.
    trace = []
    merge_cost_for_profile(final_stack_profile(stack_runs - 1), 8,
                           strict_merge_down=strict, on_merge=trace.append)
    assert [len(bounds) - 1 for bounds, _ in trace] == expected_arities


def test_merge_down_k2_is_repeated_2way():
    profile = final_stack_profile(3)
    lst = oracle.realize_profile(profile)
    trace = []
    stable_sort_with(lst, config_for("2way", min_run_len=1, on_merge=trace.append))
    assert lst == sorted(lst)
    assert [len(bounds) - 1 for bounds, _ in trace] == [2, 2, 2]


# --- correctness and stability ---------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("min_run_len", [1, 24, MIN_RUN_LEN])
def test_random_records_sort_stably(variant, min_run_len):
    rng = random.Random(sum(map(ord, variant)) * 100 + min_run_len)
    for _ in range(60):
        n = rng.randint(0, 300)
        records = make_records([rng.randint(0, 6) for _ in range(n)])
        lst = list(records)
        stable_sort_with(
            lst, config_for(variant, min_run_len=min_run_len, key=KEY)
        )
        assert_stable_sorted(lst, records)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_min_run_len_past_the_insertion_table(variant):
    # Regions longer than the insertion table's rows walk bisect_right's
    # path instead; the counts still equal the comparisons that ran.
    min_run_len = _TABLE_ROWS + 36
    rng = random.Random(41)
    records = make_records([rng.randint(0, 50) for _ in range(700)])
    lst = list(records)
    spy = LtSpyKey()
    stats = stable_sort_with(
        lst, config_for(variant, min_run_len=min_run_len, key=spy))
    assert_stable_sorted(lst, records)
    assert max(stats.run_lengths) == min_run_len
    assert stats.comparisons == spy.lt_calls


def test_default_min_run_len_stays_in_the_insertion_table(monkeypatch):
    # Every insertion of a default sort is counted from the insertion
    # table; a region past it would walk _PathRow in Python, several times
    # slower per insertion.
    class Unreachable:
        def __init__(self, i):
            raise AssertionError("_PathRow(%d) reached" % i)

    runs._insertion_table()
    monkeypatch.setattr(runs, "_PathRow", Unreachable)
    rng = random.Random(47)
    values = list(range(1000))
    rng.shuffle(values)
    for variant in ALL_VARIANTS:
        lst = list(values)
        stats = stable_sort_with(lst, config_for(variant))
        assert lst == sorted(values)
        assert max(stats.run_lengths) == MIN_RUN_LEN


def test_stable_sort_default_entrypoint():
    records = make_records([3, 1, 3, 1, 2, 2, 3])
    lst = list(records)
    stable_sort(lst, key=KEY)
    assert_stable_sorted(lst, records)


def test_duplicate_only_input():
    lst = [(0, i) for i in range(100)]
    stats = stable_sort_with(lst, SortConfig(key=KEY, min_run_len=1))
    assert lst == [(0, i) for i in range(100)]
    assert stats.merge_cost == 0


# --- no reserved value -----------------------------------------------------


def test_no_input_value_is_reserved():
    # A value that sorts after every other is sorted like any other, and
    # every variant runs its own kernels on it: the sentinel kernels write
    # their reserved slots (one per run) next to the buffered runs.
    rng = random.Random(5)
    base = [rng.randint(0, 50) for _ in range(200)]
    base[37] = base[150] = Top
    for variant in ALL_VARIANTS:
        lst = list(base)
        stats = stable_sort_with(lst, config_for(variant, min_run_len=1))
        assert lst == sorted(base)
        if variant in ("2way", "4way"):
            reserved = (2 * stats.merges2 + 3 * stats.merges3
                        + 4 * stats.merges4)
            assert stats.scan_writes == (
                len(lst) + 2 * stats.merge_cost + reserved)
            assert reserved > 0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_raising_key_leaves_a_permutation_of_the_input(variant):
    # The key raises on its j-th call, for every j of the sort: in run
    # detection, run extension and merges of every width.
    rng = random.Random(29)
    records = make_records([rng.randint(0, 9) for _ in range(60)])
    spy = SpyKey()
    stable_sort_with(list(records),
                     config_for(variant, key=spy, min_run_len=4))
    for fail_at in range(1, spy.calls + 1):
        lst = list(records)
        with pytest.raises(KeyFailure):
            stable_sort_with(lst, config_for(
                variant, key=FailingKey(fail_at), min_run_len=4))
        assert sorted(lst) == sorted(records), fail_at


class RandomOrderKey:
    """A key whose ``<`` answers from a seeded RNG: no order at all."""

    __slots__ = ("rng",)

    def __init__(self, rng):
        self.rng = rng

    def __lt__(self, other):
        return self.rng.random() < 0.5


@pytest.mark.parametrize("min_run_len", [1, 24, MIN_RUN_LEN])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_hostile_orders_terminate_with_a_permutation(variant, min_run_len):
    # NaN keys (every comparison with one is false) and keys that answer
    # at random, then the same as plain elements, unkeyed: the sort must
    # finish without an error, IndexError included, and leave a
    # permutation of its input.
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randint(1, 400)
        nan_keys = [float("nan") if rng.random() < 0.3 else rng.random()
                    for _ in range(n)]
        order_rng = random.Random(trial)
        for values, key in (
            (nan_keys, KEY),
            (list(range(n)), lambda rec: RandomOrderKey(order_rng)),
        ):
            lst = make_records(values)
            stable_sort_with(
                lst, config_for(variant, key=key, min_run_len=min_run_len))
            assert sorted(uid for _, uid in lst) == list(range(n)), trial
        for values in (nan_keys,
                       [RandomOrderKey(order_rng) for _ in range(n)]):
            lst = list(values)
            stable_sort_with(
                lst, config_for(variant, min_run_len=min_run_len))
            assert sorted(map(id, lst)) == sorted(map(id, values)), trial


class LeOnlyKey:
    """A key type with ``<=`` and no ``<``."""

    __slots__ = ("value",)

    def __init__(self, record):
        self.value = record[0]

    def __le__(self, other):
        return self.value <= other.value


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_key_without_lt_raises_type_error(variant):
    # Every layer compares with ``<``, as list.sort does, so keys, or
    # unkeyed elements, with only ``<=`` fail at their first comparison.
    rng = random.Random(43)
    records = make_records([rng.randint(0, 9) for _ in range(100)])
    lst = list(records)
    with pytest.raises(TypeError):
        stable_sort_with(
            lst, config_for(variant, key=LeOnlyKey, min_run_len=24))
    assert sorted(lst) == sorted(records)
    values = list(map(LeOnlyKey, records))
    lst = list(values)
    with pytest.raises(TypeError):
        stable_sort_with(lst, config_for(variant, min_run_len=24))
    assert sorted(map(id, lst)) == sorted(map(id, values))


def lt_only_values():
    """Keys with ties: an ascending run and a strictly descending one, both
    long enough for detection's C tail, then random keys."""
    rng = random.Random(47)
    return ([i // 3 for i in range(150)] + list(range(400, 300, -1))
            + [rng.randint(0, 40) for _ in range(1500)])


@pytest.mark.parametrize("min_run_len", [1, MIN_RUN_LEN])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_types_with_only_lt_sort_stably(variant, min_run_len):
    # Keys, and unkeyed elements, that define only ``<`` (any other
    # comparison raises TypeError) sort stably, and ``comparisons`` is the
    # number of ``<`` calls that ran.
    records = make_records(lt_only_values())
    lst = list(records)
    spy = LtSpyKey()
    stats = stable_sort_with(
        lst, config_for(variant, key=spy, min_run_len=min_run_len))
    assert_stable_sorted(lst, records)
    assert stats.comparisons == spy.lt_calls
    tally = LtTally()
    values = tally.wrap(lt_only_values())
    lst = list(values)
    stats = stable_sort_with(lst, config_for(variant, min_run_len=min_run_len))
    expected = sorted(values, key=lambda x: x.value)
    assert all(x is y for x, y in zip(lst, expected))
    assert stats.comparisons == tally.lt_calls


class MutatingKey:
    """``KEY`` that appends a record to ``lst``, or pops its last one, on
    its ``at``-th call."""

    def __init__(self, lst, at, grow):
        self.lst = lst
        self.at = at
        self.grow = grow
        self.calls = 0

    def __call__(self, record):
        self.calls += 1
        if self.calls == self.at:
            if self.grow:
                self.lst.append((0, -1))
            else:
                self.lst.pop()
        return record[0]


@pytest.mark.parametrize("grow", [True, False], ids=["append", "pop"])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_list_modified_during_sort_raises_value_error(variant, grow):
    # For every key call j of the sort, in detection, extension and merges
    # of every width: ValueError, never IndexError.
    rng = random.Random(37)
    records = make_records([rng.randint(0, 9) for _ in range(60)])
    for min_run_len in (1, 4):
        spy = SpyKey()
        stable_sort_with(list(records), config_for(
            variant, key=spy, min_run_len=min_run_len))
        for at in range(1, spy.calls + 1):
            lst = list(records)
            config = config_for(variant, key=MutatingKey(lst, at, grow),
                                min_run_len=min_run_len)
            with pytest.raises(ValueError, match="list modified during sort"):
                stable_sort_with(lst, config)


def tail_values():
    """An ascending run of 70 (equal pairs included) and a strictly
    descending run of 60 to the list's end.  Unkeyed, detection's inline
    loop runs ``<`` calls 1-31 and 71-101, its C tail calls 32-70 and
    102-129, and the merge the calls after them."""
    return [100 + i // 2 for i in range(70)] + list(range(99, 39, -1))


def tail_trap(at, action):
    """A fresh unkeyed ``tail_values`` list whose ``<`` runs
    ``action(lst)`` on its ``at``-th call, and the tally of its
    comparisons."""
    tally = LtTally()
    lst = tally.wrap(tail_values())
    tally.at = at
    tally.action = lambda: action(lst)
    return lst, tally


def raise_key_failure(lst):
    raise KeyFailure("<")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_raising_le_in_the_unkeyed_tail_leaves_a_permutation(variant):
    lst, tally = tail_trap(0, None)
    stable_sort_with(lst, config_for(variant))
    assert [x.value for x in lst] == sorted(tail_values())
    assert tally.lt_calls > 129
    for at in range(1, tally.lt_calls + 1):
        lst, _ = tail_trap(at, raise_key_failure)
        before = sorted(map(id, lst))
        with pytest.raises(KeyFailure):
            stable_sort_with(lst, config_for(variant))
        assert sorted(map(id, lst)) == before, at


@pytest.mark.parametrize("grow", [True, False], ids=["append", "pop"])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_list_modified_in_the_unkeyed_tail_raises_value_error(variant, grow):
    # In the C tail the iterators would read past the view after an append
    # and stop short after a pop; either way: ValueError, never a run end
    # past the list.
    lst, tally = tail_trap(0, None)
    stable_sort_with(lst, config_for(variant))
    for at in range(1, tally.lt_calls + 1):
        lst, _ = tail_trap(at, (lambda lst: lst.append(lst[0])) if grow
                           else (lambda lst: lst.pop()))
        with pytest.raises(ValueError, match="list modified during sort"):
            stable_sort_with(lst, config_for(variant))


def long_run_inputs(n):
    """Inputs of n elements with runs of thousands of elements, by name."""
    m = n // 8
    yield "reversed", list(range(n, 0, -1))
    yield "two-disjoint-runs", list(range(n // 2, n)) + list(range(n // 2))
    yield "descending-blocks", [
        v for b in range(8) for v in range((b + 1) * m, b * m, -1)]
    yield "random-runs", generate(GeneratorSpec("random-runs", n, seed=3))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_scratch_memory_is_the_buffer_plus_a_few_chunks(variant):
    # Copies to and from the buffer, put-backs and the reversal of a
    # descending run go a chunk at a time, so the peak past the n + k-slot
    # buffer stays within one allowance in chunks at n = 2^14 and at 4x that.
    # Run-sized slices would add up to 16 B per element.
    config = config_for(variant)
    # Build the insertion table, cached on the first sort, before measuring.
    stable_sort_with(generate(GeneratorSpec("random-permutation", 500)),
                     config)
    allowance = 6 * sys.getsizeof([None] * _CHUNK)
    for n in (1 << 14, 1 << 16):
        buffer = sys.getsizeof([None] * (n + VARIANTS[variant].k))
        for name, lst in long_run_inputs(n):
            expected = sorted(lst)
            tracemalloc.start()
            try:
                stable_sort_with(lst, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert lst == expected, (name, n)
            assert peak - buffer <= allowance, (name, n, peak - buffer)


# --- profile simulation ------------------------------------------------------


def random_realizable_profile(rng, max_runs=12, max_len=60):
    r = rng.randint(1, max_runs)
    profile = [rng.randint(2, max_len) for _ in range(r - 1)]
    profile.append(rng.randint(1, max_len))
    return profile


@pytest.mark.parametrize("k,variant", [(2, "2way"), (4, "4way")])
@pytest.mark.parametrize("strict", [False, True])
def test_simulated_cost_equals_real_sort(k, variant, strict):
    rng = random.Random(k * 10 + strict)
    for _ in range(150):
        profile = random_realizable_profile(rng)
        lst = oracle.realize_profile(profile)
        stats = stable_sort_with(
            lst,
            SortConfig(k=k, variant=variant, min_run_len=1,
                       strict_merge_down=strict),
        )
        assert stats.run_lengths == profile
        assert stats.merge_cost == merge_cost_for_profile(
            profile, k, strict_merge_down=strict
        )


def test_simulator_trace_matches_real_trace():
    rng = random.Random(31)
    for k, variant in ((2, "2way"), (4, "4way")):
        for strict in (False, True):
            for _ in range(50):
                profile = random_realizable_profile(rng)
                lst = oracle.realize_profile(profile)
                real_trace, sim_trace = [], []
                stable_sort_with(
                    lst,
                    SortConfig(k=k, variant=variant, min_run_len=1,
                               strict_merge_down=strict,
                               on_merge=real_trace.append),
                )
                merge_cost_for_profile(profile, k, strict_merge_down=strict,
                                       on_merge=sim_trace.append)
                assert real_trace == sim_trace


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("strict", [False, True])
def test_merge_schedule_draws_runs_lazily(k, strict):
    # The sort extends each run in place as it draws it, so the engine must
    # yield every group before it reads more than one run past the group.
    rng = random.Random(41 + k * 10 + strict)
    for _ in range(100):
        profile = random_realizable_profile(rng, max_runs=30)
        bounds = list(accumulate(profile, initial=0))
        drawn = []

        def runs():
            for run in zip(bounds, bounds[1:]):
                drawn.append(run)
                yield run

        stats = SortStats()
        trace = []
        for group in merge_schedule(k, bounds[-1], runs(), strict, stats):
            # A group is the bounds tuple the kernels take: 2..k runs.
            assert type(group) is tuple and 3 <= len(group) <= k + 1
            assert all(type(b) is int for b in group)
            assert all(a < b for a, b in zip(group, group[1:]))
            assert group[0] in bounds and group[-1] in bounds
            runs_through_group = bounds.index(group[-1])
            assert runs_through_group <= len(drawn) <= runs_through_group + 1
            trace.append((group, group[-1] - group[0]))
        assert len(drawn) == len(profile)
        assert stats.max_stack_height <= run_stack_capacity(k, bounds[-1])
        expected = []
        merge_cost_for_profile(profile, k, strict_merge_down=strict,
                               on_merge=expected.append)
        assert trace == expected


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_policy_hooks_called_once_per_run_and_boundary(variant, monkeypatch):
    # A tracer wraps these module globals; it relies on node_power being
    # looked up once per boundary, find_first_run once per run and
    # extend_run once per natural run shorter than min_run_len.
    calls = {"node_power": 0, "find_first_run": 0, "extend_run": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(policy, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(policy, name, counting)
    rng = random.Random(7)
    lst = [rng.randint(0, 500) for _ in range(3000)]
    # A long ascending tail: a natural run that is not extended.
    lst += range(501, 601)
    stats = stable_sort_with(lst, config_for(variant))
    assert lst == sorted(lst)
    assert stats.runs_detected > 1
    min_run_len = config_for(variant).min_run_len
    assert calls == {
        "node_power": stats.runs_detected - 1,
        "find_first_run": stats.runs_detected,
        "extend_run": sum(1 for length in stats.natural_run_lengths
                          if length < min_run_len),
    }
    assert 0 < calls["extend_run"] < stats.runs_detected


def test_executed_tree_matches_conceptual_tree_for_k2_strict():
    rng = random.Random(77)
    for _ in range(100):
        profile = random_realizable_profile(rng, max_runs=10)
        lst = oracle.realize_profile(profile)
        trace = []
        stats = stable_sort_with(
            lst,
            config_for(
                "2way", min_run_len=1, strict_merge_down=True,
                on_merge=trace.append,
            ),
        )
        assert stats.run_lengths == profile
        bounds = []
        at = 0
        for length in profile:
            bounds.append((at, at + length))
            at += length
        executed = oracle.merge_tree_from_trace(bounds, trace)
        assert executed == oracle.kway_tree(profile, 2)


# --- configuration and stack invariants --------------------------------------


def test_rejects_bad_configs():
    with pytest.raises(ValueError):
        stable_sort_with([1], SortConfig(k=3, variant="4way"))
    with pytest.raises(ValueError):
        stable_sort_with([1], SortConfig(k=2, variant="4way"))
    with pytest.raises(ValueError):
        stable_sort_with([1], SortConfig(k=4, variant="no-such-kernel"))
    with pytest.raises(ValueError):
        stable_sort_with([1], SortConfig(min_run_len=0))
    # A non-integral k or min_run_len is rejected before the list is
    # touched, not deep inside the sort.
    for config in (SortConfig(k=4.0), SortConfig(min_run_len=64.0),
                   SortConfig(k=2.0, variant="2way", min_run_len=8)):
        lst = [3, 1, 2]
        with pytest.raises(TypeError, match="must be an integer"):
            stable_sort_with(lst, config)
        assert lst == [3, 1, 2]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_non_list_input_raises_type_error(variant):
    # list.sort exists only on lists: anything else is refused before the
    # sort touches it, a sorted tuple included, and a list subclass sorts.
    rng = random.Random(53)
    values = [rng.randint(0, 99) for _ in range(3000)]
    for seq in (np.array(values), tuple(values), tuple(sorted(values)),
                array.array("q", values)):
        before = list(seq)
        with pytest.raises(TypeError, match="can only sort a list"):
            stable_sort_with(seq, config_for(variant))
        assert list(seq) == before

    class Sub(list):
        pass

    lst = Sub(values)
    stable_sort_with(lst, config_for(variant))
    assert type(lst) is Sub and lst == sorted(values)


def test_numpy_integer_configs_sort_like_ints():
    # k and min_run_len pass operator.index, and the sort runs on plain
    # ints: a numpy k once failed in node_power, on ``bit_length``.
    values = [random.Random(3).randint(0, 50) for _ in range(500)]
    expected = stable_sort_with(list(values), SortConfig(min_run_len=8))
    lst = list(values)
    stats = stable_sort_with(
        lst, SortConfig(k=np.int64(4), min_run_len=np.int64(8)))
    assert lst == sorted(values) and stats == expected


def test_run_stack_capacity_is_enforced(monkeypatch):
    # The boundary powers of this profile rise 1, 2, 3, 4, so the stack
    # holds four runs when the last one is drawn.
    bounds = list(accumulate([8, 4, 2, 1, 1], initial=0))
    stats = SortStats()
    list(merge_schedule(2, 16, zip(bounds, bounds[1:]), False, stats))
    assert stats.max_stack_height == 4
    monkeypatch.setattr(policy, "run_stack_capacity", lambda k, n: 3)
    with pytest.raises(OverflowError):
        list(merge_schedule(2, 16, zip(bounds, bounds[1:]), False,
                            SortStats()))


@pytest.mark.parametrize("k,variant", [(2, "2way"), (4, "4way")])
def test_observed_stack_height_within_bound(k, variant):
    rng = random.Random(k)
    for _ in range(40):
        n = rng.randint(1, 4000)
        lst = [rng.randint(0, n) for _ in range(n)]
        stats = stable_sort_with(
            lst, SortConfig(k=k, variant=variant, min_run_len=1)
        )
        assert stats.max_stack_height <= run_stack_capacity(k, n)
