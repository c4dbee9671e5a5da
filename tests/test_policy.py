import random

import pytest

from powersort import oracle
from powersort.policy import (
    RunStack,
    SortConfig,
    VARIANTS,
    merge_cost_for_profile,
    stable_sort,
    stable_sort_with,
)
from powersort.power import run_stack_capacity
from powersort.statskit import SENTINEL

from conftest import (
    KEY,
    FailingKey,
    KeyFailure,
    SpyKey,
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


def test_merge_down_k2_is_repeated_2way():
    profile = final_stack_profile(3)
    lst = oracle.realize_profile(profile)
    trace = []
    stable_sort_with(lst, config_for("2way", min_run_len=1, on_merge=trace.append))
    assert lst == sorted(lst)
    assert [len(bounds) - 1 for bounds, _ in trace] == [2, 2, 2]


# --- correctness and stability ---------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("min_run_len", [1, 24])
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


# --- sentinel fallback ------------------------------------------------------


def test_input_containing_reserved_value_falls_back():
    rng = random.Random(5)
    base = [rng.randint(0, 50) for _ in range(200)]
    for variant in ("2way", "4way"):
        lst = list(base)
        lst[37] = SENTINEL
        lst[150] = SENTINEL
        stable_sort_with(lst, config_for(variant, min_run_len=1))
        assert lst[-2:] == [SENTINEL, SENTINEL]
        assert lst[:-2] == sorted(base[:37] + base[38:150] + base[151:])


@pytest.mark.parametrize(
    "variant", [v for v in ALL_VARIANTS if v != "4way-nosentinel"])
def test_raising_key_leaves_a_permutation_of_the_input(variant):
    # The key raises on its j-th call, for every j of the sort: in run
    # detection, run extension and merges of every width.  The staged
    # merger of 4way-nosentinel does not put its elements back yet.
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
    for _ in range(50):
        profile = random_realizable_profile(rng)
        lst = oracle.realize_profile(profile)
        real_trace, sim_trace = [], []
        stable_sort_with(
            lst, SortConfig(min_run_len=1, on_merge=real_trace.append)
        )
        merge_cost_for_profile(profile, 4, on_merge=sim_trace.append)
        assert real_trace == sim_trace


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


def test_run_stack_capacity_is_enforced():
    stack = RunStack(2)
    stack.push(0, 1)
    stack.push(1, 1)
    with pytest.raises(OverflowError):
        stack.push(2, 1)


def test_run_stack_rejects_decreasing_powers():
    stack = RunStack(4)
    stack.push(0, 3)
    with pytest.raises(AssertionError):
        stack.push(1, 2)


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
