import itertools
import random
import re

import pytest

from powersort.oracle import (
    comparison_lower_bound,
    entropy,
    kway_tree,
    merge_tree_from_trace,
    optimal_merge_cost,
    realize_profile,
    tree_leaves,
    tree_merge_cost,
)
from powersort.power import boundary_powers

from conftest import compositions_upto


def random_profile(rng, max_runs=12, max_len=50):
    return [rng.randint(1, max_len) for _ in range(rng.randint(1, max_runs))]


# --- conceptual tree ---------------------------------------------------------


def test_single_run_is_a_leaf():
    assert kway_tree([16], 2) == 0
    assert kway_tree([16], 4) == 0


def test_tree_for_2_2_4_8_binary():
    assert kway_tree([2, 2, 4, 8], 2) == (((0, 1), 2), 3)


def test_tree_for_2_2_4_8_quaternary():
    assert kway_tree([2, 2, 4, 8], 4) == ((0, 1), 2, 3)


def all_degrees(tree):
    if isinstance(tree, int):
        return []
    out = [len(tree)]
    for child in tree:
        out.extend(all_degrees(child))
    return out


def test_tree_leaves_in_order_and_degree_at_most_k():
    rng = random.Random(0)
    for _ in range(300):
        profile = random_profile(rng)
        for k in (2, 4, 8, 16):
            tree = kway_tree(profile, k)
            assert tree_leaves(tree) == list(range(len(profile)))
            degrees = all_degrees(tree)
            assert all(2 <= d <= k for d in degrees)


def test_kway_tree_rejects_k3():
    with pytest.raises(ValueError, match="power of two >= 2"):
        kway_tree([2, 2, 4, 8], 3)
    with pytest.raises(ValueError, match="power of two >= 2"):
        kway_tree([16], 3)


def boundary_node_depths(tree):
    """Map each run boundary (indexed by its right run) to the depth of the
    internal node that merges across it."""
    depths = {}

    def walk(node, depth):
        if isinstance(node, int):
            return node, node
        spans = [walk(child, depth + 1) for child in node]
        for (_, left_end), (right_start, _) in zip(spans, spans[1:]):
            depths[right_start] = depth
        return spans[0][0], spans[-1][1]

    walk(tree, 0)
    return depths


def test_boundary_powers_cap_node_depths():
    # The node a boundary is assigned to sits at depth at most power - 1.
    rng = random.Random(1)
    for _ in range(300):
        profile = random_profile(rng)
        if len(profile) < 2:
            continue
        for k in (2, 4, 8, 16):
            powers = boundary_powers(profile, k)
            tree = kway_tree(profile, k)
            for boundary, depth in boundary_node_depths(tree).items():
                assert depth <= powers[boundary - 1] - 1


# --- costs -------------------------------------------------------------------


def test_tree_merge_cost_examples():
    assert tree_merge_cost(0, [16]) == 0
    assert tree_merge_cost((((0, 1), 2), 3), [2, 2, 4, 8]) == 28
    assert tree_merge_cost(((0, 1), 2, 3), [2, 2, 4, 8]) == 20


def test_tree_merge_cost_rejects_mismatched_leaves():
    with pytest.raises(ValueError):
        tree_merge_cost((0, 1), [5])


def test_optimal_merge_cost_examples():
    assert optimal_merge_cost([7], 2) == 0
    assert optimal_merge_cost([1, 1, 1, 1], 2) == 8
    assert optimal_merge_cost([1, 1, 1, 1], 4) == 4


def test_optimal_merge_cost_guard():
    with pytest.raises(ValueError):
        optimal_merge_cost([1] * 15, 2)
    # The arity passes operator.index, as in kway_tree and the policy.
    for k in (4.0, 2.5):
        with pytest.raises(TypeError):
            optimal_merge_cost([3, 4, 5], k)


def exhaustive_trees(lo, hi, k):
    """All k-way merge trees over runs lo..hi (for cross-checking the DP)."""
    if lo == hi:
        yield lo
        return
    for parts in range(2, min(k, hi - lo + 1) + 1):
        for cuts in itertools.combinations(range(lo, hi), parts - 1):
            edges = [lo] + [c + 1 for c in cuts] + [hi + 1]
            for children in itertools.product(
                *(exhaustive_trees(a, b - 1, k) for a, b in zip(edges, edges[1:]))
            ):
                yield tuple(children)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_optimal_merge_cost_matches_exhaustive_enumeration(k):
    rng = random.Random(k)
    for _ in range(25):
        profile = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
        best = min(
            tree_merge_cost(t, profile) for t in exhaustive_trees(0, len(profile) - 1, k)
        )
        assert optimal_merge_cost(profile, k) == best


def test_conceptual_tree_is_never_better_than_optimal():
    rng = random.Random(9)
    for _ in range(200):
        profile = random_profile(rng, max_runs=10)
        for k in (2, 4):
            tree_cost = tree_merge_cost(kway_tree(profile, k), profile)
            assert tree_cost >= optimal_merge_cost(profile, k)


# --- entropy -----------------------------------------------------------------


def test_entropy_examples():
    assert entropy([16]) == 0.0
    assert abs(entropy([8, 8]) - 1.0) < 1e-12
    assert abs(entropy([8, 4, 2, 2]) - 1.75) < 1e-12


def test_entropy_is_maximal_for_equal_runs():
    import math

    assert abs(entropy([3] * 8) - 3.0) < 1e-12
    rng = random.Random(3)
    for _ in range(100):
        profile = random_profile(rng)
        assert -1e-12 <= entropy(profile) <= math.log2(len(profile)) + 1e-12


def test_comparison_lower_bound_scales_entropy():
    assert abs(comparison_lower_bound([8, 4, 2, 2]) - 1.75 * 16) < 1e-9


# --- trace reconstruction and profile realization ----------------------------


def test_merge_tree_from_trace():
    runs = [(0, 2), (2, 4), (4, 8), (8, 16)]
    trace = [((0, 2, 4), 4), ((0, 4, 8), 8), ((0, 8, 16), 16)]
    assert merge_tree_from_trace(runs, trace) == (((0, 1), 2), 3)
    assert merge_tree_from_trace([(0, 5)], []) == 0
    with pytest.raises(ValueError):
        merge_tree_from_trace(runs, trace[:-1])


@pytest.mark.parametrize("trace", [
    [((0, 3, 4), 4)],                   # bounds inside a run
    [((0, 2, 4), 4), ((0, 2, 4), 4)],   # a group replayed
], ids=["inside-a-run", "replayed"])
def test_merge_tree_from_trace_rejects_entries_off_the_current_regions(trace):
    # Not a bare KeyError: the message names the entry.
    with pytest.raises(ValueError, match=re.escape(repr(trace[-1]))):
        merge_tree_from_trace([(0, 2), (2, 4)], trace)


@pytest.mark.parametrize("runs,trace", [
    ([(0, 4)], [((0, 4), 4)]),                                # one region
    ([(0, 2), (2, 4)], [((0, 2, 4), 4), ((0, 4), 4)]),        # one region
    ([(0, 2), (2, 4)], [((0, 2, 4), 3)]),                     # short output
], ids=["unary", "unary-after-merge", "wrong-length"])
def test_merge_tree_from_trace_rejects_entries_that_are_not_merges(runs, trace):
    with pytest.raises(ValueError, match=re.escape(repr(trace[-1]))):
        merge_tree_from_trace(runs, trace)


def test_realize_profile_round_trip():
    from powersort.runs import find_first_run
    from conftest import fresh_instruments

    for profile in compositions_upto(12, 5):
        if any(part < 2 for part in profile[:-1]):
            continue
        lst = realize_profile(list(profile))
        assert len(lst) == sum(profile)
        stats = fresh_instruments()
        detected = []
        at = 0
        while at < len(lst):
            end = find_first_run(lst, at, len(lst), None, stats)
            detected.append(end - at)
            at = end
        assert detected == list(profile)


def test_realize_profile_rejects_a_non_final_run_of_one():
    # The descent after such a run would be absorbed into a decreasing run,
    # so the array's natural runs would not be the profile.
    for profile in ([1, 2], [3, 1, 4], [2, 1, 1]):
        with pytest.raises(ValueError, match="length 1"):
            realize_profile(profile)
    assert realize_profile([2, 1]) == [0, 1, -1]
