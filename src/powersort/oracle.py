"""Reference computations for testing and analysis.

Merge trees are plain data: a leaf is the run's index (an int), an internal
node is the tuple of its children in left-to-right order.  Costs, the
conceptual tree construction, the entropy lower bound and a brute-force
optimal-tree DP all live here, independent of the sorting code they check.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .power import boundary_powers, validated_profile

#: Largest profile optimal_merge_cost accepts; the DP is exponential in
#: spirit (O(r^3 * k) states x splits) and meant for small cross-checks.
OPTIMAL_MERGE_COST_MAX_RUNS = 14


def kway_tree(lengths, k):
    """Conceptual merge tree of arity k = 2**j for a run-length profile.

    Computes all boundary powers, splits at every boundary attaining the
    minimal power (all of them -- this is what caps node degree at k), and
    recurses on the parts.  A single run yields a lone leaf.
    """
    powers = boundary_powers(lengths, k)
    r = len(powers) + 1
    if r == 1:
        return 0

    def build(lo, hi):
        # Runs lo..hi inclusive; powers[j] belongs to the boundary between
        # runs j and j+1.
        if lo == hi:
            return lo
        p_min = min(powers[lo:hi])
        cuts = [j for j in range(lo, hi) if powers[j] == p_min]
        assert len(cuts) <= k - 1, "more than k-1 boundaries share the minimum"
        children = []
        prev = lo
        for j in cuts:
            children.append(build(prev, j))
            prev = j + 1
        children.append(build(prev, hi))
        return tuple(children)

    return build(0, r - 1)


def tree_leaves(tree):
    """Leaf indices of a merge tree, left to right."""
    if isinstance(tree, int):
        return [tree]
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            out.append(node)
        else:
            stack.extend(reversed(node))
    return out


def tree_merge_cost(tree, lengths):
    """Total merge cost of executing a merge tree over a profile.

    Computed twice -- as the sum of leaf depth x run length and as the sum
    of internal-node subtree weights -- and cross-checked.
    """
    lengths = validated_profile(lengths)
    if tree_leaves(tree) != list(range(len(lengths))):
        raise ValueError("tree leaves do not match the profile")
    by_depth = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int):
            by_depth += depth * lengths[node]
        else:
            for child in node:
                stack.append((child, depth + 1))

    by_weight = 0

    def weigh(node):
        nonlocal by_weight
        if isinstance(node, int):
            return lengths[node]
        w = sum(weigh(child) for child in node)
        by_weight += w
        return w

    weigh(tree)
    assert by_depth == by_weight
    return by_depth


def entropy(lengths):
    """Shannon entropy (bits) of the run-length fractions L_i / n."""
    lengths = validated_profile(lengths)
    if len(lengths) == 1:
        return 0.0
    n = sum(lengths)
    # H = lg n - (1/n) * sum L lg L; correctly-rounded log2 plus compensated
    # summation keeps the error far below the 1e-12 comparisons used in
    # tests.
    return math.log2(n) - math.fsum(
        length * math.log2(length) for length in lengths
    ) / n


def comparison_lower_bound(lengths):
    """``H * n``: no comparison sort beats this on worst-case inputs with
    the given run profile (up to O(n))."""
    return entropy(lengths) * sum(validated_profile(lengths))


def optimal_merge_cost(lengths, k):
    """Minimum merge cost over all k-way merge trees on the profile.

    Interval DP: opt(i, j) is 0 for a single run, else the interval's total
    weight plus the cheapest split into 2..k consecutive blocks.  Guarded to
    small profiles; raises ``ValueError`` beyond OPTIMAL_MERGE_COST_MAX_RUNS.
    """
    lengths = validated_profile(lengths)
    if k < 2:
        raise ValueError("optimal_merge_cost needs k >= 2")
    r = len(lengths)
    if r > OPTIMAL_MERGE_COST_MAX_RUNS:
        raise ValueError(
            "profile has %d runs; the DP is guarded to r <= %d"
            % (r, OPTIMAL_MERGE_COST_MAX_RUNS)
        )
    prefix = [0]
    for length in lengths:
        prefix.append(prefix[-1] + length)

    @lru_cache(maxsize=None)
    def opt(i, j):
        if i == j:
            return 0
        return prefix[j + 1] - prefix[i] + best_split(i, j, min(k, j - i + 1))

    @lru_cache(maxsize=None)
    def best_split(i, j, blocks):
        # Cheapest partition of runs i..j into at most `blocks` consecutive
        # children, at least 2.
        if blocks == 2:
            return min(opt(i, m) + opt(m + 1, j) for m in range(i, j))
        best = best_split(i, j, blocks - 1)
        for m in range(i, j - blocks + 2):
            candidate = opt(i, m) + best_split(m + 1, j, blocks - 1)
            if candidate < best:
                best = candidate
        return best

    result = opt(0, r - 1)
    opt.cache_clear()
    best_split.cache_clear()
    return result


def merge_tree_from_trace(run_intervals, trace):
    """Reconstruct the executed merge tree from a sort's merge trace.

    ``run_intervals`` are the detected runs as (begin, end) pairs, left to
    right; ``trace`` is the sequence of ``(bounds, output_length)`` entries
    reported by the sort's merge hook, in execution order.  An entry that
    merges fewer than two regions, whose bounds are not adjacent current
    regions, or whose output length is not ``bounds[-1] - bounds[0]`` raises
    ``ValueError``.
    """
    nodes = {}
    for index, (begin, end) in enumerate(run_intervals):
        nodes[(begin, end)] = index
    for entry in trace:
        bounds, length = entry
        if len(bounds) < 3 or length != bounds[-1] - bounds[0]:
            raise ValueError("trace entry %r is not a merge" % (entry,))
        try:
            children = tuple(nodes.pop(ab) for ab in zip(bounds, bounds[1:]))
        except KeyError:
            raise ValueError(
                "trace entry %r does not merge current regions" % (entry,)
            ) from None
        nodes[(bounds[0], bounds[-1])] = children
    if len(nodes) != 1:
        raise ValueError("trace does not merge the runs into a single region")
    return next(iter(nodes.values()))


def realize_profile(lengths):
    """An int array whose natural runs are exactly the given profile.

    Each run is strictly increasing and starts below the previous run's last
    element, so adjacent runs cannot fuse.  A non-final run of length 1
    cannot be realized under the run rule (the descent after it reads as a
    strictly decreasing pair and is absorbed), so callers enumerate profiles
    whose non-final lengths are >= 2.
    """
    lengths = validated_profile(lengths)
    out = []
    for i, length in enumerate(lengths):
        out.extend(x - i for x in range(length))
    return out
