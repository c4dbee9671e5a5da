"""The run-adaptive k-way merge policy.

Runs are detected left to right.  A stack holds pending runs together with
the power of the boundary at which each was deferred; powers on the stack
weakly increase from bottom to top, and at most k-1 entries ever share a
power.  When the next boundary's power is smaller than the power on top of
the stack, the whole equal-power top group is merged with the current run
in one 2-, 3- or 4-way merge, repeating per power level until the new run
can be pushed.  After the last run, the stack is collapsed top-down; for
k = 4 the collapse first normalizes the number of remaining runs to
3j + 1 with a single 2- or 3-way merge so every following merge is a full
4-way merge.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from .merges import (
    MergeBuffer,
    merge_2way_copy_smaller,
    merge_2way_no_sentinel,
    merge_2way_sentinel,
    merge_3way,
    merge_3way_stages,
    merge_4way_sentinel,
    merge_4way_stages,
)
from .power import node_power, run_stack_capacity
from .runs import extend_run, find_first_run
from .statskit import SENTINEL, CountingOrder, SortStats

#: Default minimum run length; shorter natural runs are extended to this
#: length by insertion sort.  1 disables extension.
MIN_RUN_LEN = 24


@dataclass(frozen=True)
class _VariantKernels:
    k: int
    merge2: Callable
    merge3: Optional[Callable]
    merge4: Optional[Callable]
    needs_sentinel: bool
    fallback: Optional[str] = None


#: Merge-kernel families selectable per sort.  Sentinel-based variants fall
#: back to their sentinel-free sibling when the input contains the reserved
#: value.
VARIANTS = {
    "2way": _VariantKernels(
        2, merge_2way_sentinel, None, None, True, "2way-nosentinel"
    ),
    "2way-copy-smaller": _VariantKernels(
        2, merge_2way_copy_smaller, None, None, False
    ),
    "2way-nosentinel": _VariantKernels(
        2, merge_2way_no_sentinel, None, None, False
    ),
    "4way": _VariantKernels(
        4, merge_2way_sentinel, merge_3way, merge_4way_sentinel, True,
        "4way-nosentinel",
    ),
    "4way-nosentinel": _VariantKernels(
        4, merge_2way_no_sentinel, merge_3way_stages, merge_4way_stages, False
    ),
}


@dataclass(frozen=True)
class SortConfig:
    """Configuration of one sort call.

    ``k`` is the merge arity (2 or 4) and must match the kernel family named
    by ``variant``.  ``key`` extracts the sort key from an element; records
    are compared by key only.  ``strict_merge_down`` collapses the final
    stack by popping up to k-1 runs per merge instead of normalizing to
    3j + 1 first.  ``on_merge`` is called after every executed merge with
    one ``(bounds, output_length)`` tuple, where bounds are the merged
    segments' boundaries ``(b0, .., end)``; pass ``some_list.append`` to
    collect a merge trace.
    """

    k: int = 4
    variant: str = "4way"
    min_run_len: int = MIN_RUN_LEN
    key: Optional[Callable] = None
    strict_merge_down: bool = False
    on_merge: Optional[Callable] = None


class RunStack:
    """Fixed-capacity stack of (run begin, boundary power) entries.

    Slot 0 is a bottom sentinel with power 0, so ``top_power()`` of an empty
    stack compares below every real power.  The capacity is the proven
    height bound; exceeding it raises, making the bound a hard assertion.
    """

    __slots__ = ("capacity", "height", "_begins", "_powers")

    def __init__(self, capacity):
        self.capacity = capacity
        self.height = 0
        self._begins = [0] * (capacity + 1)
        self._powers = [0] * (capacity + 1)

    def top_power(self):
        return self._powers[self.height]

    def push(self, begin, power):
        assert power >= self._powers[self.height], (
            "stack powers must weakly increase bottom to top"
        )
        if self.height == self.capacity:
            raise OverflowError(
                "run stack exceeded its height bound of %d" % self.capacity
            )
        h = self.height + 1
        self._begins[h] = begin
        self._powers[h] = power
        self.height = h

    def pop(self):
        begin = self._begins[self.height]
        self.height -= 1
        return begin


def _merge_one_group(stack, run_begin, run_end, k, do_merge):
    """Merge the maximal equal-power group on top of the stack with the
    current run [run_begin, run_end); returns the merged run's begin."""
    group_power = stack.top_power()
    begins = [stack.pop()]
    while stack.top_power() == group_power:
        begins.append(stack.pop())
    assert len(begins) <= k - 1, "more than k-1 equal powers were stacked"
    begins.reverse()
    begins.append(run_begin)
    do_merge(begins, run_end)
    return begins[0]


def _merge_down(stack, run_begin, run_end, k, strict, do_merge):
    """Collapse the remaining stack under the rightmost run."""
    if k == 4 and not strict:
        n_runs = stack.height + 1
        rem = n_runs % 3
        if rem == 0:
            # One 3-way merge brings the run count to 3j + 1 ...
            b2 = stack.pop()
            b1 = stack.pop()
            do_merge([b1, b2, run_begin], run_end)
            run_begin = b1
        elif rem == 2:
            # ... as does one 2-way merge.
            b1 = stack.pop()
            do_merge([b1, run_begin], run_end)
            run_begin = b1
        assert stack.height % 3 == 0
        while stack.height:
            b3 = stack.pop()
            b2 = stack.pop()
            b1 = stack.pop()
            do_merge([b1, b2, b3, run_begin], run_end)
            run_begin = b1
    else:
        while stack.height:
            begins = [stack.pop() for _ in range(min(k - 1, stack.height))]
            begins.reverse()
            begins.append(run_begin)
            do_merge(begins, run_end)
            run_begin = begins[0]


def _validated(config):
    if config.k not in (2, 4):
        raise ValueError("k must be 2 or 4, got %r" % (config.k,))
    kernels = VARIANTS.get(config.variant)
    if kernels is None:
        raise ValueError(
            "unknown merge variant %r (choose from %s)"
            % (config.variant, ", ".join(sorted(VARIANTS)))
        )
    if kernels.k != config.k:
        raise ValueError(
            "variant %r implements k=%d, but config asks for k=%d"
            % (config.variant, kernels.k, config.k)
        )
    if config.min_run_len < 1:
        raise ValueError("min_run_len must be >= 1")
    return kernels


def stable_sort_with(lst, config=None):
    """Sort ``lst`` in place, stably, and return the populated SortStats."""
    if config is None:
        config = SortConfig()
    kernels = _validated(config)
    stats = SortStats()
    n = len(lst)
    if n == 0:
        return stats
    order = CountingOrder(config.key)
    if any(map(operator.is_, lst, repeat(SENTINEL))):
        # The reserved value appears in the input.  The plain compare cannot
        # order it, and sentinel slots would be ambiguous, so compare it
        # structurally and use the bounds-checked siblings instead.
        order.admit_sentinel()
        if kernels.needs_sentinel:
            kernels = VARIANTS[kernels.fallback]
    k = config.k
    buf = MergeBuffer(n + k)
    stats.scan_reads += n    # one detection scan over the input
    stats.scan_writes += n   # buffer initialization
    stack = RunStack(run_stack_capacity(k, n))
    min_run_len = config.min_run_len
    on_merge = config.on_merge
    merge2 = kernels.merge2
    merge3 = kernels.merge3
    merge4 = kernels.merge4

    def do_merge(begins, end):
        width = len(begins)
        if width == 2:
            merge2(lst, begins[0], begins[1], end, buf, order, stats)
        elif width == 3:
            merge3(lst, begins[0], begins[1], begins[2], end, buf, order, stats)
        else:
            merge4(
                lst, begins[0], begins[1], begins[2], begins[3], end,
                buf, order, stats,
            )
        stats.comparisons = order.comparisons
        if on_merge is not None:
            on_merge((tuple(begins) + (end,), end - begins[0]))

    def next_run(at):
        run = find_first_run(lst, at, n, order, stats)
        stats.natural_run_lengths.append(run.end - run.begin)
        if run.end - run.begin < min_run_len:
            run = extend_run(lst, run, min_run_len, n, order, stats)
        stats.runs_detected += 1
        stats.run_lengths.append(run.end - run.begin)
        return run

    a_begin, a_end = next_run(0)
    while a_end < n:
        b_begin, b_end = next_run(a_end)
        power = node_power(k, n, a_begin, a_end, b_begin, b_end)
        while stack.top_power() > power:
            a_begin = _merge_one_group(stack, a_begin, a_end, k, do_merge)
        stack.push(a_begin, power)
        if stack.height > stats.max_stack_height:
            stats.max_stack_height = stack.height
        a_begin, a_end = b_begin, b_end
    _merge_down(stack, a_begin, a_end, k, config.strict_merge_down, do_merge)
    stats.comparisons = order.comparisons
    return stats


def stable_sort(lst, key=None):
    """Sort ``lst`` in place, stably, with the default configuration."""
    stable_sort_with(lst, SortConfig(key=key))


def merge_cost_for_profile(lengths, k, strict_merge_down=False, on_merge=None):
    """Total merge cost the policy produces on an input whose runs have the
    given lengths.

    The policy's merge decisions depend only on run boundaries, so the cost
    can be evaluated directly on the profile.  This drives the same stack,
    power and collapse code as the real sort; only the kernels are replaced
    by cost accounting.
    """
    if k not in (2, 4):
        raise ValueError("k must be 2 or 4, got %r" % (k,))
    if not lengths:
        raise ValueError("a run profile has at least one run")
    if any(length < 1 for length in lengths):
        raise ValueError("run lengths must be positive")
    n = sum(lengths)
    cost = 0

    def do_merge(begins, end):
        nonlocal cost
        cost += end - begins[0]
        if on_merge is not None:
            on_merge((tuple(begins) + (end,), end - begins[0]))

    stack = RunStack(run_stack_capacity(k, n))
    a_begin, a_end = 0, lengths[0]
    for length in lengths[1:]:
        b_begin, b_end = a_end, a_end + length
        power = node_power(k, n, a_begin, a_end, b_begin, b_end)
        while stack.top_power() > power:
            a_begin = _merge_one_group(stack, a_begin, a_end, k, do_merge)
        stack.push(a_begin, power)
        a_begin, a_end = b_begin, b_end
    _merge_down(stack, a_begin, a_end, k, strict_merge_down, do_merge)
    return cost
