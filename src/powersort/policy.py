"""The run-adaptive k-way merge policy, for any arity k = 2**j.

One engine, ``merge_schedule``, decides every merge.  It reads adjacent runs
lazily from an iterator and computes the power of each boundary between two
runs (``power.node_power``).  A stack holds pending runs together with the
power of the boundary at which each was deferred, as two local lists of
ints (begins, and powers over a bottom power 0); powers on the stack
weakly increase from bottom to top, and at most k-1 entries ever share a
power.  When the next boundary's power is smaller than the power on top of
the stack, the whole equal-power top group and the current run form one
merge group of 2..k runs, repeating per power level until the new run can
be pushed.  After the last run, the stack is collapsed top-down; the
collapse first normalizes the number of remaining runs to (k - 1)j + 1 with
one narrower merge, so every following merge is a full k-way merge.

The engine yields each group as its bounds ``(b0, .., b_{w-1}, end)`` and
knows nothing of the elements.  ``stable_sort_with`` feeds it the
``(begin, end)`` runs it detects (and extends) in the list and passes each
group's bounds to the merge kernel for its width (k is 2 or 4 there);
``merge_cost_for_profile`` feeds it the runs of a length profile and sums
the groups' lengths.  Both execute the same merges, and report the same
bounds to ``on_merge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional

from .merges import (
    merge_2way_copy_smaller,
    merge_2way_no_sentinel,
    merge_2way_sentinel,
    merge_stages,
    merge_tournament,
)
from .power import node_power, run_stack_capacity, validated_profile
from .runs import extend_run, find_first_run
from .statskit import SortStats

#: Default minimum run length; shorter natural runs are extended to this
#: length by binary insertion sort, which places each element with
#: ``bisect_right`` and so compares keys with ``<``.  1 disables extension.
#: 64 is CPython's largest ``minrun`` and the longest region that the
#: insertion table (``runs._TABLE_ROWS``) counts.  Longer runs mean fewer
#: runs, each with a fixed Python cost in detection, the run stack and
#: ``node_power``, and fewer merge set-ups: against 24, a random
#: permutation of 25 000 records has 391 runs instead of 1042 and its
#: ``4way`` sort ran 12.9% faster (CPython 3.11, 2 vCPUs).  The price is
#: on inputs with natural runs of 16 to 128: extension binary-inserts
#: elements that the next natural run already held in order, so random
#: runs of mean 32 take 8.9% more comparisons and of mean 64 to 128 sort
#: about 2% slower.
MIN_RUN_LEN = 64


@dataclass(frozen=True)
class _VariantKernels:
    k: int
    merge2: Callable
    merge3: Optional[Callable]
    merge4: Optional[Callable]


#: Merge-kernel families selectable per sort.
VARIANTS = {
    "2way": _VariantKernels(2, merge_2way_sentinel, None, None),
    "2way-copy-smaller": _VariantKernels(
        2, merge_2way_copy_smaller, None, None
    ),
    "2way-nosentinel": _VariantKernels(2, merge_2way_no_sentinel, None, None),
    "4way": _VariantKernels(
        4, merge_2way_sentinel, merge_tournament, merge_tournament
    ),
    "4way-nosentinel": _VariantKernels(
        4, merge_2way_no_sentinel, merge_stages, merge_stages
    ),
}


@dataclass(frozen=True)
class SortConfig:
    """Configuration of one sort call.

    ``k`` is the merge arity, 2 or 4, and must match the kernel family
    named by ``variant``.  ``min_run_len`` is the length to which a
    shorter natural run is extended by binary insertion sort, clamped to
    the end of the list; 1 disables extension, and the default is
    ``MIN_RUN_LEN``, 64.  ``key`` extracts the sort key from an element;
    records are compared by key only.  Keys (or the elements, without
    ``key``) need both ``<``, which run extension uses, and ``<=``, which
    run detection and the merges use.  ``strict_merge_down`` collapses the
    final stack by popping up to k-1 runs per merge instead of normalizing
    to (k - 1)j + 1 runs first.  ``on_merge`` is called after every
    executed merge with one ``(bounds, output_length)`` tuple, where bounds
    is the group ``merge_schedule`` yielded and the kernel merged; pass
    ``some_list.append`` to collect a merge trace.  The sort's SortStats
    counters, ``comparisons`` included, are live at each call.
    """

    k: int = 4
    variant: str = "4way"
    min_run_len: int = MIN_RUN_LEN
    key: Optional[Callable] = None
    strict_merge_down: bool = False
    on_merge: Optional[Callable] = None


def merge_schedule(k, n, runs, strict_merge_down, stats):
    """Yield the policy's merge groups in execution order.

    ``runs`` is an iterator of adjacent ``(begin, end)`` runs covering
    [0, n), read lazily: a group is yielded as soon as the run after it has
    been drawn, so a consumer may rewrite everything left of that run before
    the next one is read.  A group of 2..k runs is the tuple of their
    bounds ``(b0, .., b_{w-1}, end)``: the begins of the runs, left to
    right, and the end of the last.  Unless ``strict_merge_down``, the final
    collapse first normalizes to (k - 1)j + 1 runs.  Records the peak stack
    height in ``stats.max_stack_height``.
    """
    capacity = run_stack_capacity(k, n)
    # The run stack: stack[h] begins a pending run that was deferred at a
    # boundary of power powers[h + 1]; powers[0] = 0 lies below them all.
    stack = []
    powers = [0]
    peak = stats.max_stack_height
    a_begin, a_end = next(runs)
    for b_begin, b_end in runs:
        power = node_power(k, n, a_begin, a_end, b_begin, b_end)
        while powers[-1] > power:
            group_power = powers.pop()
            begins = [stack.pop()]
            while powers[-1] == group_power:
                powers.pop()
                begins.append(stack.pop())
            assert len(begins) <= k - 1, (
                "more than k-1 equal powers were stacked"
            )
            begins.reverse()
            yield (*begins, a_begin, a_end)
            a_begin = begins[0]
        # The pops left powers[-1] <= power, so powers weakly increase up
        # the stack by construction.
        height = len(stack)
        if height == capacity:
            raise OverflowError(
                "run stack exceeded its height bound of %d" % capacity
            )
        stack.append(a_begin)
        powers.append(power)
        if height == peak:
            peak = height + 1
            stats.max_stack_height = peak
        a_begin, a_end = b_begin, b_end
    # Collapse the remaining stack under the rightmost run.
    while stack:
        height = len(stack)
        popped = min(k - 1, height)
        if not strict_merge_down and height % (k - 1):
            popped = height % (k - 1)
        begins = stack[height - popped:]
        del stack[height - popped:]
        yield (*begins, a_begin, a_end)
        a_begin = begins[0]


def _detected_runs(lst, n, key, stats, min_run_len):
    """Detect runs left to right, extending each short one in place, and
    yield each as ``(begin, end)``."""
    natural_length = stats.natural_run_lengths.append
    run_length = stats.run_lengths.append
    begin = 0
    while begin < n:
        end = find_first_run(lst, begin, n, key, stats)
        natural_length(end - begin)
        if end - begin < min_run_len:
            end = extend_run(lst, begin, end, min_run_len, n, key, stats)
        run_length(end - begin)
        yield begin, end
        begin = end
    stats.runs_detected = len(stats.run_lengths)


def _validated(config):
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
    """Sort ``lst`` in place, stably, and return the populated SortStats.

    Raises ``ValueError("list modified during sort")`` if the list's length
    changed while it was sorted (by the key, say), also where the change
    made the sort fail with an ``IndexError`` or a bounds ``ValueError``.

    Besides the SortStats it returns, scratch memory is the n + k-slot
    merge buffer and a few slices of about ``merges._CHUNK`` or
    ``min_run_len`` elements, whichever is larger, whatever the input.
    """
    if config is None:
        config = SortConfig()
    kernels = _validated(config)
    stats = SortStats()
    n = len(lst)
    if n == 0:
        return stats
    k = config.k
    key = config.key
    buf = [None] * (n + k)  # any merge's output plus a slot per run
    stats.scan_reads += n    # one detection scan over the input
    stats.scan_writes += n   # buffer initialization
    on_merge = config.on_merge
    # The kernel for a group of bounds, by len(bounds).
    merge = (None, None, None, kernels.merge2, kernels.merge3, kernels.merge4)
    runs = _detected_runs(lst, n, key, stats, config.min_run_len)
    try:
        for bounds in merge_schedule(
            k, n, runs, config.strict_merge_down, stats
        ):
            merge[len(bounds)](lst, bounds, buf, key, stats)
            if on_merge is not None:
                on_merge((bounds, bounds[-1] - bounds[0]))
    except (IndexError, ValueError) as exc:
        # Indices and merge bounds assume the length the sort started with.
        if len(lst) != n:
            raise ValueError("list modified during sort") from exc
        raise
    if len(lst) != n:
        raise ValueError("list modified during sort")
    return stats


def stable_sort(lst, key=None):
    """Sort ``lst`` in place, stably, with the default configuration.

    Keys (or the elements, without ``key``) must support ``<`` and ``<=``.
    """
    stable_sort_with(lst, SortConfig(key=key))


def merge_cost_for_profile(lengths, k, strict_merge_down=False, on_merge=None):
    """Total merge cost the policy produces on an input whose runs have the
    given lengths.

    The policy's merge decisions depend only on run boundaries, so the cost
    can be evaluated directly on the profile: this consumes the same
    ``merge_schedule`` as the real sort, with the kernels replaced by cost
    accounting, for any arity k = 2**j.
    """
    bounds = list(accumulate(validated_profile(lengths), initial=0))
    cost = 0
    for group in merge_schedule(
        k, bounds[-1], zip(bounds, bounds[1:]), strict_merge_down, SortStats()
    ):
        cost += group[-1] - group[0]
        if on_merge is not None:
            on_merge((group, group[-1] - group[0]))
    return cost
