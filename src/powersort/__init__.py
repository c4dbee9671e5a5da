"""Stable, run-adaptive mergesort with 2-way and 4-way merge policies.

The public sorting surface is ``stable_sort`` / ``stable_sort_with``; the
submodules expose the building blocks (run detection, boundary powers, the
merge kernels), the reference oracle, and seeded input generators
(``harness``).  Runs are ``(begin, end)`` index pairs of plain ints.
"""

from .merges import MergeBuffer
from .policy import (
    MIN_RUN_LEN,
    VARIANTS,
    SortConfig,
    merge_cost_for_profile,
    stable_sort,
    stable_sort_with,
)
from .power import node_power, run_stack_capacity
from .statskit import (
    CountingOrder,
    SortStats,
    scanned_elements_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "MIN_RUN_LEN",
    "MergeBuffer",
    "CountingOrder",
    "SortConfig",
    "SortStats",
    "VARIANTS",
    "merge_cost_for_profile",
    "node_power",
    "run_stack_capacity",
    "scanned_elements_estimate",
    "stable_sort",
    "stable_sort_with",
]
