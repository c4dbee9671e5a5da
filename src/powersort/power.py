"""Boundary powers: the integer rule that drives the merge policy.

Map the array onto the unit interval and mark, for each boundary between
two adjacent runs, the half-open interval from the midpoint of the left run
(exclusive) to the midpoint of the right run (inclusive).  The power of the
boundary is the least p >= 1 such that that interval contains a multiple of
k**-p.  Equivalently: the least p with floor(a * k**p) < floor(b * k**p),
where a and b are the two midpoints divided by n.

Everything here is exact integer arithmetic.  With run bounds b1 < e1 = b2
< e2 the doubled midpoints are A = b1 + e1 and B = b2 + e2, so a = A / 2n
and b = B / 2n, both strictly inside (0, 1).  Floating point would mis-rank
boundaries for large n; the merge tree depends on these values being exact.

For k = 2 the power is the position of the first bit after the binary point
in which a and b differ (Munro & Wild, ESA 2018, arXiv:1805.04154).  Take
s = (2n).bit_length() + 1 bits of each: x = (A << s) // 2n and
y = (B << s) // 2n.  These s bits suffice: B - A = e2 - b1 >= 2, so
b - a >= 1/n, and 2**s > 4n puts x and y more than 4 apart; the two
expansions therefore differ within their first s bits.  Bit p (counted
from the binary point) is the first to differ exactly when x ^ y has bit
length s - p + 1, so p2 = s - (x ^ y).bit_length() + 1.  The arity is
k = 2**j, and a multiple of k**-q is a multiple of 2**-jq, so the power is
the least q with jq >= p2: p_k = ceil(p2 / j), the squish rule.
"""

from __future__ import annotations

from itertools import accumulate
from operator import index


def validated_profile(lengths) -> list[int]:
    """``lengths`` as a list of ints (numpy ints pass, floats raise
    ``TypeError``), checked to be a non-empty run-length profile."""
    lengths = list(map(index, lengths))
    if not lengths:
        raise ValueError("a run profile has at least one run")
    if any(length < 1 for length in lengths):
        raise ValueError("run lengths must be positive")
    return lengths


def arity_log(k: int) -> int:
    """j for a merge arity k = 2**j, j >= 1.  The one check of k: every
    function taking an arity calls it, and it raises ``ValueError``."""
    j = index(k).bit_length() - 1
    if j < 1 or k != 1 << j:
        raise ValueError("k must be a power of two >= 2, got %r" % (k,))
    return j


def ceil_log(k: int, n: int) -> int:
    """Smallest m >= 0 with k**m >= n: ceil(ceil(lg n) / j) for k = 2**j."""
    j = arity_log(k)
    if n < 1:
        raise ValueError("ceil_log needs n >= 1")
    return ((index(n) - 1).bit_length() + j - 1) // j


def run_stack_capacity(k: int, n: int) -> int:
    """Height bound ``(k-1) * (ceil(log_k n) + 1)`` for the pending-run stack.

    Powers of interior boundaries fall in 1..ceil(log_k n)+1 and at most k-1
    pending runs can share a power, so a sort of n elements can never stack
    more runs than this.  Raises ``ValueError`` for an arity other than 2**j.
    """
    return (k - 1) * (ceil_log(k, n) + 1)


def node_power(k: int, n: int, b1: int, e1: int, b2: int, e2: int) -> int:
    """Power of the boundary between adjacent runs [b1, e1) and [b2, e2).

    ``n`` is the total array length.  Exact, in O(1) big-integer operations;
    raises ``ValueError`` for k other than 2**j or malformed bounds.
    """
    j = arity_log(k)
    if not (0 <= b1 < e1 == b2 < e2 <= n):
        raise ValueError(
            "malformed run bounds: need 0 <= b1 < e1 == b2 < e2 <= n, got "
            "b1=%r e1=%r b2=%r e2=%r n=%r" % (b1, e1, b2, e2, n)
        )
    two_n = 2 * n
    s = two_n.bit_length() + 1
    x = ((b1 + e1) << s) // two_n
    y = ((b2 + e2) << s) // two_n
    p2 = s - (x ^ y).bit_length() + 1
    return (p2 + j - 1) // j


def boundary_powers(lengths, k: int) -> list[int]:
    """Powers of all r-1 interior boundaries of a run-length profile.

    ``lengths`` is the left-to-right list of run lengths; element j of the
    result is the power of the boundary between runs j and j+1.
    """
    arity_log(k)  # a one-run profile has no boundary to check k
    bounds = list(accumulate(validated_profile(lengths), initial=0))
    n = bounds[-1]
    return [
        node_power(k, n, begin, mid, mid, end)
        for begin, mid, end in zip(bounds, bounds[1:], bounds[2:])
    ]
