import random
from fractions import Fraction

import numpy as np
import pytest

from powersort.oracle import kway_tree
from powersort.policy import (
    SortConfig,
    merge_cost_for_profile,
    stable_sort_with,
)
from powersort.power import (
    boundary_powers,
    ceil_log,
    node_power,
    run_stack_capacity,
)


def definition_power(k, n, b1, e1, b2, e2):
    """Direct evaluation of the boundary-power definition over exact
    rationals: least p >= 1 with floor(a * k**p) < floor(b * k**p) for the
    scaled run midpoints a, b."""
    a = Fraction(b1 + e1, 2 * n)
    b = Fraction(b2 + e2, 2 * n)
    p = 1
    while (a * k**p).__floor__() == (b * k**p).__floor__():
        p += 1
    return p


#: Arities k = 2**j checked against the definition; the sort runs 2 and 4.
ARITIES = (2, 4, 8, 16)


def random_profile(rng, max_runs=12, max_len=10**4):
    r = rng.randint(2, max_runs)
    return [rng.randint(1, max_len) for _ in range(r)]


def test_symmetric_midpoint_split():
    assert node_power(2, 4, 0, 2, 2, 4) == 1


def test_profile_2_2_4_8_binary_powers():
    assert boundary_powers([2, 2, 4, 8], 2) == [3, 2, 1]


def test_profile_2_2_4_8_quaternary_powers():
    assert boundary_powers([2, 2, 4, 8], 4) == [2, 1, 1]


def test_rejects_bad_arity():
    # power.arity_log is the one check of k; every entry point that takes an
    # arity goes through it, a one-run profile included.
    for k in (0, 1, 3, 5, 6, 12):
        for call in (
            lambda: node_power(k, 4, 0, 2, 2, 4),
            lambda: boundary_powers([2, 2], k),
            lambda: boundary_powers([4], k),
            lambda: run_stack_capacity(k, 16),
            lambda: merge_cost_for_profile([2, 2, 4, 8], k),
            lambda: merge_cost_for_profile([5], k),
            lambda: kway_tree([2, 2, 4, 8], k),
        ):
            with pytest.raises(ValueError, match="power of two >= 2"):
                call()
    for k in (4.0, 2.5):
        with pytest.raises((TypeError, ValueError)):
            node_power(k, 4, 0, 2, 2, 4)
        with pytest.raises((TypeError, ValueError)):
            merge_cost_for_profile([5], k)
    # The profile cost serves k = 8; the sort has no 8-way kernel.
    with pytest.raises(ValueError, match="implements k=4"):
        stable_sort_with([2, 1], SortConfig(k=8, variant="4way"))


def test_numpy_profiles_give_the_list_results():
    # Lengths pass through operator.index: numpy ints act as ints, and a
    # float length is a TypeError, not a silent float run bound.
    profile = [3, 4, 5, 9, 2]
    array = np.array(profile)
    assert merge_cost_for_profile(profile, 4) == 30
    assert merge_cost_for_profile(array, 4) == 30
    for k in (2, 4):
        assert boundary_powers(array, k) == boundary_powers(profile, k)
        assert kway_tree(array, k) == kway_tree(profile, k)
    with pytest.raises(TypeError):
        merge_cost_for_profile([3.0, 4], 4)
    with pytest.raises(TypeError):
        boundary_powers([3, 4.5], 2)


@pytest.mark.parametrize(
    "bounds",
    [
        (0, 0, 0, 4),   # empty left run
        (0, 2, 2, 2),   # empty right run
        (0, 3, 2, 4),   # runs not adjacent
        (0, 2, 3, 4),   # gap between runs
        (0, 2, 2, 5),   # beyond n
        (-1, 2, 2, 4),  # negative index
    ],
)
def test_rejects_malformed_bounds(bounds):
    with pytest.raises(ValueError):
        node_power(2, 4, *bounds)


def test_powers_start_at_one():
    # Interior midpoints are strictly inside (0, 1), so p = 0 can never
    # separate their floors.
    rng = random.Random(1)
    for _ in range(500):
        profile = random_profile(rng)
        for k in ARITIES:
            assert min(boundary_powers(profile, k)) >= 1


def test_agrees_with_rational_definition():
    rng = random.Random(2)
    for _ in range(400):
        profile = random_profile(rng)
        n = sum(profile)
        left = 0
        for j in range(len(profile) - 1):
            mid = left + profile[j]
            right = mid + profile[j + 1]
            for k in ARITIES:
                assert node_power(k, n, left, mid, mid, right) == definition_power(
                    k, n, left, mid, mid, right
                )
            left = mid


def test_exact_at_huge_lengths():
    # Doubled midpoints times k**p overflow 64-bit arithmetic here; the
    # integer path must still match the rational definition.
    rng = random.Random(3)
    for _ in range(60):
        profile = [rng.randint(1, 10**8) for _ in range(rng.randint(2, 6))]
        n = sum(profile)
        left = 0
        for j in range(len(profile) - 1):
            mid = left + profile[j]
            right = mid + profile[j + 1]
            for k in ARITIES:
                assert node_power(k, n, left, mid, mid, right) == definition_power(
                    k, n, left, mid, mid, right
                )
            left = mid


def test_exact_up_to_2_to_the_80():
    # The bit-length rule takes s = (2n).bit_length() + 1 bits of each
    # midpoint; it must stay exact far beyond machine words.
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(2, 2**rng.randint(2, 80))
        b1 = rng.randrange(n - 1)
        e2 = rng.randint(b1 + 2, n)
        e1 = rng.randint(b1 + 1, e2 - 1)
        for k in ARITIES:
            assert node_power(k, n, b1, e1, e1, e2) == definition_power(
                k, n, b1, e1, e1, e2
            )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 1000, 2**61 - 1, 2**80])
def test_exact_for_unit_runs(n):
    # Runs of length 1 at either end of the array, and two adjacent runs of
    # length 1 anywhere: B - A = 2, the smallest gap the bit-length rule
    # has to resolve.
    cases = [(0, 1, n), (0, n - 1, n)]
    cases += [(b, b + 1, b + 2) for b in {0, 1, n // 3, n // 2, n - 3, n - 2}
              if 0 <= b <= n - 2]
    for b1, e1, e2 in cases:
        for k in ARITIES:
            assert node_power(k, n, b1, e1, e1, e2) == definition_power(
                k, n, b1, e1, e1, e2
            )


def squished(p2, k):
    """ceil(p2 / j) for k = 2**j."""
    j = k.bit_length() - 1
    return (p2 - 1) // j + 1


def test_squish_relation_small_exhaustive():
    from conftest import compositions_upto

    for profile in compositions_upto(12, 6):
        if len(profile) < 2:
            continue
        p2 = boundary_powers(list(profile), 2)
        for k in (4, 8, 16):
            pk = boundary_powers(list(profile), k)
            assert pk == [squished(p, k) for p in p2]


def test_squish_relation_random():
    rng = random.Random(4)
    for _ in range(2000):
        profile = random_profile(rng, max_runs=20, max_len=10**6)
        p2 = boundary_powers(profile, 2)
        for k in (4, 8, 16):
            pk = boundary_powers(profile, k)
            assert pk == [squished(p, k) for p in p2]


def ceil_log_ratio(k, n, length):
    """ceil(log_k(n / length)), exactly."""
    m, power = 0, 1
    while power * length < n:
        power *= k
        m += 1
    return m


def test_power_bounded_by_adjacent_run_lengths():
    # Both boundaries of run i have power at most ceil(log_k(n/L_i)) + 1.
    rng = random.Random(5)
    for _ in range(500):
        profile = random_profile(rng)
        n = sum(profile)
        for k in ARITIES:
            powers = boundary_powers(profile, k)
            for i, length in enumerate(profile):
                bound = ceil_log_ratio(k, n, length) + 1
                if i > 0:
                    assert powers[i - 1] <= bound
                if i < len(profile) - 1:
                    assert powers[i] <= bound


def test_ceil_log():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 3) == 2
    assert ceil_log(4, 256) == 4
    assert ceil_log(4, 257) == 5
    assert ceil_log(8, 8) == 1
    assert ceil_log(8, 9) == 2
    assert ceil_log(8, 10**6) == 7
    assert ceil_log(16, 2**20) == 5
    assert ceil_log(16, 2**20 + 1) == 6
    for k in ARITIES:
        for n in range(1, 300):
            assert ceil_log(k, n) == ceil_log_ratio(k, n, 1)
    with pytest.raises(ValueError):
        ceil_log(1, 4)
    with pytest.raises(ValueError):
        ceil_log(2, 0)


def test_run_stack_capacity_values():
    assert run_stack_capacity(4, 10**6) == 33
    assert run_stack_capacity(2, 16) == 5
    assert run_stack_capacity(4, 1) == 3
