import random
from fractions import Fraction

import pytest

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
    for k in (1, 3, 5):
        with pytest.raises(ValueError, match="k in {2, 4}"):
            node_power(k, 4, 0, 2, 2, 4)
        with pytest.raises(ValueError, match="k in {2, 4}"):
            boundary_powers([2, 2], k)
        with pytest.raises(ValueError, match="k in {2, 4}"):
            boundary_powers([4], k)


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
        for k in (2, 4):
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
            for k in (2, 4):
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
            for k in (2, 4):
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
        for k in (2, 4):
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
        for k in (2, 4):
            assert node_power(k, n, b1, e1, e1, e2) == definition_power(
                k, n, b1, e1, e1, e2
            )


def squished(p2):
    return (p2 - 1) // 2 + 1


def test_squish_relation_small_exhaustive():
    from conftest import compositions_upto

    for profile in compositions_upto(12, 6):
        if len(profile) < 2:
            continue
        p2 = boundary_powers(list(profile), 2)
        p4 = boundary_powers(list(profile), 4)
        assert p4 == [squished(p) for p in p2]


def test_squish_relation_random():
    rng = random.Random(4)
    for _ in range(2000):
        profile = random_profile(rng, max_runs=20, max_len=10**6)
        p2 = boundary_powers(profile, 2)
        p4 = boundary_powers(profile, 4)
        assert p4 == [squished(p) for p in p2]


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
        for k in (2, 4):
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
    with pytest.raises(ValueError):
        ceil_log(1, 4)
    with pytest.raises(ValueError):
        ceil_log(2, 0)


def test_run_stack_capacity_values():
    assert run_stack_capacity(4, 10**6) == 33
    assert run_stack_capacity(2, 16) == 5
    assert run_stack_capacity(4, 1) == 3
