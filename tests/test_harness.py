import statistics

import pytest

from powersort.harness import GeneratorSpec, generate
from powersort.runs import find_first_run
from powersort.statskit import CountingOrder, SortStats


def detected_runs(lst):
    order, stats = CountingOrder(), SortStats()
    runs = []
    at = 0
    while at < len(lst):
        end = find_first_run(list(lst), at, len(lst), order, stats)
        runs.append(end - at)
        at = end
    return runs


def test_sorted_and_reverse_generators():
    assert generate(GeneratorSpec("sorted", 5)) == [0, 1, 2, 3, 4]
    assert generate(GeneratorSpec("reverse", 3)) == [2, 1, 0]


def test_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("sorted", 0))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("zigzag", 5))


def test_random_permutation_is_a_permutation():
    spec = GeneratorSpec("random-permutation", 1000, seed=3)
    arr = generate(spec)
    assert sorted(arr) == list(range(1000))
    assert arr == generate(spec)
    assert arr != generate(GeneratorSpec("random-permutation", 1000, seed=4))


def test_random_runs_deterministic_and_run_structured():
    spec = GeneratorSpec("random-runs", 2000, expected_run_len=50, seed=11)
    arr = generate(spec)
    assert arr == generate(spec)
    runs = detected_runs(arr)
    assert sum(runs) == 2000
    # forced boundary descents keep sampled runs from fusing, so the run
    # count should be near n / expected_run_len
    assert 20 <= len(runs) <= 80


def test_random_runs_mean_run_count():
    n, expected = 10_000, 100
    counts = [
        len(detected_runs(generate(
            GeneratorSpec("random-runs", n, expected_run_len=expected, seed=s)
        )))
        for s in range(40)
    ]
    mean = statistics.mean(counts)
    assert abs(mean - n / expected) / (n / expected) < 0.10
