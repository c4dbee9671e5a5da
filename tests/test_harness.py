import io
import statistics

import pytest

from powersort import harness
from powersort.harness import (
    CSV_HEADER,
    GeneratorSpec,
    TrialSpec,
    derive_seed,
    generate,
    main,
    run_benchmark,
    run_trial,
    write_csv,
)
from powersort.runs import find_first_run
from powersort.statskit import CountingOrder, SortStats


def detected_runs(lst):
    order, stats = CountingOrder(), SortStats()
    runs = []
    at = 0
    while at < len(lst):
        run = find_first_run(list(lst), at, len(lst), order, stats)
        runs.append(run.end - run.begin)
        at = run.end
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


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(7, 0)
    assert a == derive_seed(7, 0)
    assert a != derive_seed(7, 1)
    assert a != derive_seed(8, 0)
    assert 0 <= a < 2**64


def test_benchmark_row_count_and_header():
    rows, errors = run_benchmark(
        ["2way", "4way"],
        GeneratorSpec("random-runs", 1000, expected_run_len=30, seed=7),
        trials=5,
    )
    assert not errors
    assert len(rows) == 10
    out = io.StringIO()
    write_csv(rows, out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11


def test_benchmark_counters_reproducible():
    spec = GeneratorSpec("random-runs", 800, expected_run_len=20, seed=99)
    first, _ = run_benchmark(["4way"], spec, trials=3)
    second, _ = run_benchmark(["4way"], spec, trials=3)
    strip = lambda row: {k: v for k, v in row.items() if k != "time_ns"}
    assert list(map(strip, first)) == list(map(strip, second))


def test_benchmark_same_trial_shares_input_across_algos():
    spec = GeneratorSpec("random-permutation", 500, seed=5)
    rows, _ = run_benchmark(["2way", "4way"], spec, trials=2, min_run_len=1)
    by_algo = {}
    for row in rows:
        by_algo.setdefault(row["algo"], []).append(row)
    for a, b in zip(by_algo["2way"], by_algo["4way"]):
        assert a["seed"] == b["seed"]
        assert a["runs"] == b["runs"]
        assert a["entropy_bits"] == b["entropy_bits"]


def test_benchmark_sorted_input_has_zero_merge_cost():
    rows, errors = run_benchmark(
        ["2way", "4way", "std-stable"],
        GeneratorSpec("sorted", 512, seed=0),
        trials=2,
    )
    assert not errors
    for row in rows:
        assert row["merge_cost"] == 0


def test_benchmark_records_check_stability():
    rows, errors = run_benchmark(
        ["4way", "4way-nosentinel", "std-stable"],
        GeneratorSpec("random-runs", 600, expected_run_len=10, seed=21),
        trials=2,
        elem="record",
    )
    assert not errors
    assert len(rows) == 6


def test_ratio_of_merge_costs_computable_from_rows():
    rows, _ = run_benchmark(
        ["2way", "4way"],
        GeneratorSpec("random-runs", 4000, expected_run_len=63, seed=1),
        trials=4,
        min_run_len=1,
    )
    cost = {"2way": 0, "4way": 0}
    for row in rows:
        cost[row["algo"]] += row["merge_cost"]
    ratio = cost["4way"] / cost["2way"]
    assert 0.3 < ratio < 0.9


def test_cli_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "--algo", "2way,4way-nosentinel",
            "--input", "random-runs",
            "--n", "1e3",
            "--expected-run-len", "25",
            "--trials", "3",
            "--seed", "42",
            "--csv", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7


def test_cli_rejects_unknown_algo(capsys):
    with pytest.raises(SystemExit):
        main(["--algo", "quicksort", "--input", "sorted", "--n", "10",
              "--trials", "1", "--seed", "0"])
    capsys.readouterr()


def test_parallel_trials_match_serial(monkeypatch):
    spec = GeneratorSpec("random-runs", 400, expected_run_len=10, seed=3)
    serial, _ = run_benchmark(["4way"], spec, trials=4, workers=1)
    parallel, _ = run_benchmark(["4way"], spec, trials=4, workers=2)
    strip = lambda row: {k: v for k, v in row.items() if k != "time_ns"}
    assert list(map(strip, serial)) == list(map(strip, parallel))


def one_trial(monkeypatch, values, sort=None):
    """Run one 4way trial whose generated input is ``values``."""
    monkeypatch.setattr(harness, "generate", lambda spec: list(values))
    if sort is not None:
        monkeypatch.setattr(harness, "stable_sort_with", sort)
    return run_trial(
        TrialSpec("4way", GeneratorSpec("sorted", len(values)), 0, 24))


def test_verification_catches_a_wrong_output_with_equal_hashes(monkeypatch):
    # hash(-1) == hash(-2), so a sum of hashes cannot tell these apart.
    def wrong_sort(lst, config):
        lst[:] = [-2, 0]
        return SortStats()

    result = one_trial(monkeypatch, [-1, 0], wrong_sort)
    assert result.error is not None


def test_verification_accepts_unhashable_elements(monkeypatch):
    result = one_trial(monkeypatch, [[2], [0], [1], [0]])
    assert result.error is None

